// Command mod is deadcheck's test module: main reaches lib.Live and
// lib.Third, and an init function reaches lib.FromInit.
package main

import "example.com/mod/lib"

func init() { lib.FromInit() }

func main() { lib.Live(); _ = lib.Third }
