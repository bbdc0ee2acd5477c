// Package lib holds one reached, one init-reached and one dead function,
// and an iota sequence main uses one member of.
package lib

// Live is called from main.
func Live() {}

// FromInit is called from an init function.
func FromInit() {}

// Dead is called from nowhere.
func Dead() {}

// The sequence lives as one: deleting Second would renumber Third.
const (
	First = iota
	Second
	Third
)
