package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// check runs deadcheck over testdata/mod with the given allowlist and
// returns its finding count and output.
func check(t *testing.T, allow string) (int, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "allow.txt")
	if err := os.WriteFile(path, []byte(allow), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	bad, err := run("testdata/mod", path, &out)
	if err != nil {
		t.Fatal(err)
	}
	return bad, out.String()
}

// unreached lists the keys of the findings in deadcheck's output.
func unreached(out string) []string {
	var keys []string
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 2 && f[2] == "is" {
			keys = append(keys, f[1])
		}
	}
	return keys
}

// testdata/mod's unreached declarations and methods, in source order.
const (
	dead       = "lib.Dead"     // a function nothing calls
	picked     = "lib.T.Picked" // a method of a live type only Dead selects
	boxPut     = "lib.Box.Put"  // a method of a generic type, keyed without [E]
	oracle     = "lib.Oracle"   // a type only its method names
	oracleM    = "lib.Oracle.M" // a method no root reaches
	helperFunc = "lib.helper"   // a function only Oracle.M calls
	// A live type's String that does not implement fmt.Stringer.
	mislabeled = "lib.Mislabeled.String"
	// A module interface's implementation no live code calls it through.
	crateSize = "lib.Crate.Size"
)

// TestReportsOnlyTheUnreachedFunction: lib.Dead and every declaration or
// method only unreached code names are reported, and nothing else.
func TestReportsOnlyTheUnreachedFunction(t *testing.T) {
	bad, out := check(t, "")
	want := []string{dead, picked, boxPut, oracle, oracleM, helperFunc, mislabeled, crateSize}
	if got := unreached(out); bad != len(want) || strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("%d finding(s) %v, want %v:\n%s", bad, got, want, out)
	}
	for _, line := range []string{
		"lib/lib.go:28: lib.Dead is unreachable (2 lines)",
		"lib/lib.go:77: lib.Box.Put is unreachable (2 lines)",
	} {
		if !strings.Contains(out, line) {
			t.Errorf("output lacks %q:\n%s", line, out)
		}
	}
}

// TestMethodsLiveWithoutAnEntry: a method reached only through a call of a
// module interface (Square.Area) or of an anonymous one (Kit.Kill), one
// only fmt calls through fmt.Stringer (Named.String), one selected through
// an embedded field (Inner.Promoted) and one selected on an instantiation
// of a generic type (Box.Get) are live; none is reported.
func TestMethodsLiveWithoutAnEntry(t *testing.T) {
	_, out := check(t, "")
	for _, key := range []string{"lib.T.Used", "lib.Square.Area", "lib.Kit.Kill", "lib.Named.String", "lib.Inner.Promoted", "lib.Box.Get"} {
		if strings.Contains(out, " "+key+" ") {
			t.Errorf("%s reported:\n%s", key, out)
		}
	}
}

func TestAllowlistedDeadCodePasses(t *testing.T) {
	allow := "# comment\nlib.Dead  test helper\nlib.T.Picked  test oracle\nlib.Box.Put  item 2\nlib.Oracle.M  test oracle\n" +
		"lib.Mislabeled.String  test helper\nlib.Crate.Size  item 2\n"
	if bad, out := check(t, allow); bad != 0 {
		t.Errorf("%d finding(s), want none:\n%s", bad, out)
	}
}

// TestAllowlistedMethodCoversWhatItReaches: an entry's own references are
// followed, so the type and helper only Oracle.M reaches need no entries.
func TestAllowlistedMethodCoversWhatItReaches(t *testing.T) {
	bad, out := check(t, "lib.Oracle.M  test oracle\n")
	want := []string{dead, picked, boxPut, mislabeled, crateSize}
	if got := unreached(out); bad != len(want) || strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("%d finding(s) %v, want %v:\n%s", bad, got, want, out)
	}
}

func TestStaleAllowlistEntriesFail(t *testing.T) {
	allow := "lib.Dead  test oracle\nlib.Live  item 2\nlib.Gone  test helper\n" +
		"lib.T.Used  item 2\nlib.T.Gone  test helper\n"
	bad, out := check(t, allow)
	for _, msg := range []string{
		"allowlisted lib.Live is reached",
		"allowlisted lib.Gone names no declaration",
		"allowlisted lib.T.Used is reached",
		"allowlisted lib.T.Gone names no declaration",
	} {
		if !strings.Contains(out, msg) {
			t.Errorf("output lacks %q:\n%s", msg, out)
		}
	}
	// The stale entries and the unlisted unreached keys but T.Picked, which
	// only the allowlisted Dead reaches.
	if bad != 4+6 {
		t.Errorf("%d finding(s), want 10:\n%s", bad, out)
	}
}

func TestAllowlistReasonRequired(t *testing.T) {
	path := filepath.Join(t.TempDir(), "allow.txt")
	if err := os.WriteFile(path, []byte("lib.Dead  kept for later\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := run("testdata/mod", path, &strings.Builder{}); err == nil {
		t.Error("an entry without a test or ROADMAP reason was accepted")
	}
}
