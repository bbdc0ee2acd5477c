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

func TestReportsOnlyTheUnreachedFunction(t *testing.T) {
	bad, out := check(t, "")
	if bad != 1 || !strings.Contains(out, "lib/lib.go:12: lib.Dead is unreachable (2 lines)") {
		t.Errorf("%d finding(s), want lib.Dead alone:\n%s", bad, out)
	}
}

func TestAllowlistedDeadCodePasses(t *testing.T) {
	if bad, out := check(t, "# comment\nlib.Dead  test helper\n"); bad != 0 {
		t.Errorf("%d finding(s), want none:\n%s", bad, out)
	}
}

func TestStaleAllowlistEntriesFail(t *testing.T) {
	bad, out := check(t, "lib.Dead  test oracle\nlib.Live  item 2\nlib.Gone  test helper\n")
	if bad != 2 || !strings.Contains(out, "allowlisted lib.Live is reached") ||
		!strings.Contains(out, "allowlisted lib.Gone names no declaration") {
		t.Errorf("%d finding(s), want the reached and the missing entry:\n%s", bad, out)
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
