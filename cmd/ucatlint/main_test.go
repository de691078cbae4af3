package main

import (
	"os"
	"path/filepath"
	"testing"

	"ucat/internal/lint"
)

func TestRunList(t *testing.T) {
	if got := run([]string{"-list"}); got != 0 {
		t.Errorf("run(-list) = %d, want 0", got)
	}
}

func TestRunBadFlagsExitTwo(t *testing.T) {
	if got := run([]string{"-definitely-not-a-flag"}); got != 2 {
		t.Errorf("run with bad flag = %d, want 2", got)
	}
	if got := run([]string{"-checks", "nosuchcheck"}); got != 2 {
		t.Errorf("run with unknown check = %d, want 2", got)
	}
	if got := run([]string{"./no/such/package"}); got != 2 {
		t.Errorf("run with missing package = %d, want 2", got)
	}
}

func TestRunCleanAndViolatingPackages(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the stdlib from source; skipped in -short")
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, _, err := lint.FindModuleRoot(cwd)
	if err != nil {
		t.Fatal(err)
	}

	// The lint package itself must be clean.
	if got := run([]string{"./internal/lint"}); got != 0 {
		t.Errorf("run(./internal/lint) = %d, want 0", got)
	}

	// A synthetic violation must drive the exit status to 1.
	dir, err := os.MkdirTemp(root, "ucatlint-violation-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	src := "package violation\n\nfunc equalProb(a, b float64) bool { return a == b }\n"
	if err := os.WriteFile(filepath.Join(dir, "v.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := run([]string{"./" + filepath.Base(dir)}); got != 1 {
		t.Errorf("run on synthetic floatcmp violation = %d, want 1", got)
	}
}
