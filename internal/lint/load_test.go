package lint

import (
	"path/filepath"
	"testing"
)

func TestModulePath(t *testing.T) {
	tests := []struct {
		gomod string
		want  string
	}{
		{"module ucat\n\ngo 1.22\n", "ucat"},
		{"// a comment\nmodule example.com/x/y\n", "example.com/x/y"},
		{"module \"quoted/path\"\n", "quoted/path"},
		{"go 1.22\n", ""},
	}
	for _, tt := range tests {
		if got := modulePath(tt.gomod); got != tt.want {
			t.Errorf("modulePath(%q) = %q, want %q", tt.gomod, got, tt.want)
		}
	}
}

func TestFindModuleRoot(t *testing.T) {
	root, mod, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("FindModuleRoot: %v", err)
	}
	if mod != "ucat" {
		t.Errorf("module path = %q, want ucat", mod)
	}
	if filepath.Base(filepath.Join(root, "internal", "lint")) != "lint" {
		t.Errorf("unexpected root %q", root)
	}
	if _, _, err := FindModuleRoot(t.TempDir()); err == nil {
		t.Error("FindModuleRoot outside any module succeeded, want error")
	}
}

func TestLoadSinglePackage(t *testing.T) {
	if testing.Short() {
		t.Skip("loading real packages type-checks the stdlib from source; skipped in -short")
	}
	root, mod, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("FindModuleRoot: %v", err)
	}
	loader := NewLoader(root, mod)
	pkgs, err := loader.Load([]string{"./internal/uda"})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "ucat/internal/uda" {
		t.Fatalf("Load returned %d packages (%v), want exactly ucat/internal/uda", len(pkgs), pkgs)
	}
	pkg := pkgs[0]
	if len(pkg.Files) == 0 {
		t.Error("loaded package has no files")
	}
	for _, f := range pkg.Files {
		if isTestFile(pkg, f) {
			t.Errorf("loader included test file %s", pkg.Fset.Position(f.Pos()).Filename)
		}
	}
	if pkg.Types.Scope().Lookup("UDA") == nil {
		t.Error("type information is missing the UDA type")
	}
}

func TestLoadRejectsBadPattern(t *testing.T) {
	root, mod, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("FindModuleRoot: %v", err)
	}
	loader := NewLoader(root, mod)
	if _, err := loader.Load([]string{"./no/such/dir"}); err == nil {
		t.Error("Load of a missing directory succeeded, want error")
	}
}

// TestSelfHost runs every check over the whole repository: the tree must
// stay lint-clean, so a change that introduces a violation fails `go test`.
// This test is the only place the checks run.
func TestSelfHost(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repo lint type-checks the stdlib from source; skipped in -short")
	}
	root, mod, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("FindModuleRoot: %v", err)
	}
	loader := NewLoader(root, mod)
	pkgs, err := loader.Load([]string{"./..."})
	if err != nil {
		t.Fatalf("Load ./...: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("only %d packages loaded from ./...; expected the full repo", len(pkgs))
	}
	for _, d := range Run(pkgs, AllChecks()) {
		t.Errorf("repository is not lint-clean: %s", d)
	}
}
