// Package lint implements ucatlint, a project-specific static analyzer for
// the invariants the paper's evaluation rests on. It is built only on the
// standard library's go/ast, go/parser, go/token and go/types (no
// golang.org/x/tools dependency) and follows the shape of the go/analysis
// ecosystem: a loader produces type-checked packages, independent checks run
// over each package and emit diagnostics, and a runner collects, filters and
// orders them. There is no command: TestSelfHost runs every check over the
// whole module as part of go test, and fails on any finding.
//
// The checks guard three classes of invariants:
//
//   - Probability arithmetic: probability mass must sum to 1 within a
//     tolerance, so exact float comparison is almost always a bug (floatcmp).
//   - I/O accounting: the paper's headline metric is "disk I/Os per query",
//     which is only meaningful if every flush/close error is observed
//     (droppederr) and every pinned page is released (pinleak). That every
//     page access flows through the counted buffer pool needs no check: the
//     store's page-access methods are unexported.
//   - Determinism: experiments must thread an explicitly seeded *rand.Rand;
//     the global math/rand functions destroy reproducibility (globalrand),
//     and read-only query entry points must accept an injected pager.View so
//     parallel workers keep private, exactly-reproducible I/O accounting
//     (poolview).
//
// Properties that need the whole program (lock order, context threading,
// ack-implies-durable, hot-path allocation) are pinned by tests that run the
// code, not by this package; DESIGN.md §12 names the test for each.
//
// A diagnostic can be suppressed with a directive comment on the same line or
// on the line immediately above:
//
//	//ucatlint:ignore <check> <reason>
//
// The reason is mandatory; directives without one (or naming an unknown
// check) are themselves reported under the "directive" check.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is a single finding, positioned at file:line:col. Every finding
// fails the run: it is fixed or carries an ignore directive with a reason.
type Diagnostic struct {
	Pos   token.Position
	Check string
	Msg   string
}

// String renders the diagnostic in the conventional file:line:col form used
// by go vet and compilers, so editors can jump to it.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Msg, d.Check)
}

// Package is one type-checked package as seen by the checks: its syntax
// trees (non-test files only), the shared file set, and full type
// information.
type Package struct {
	Path  string // import path, e.g. "ucat/internal/uda"
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Check is one analyzer pass over a single package. Suppression via ignore
// directives is handled by the runner, not by the check.
type Check struct {
	Name string
	Doc  string
	Run  func(pkg *Package) []Diagnostic
}

// DirectiveCheck is the name under which malformed //ucatlint:ignore
// comments are reported.
const DirectiveCheck = "directive"

// AllChecks returns every registered check, in stable order.
func AllChecks() []*Check {
	return []*Check{
		FloatcmpCheck(),
		DroppedErrCheck(),
		GlobalRandCheck(),
		PinleakCheck(),
		PoolViewCheck(),
		SpanEndCheck(),
		CacheVersionCheck(),
	}
}

// Run executes the checks over every package, applies ignore directives,
// validates the directives themselves, and returns the surviving diagnostics
// sorted by position. Findings in generated files (files opening with the
// standard "// Code generated ... DO NOT EDIT." comment) are dropped:
// generated code answers to its generator, not to hand-edits.
func Run(pkgs []*Package, checks []*Check) []Diagnostic {
	valid := make(map[string]bool)
	for _, c := range AllChecks() {
		valid[c.Name] = true
	}
	valid[DirectiveCheck] = true

	sup := make(suppressions)
	generated := make(map[string]bool)
	var out []Diagnostic
	for _, pkg := range pkgs {
		dirDiags := collectDirectives(pkg, valid, sup)
		out = append(out, dirDiags...)
		for _, f := range pkg.Files {
			if isGeneratedFile(f) {
				generated[pkg.Fset.Position(f.Pos()).Filename] = true
			}
		}
		for _, c := range checks {
			for _, d := range c.Run(pkg) {
				if sup.suppressed(d) || generated[d.Pos.Filename] {
					continue
				}
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return out
}

// isGeneratedFile reports whether the file carries the standard generated-
// code marker (golang.org/s/generatedcode): a "// Code generated ... DO NOT
// EDIT." line comment before the package clause.
func isGeneratedFile(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() > f.Package {
			break
		}
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, "// Code generated ") &&
				strings.HasSuffix(c.Text, " DO NOT EDIT.") {
				return true
			}
		}
	}
	return false
}

// suppressions records, per file and line, which checks are ignored there.
type suppressions map[string]map[int]map[string]bool

func (s suppressions) add(file string, line int, check string) {
	lines := s[file]
	if lines == nil {
		lines = make(map[int]map[string]bool)
		s[file] = lines
	}
	checks := lines[line]
	if checks == nil {
		checks = make(map[string]bool)
		lines[line] = checks
	}
	checks[check] = true
}

// suppressed reports whether d is covered by a directive on its own line or
// on the line immediately above it.
func (s suppressions) suppressed(d Diagnostic) bool {
	lines := s[d.Pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range [2]int{d.Pos.Line, d.Pos.Line - 1} {
		if lines[line][d.Check] || lines[line]["all"] {
			return true
		}
	}
	return false
}

const directivePrefix = "ucatlint:ignore"

// collectDirectives scans every comment in the package for ignore
// directives, adding them to the shared suppression table and reporting
// malformed directives (missing reason, unknown check name). A directive
// naming a check that is valid but not selected for this run is fine: the
// suppression simply never matches anything.
func collectDirectives(pkg *Package, valid map[string]bool, sup suppressions) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := directiveText(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) == 0 {
					diags = append(diags, Diagnostic{Pos: pos, Check: DirectiveCheck,
						Msg: "ucatlint:ignore directive needs a check name and a reason"})
					continue
				}
				check := fields[0]
				if check != "all" && !valid[check] {
					diags = append(diags, Diagnostic{Pos: pos, Check: DirectiveCheck,
						Msg: fmt.Sprintf("ucatlint:ignore names unknown check %q", check)})
					continue
				}
				if len(fields) < 2 {
					diags = append(diags, Diagnostic{Pos: pos, Check: DirectiveCheck,
						Msg: fmt.Sprintf("ucatlint:ignore %s needs a reason", check)})
					continue
				}
				sup.add(pos.Filename, pos.Line, check)
			}
		}
	}
	return diags
}

// directiveText extracts the payload of a //ucatlint:ignore comment, or
// reports that the comment is not a directive.
func directiveText(comment string) (string, bool) {
	body, ok := strings.CutPrefix(comment, "//")
	if !ok {
		return "", false // block comments are never directives
	}
	body = strings.TrimSpace(body)
	rest, ok := strings.CutPrefix(body, directivePrefix)
	if !ok {
		return "", false
	}
	return strings.TrimSpace(rest), true
}

// pagerPath is the pager package's import path: the checks that reason about
// pages, pools and views recognise their types by it, and exempt the package
// itself.
const pagerPath = "ucat/internal/pager"

// isTestFile reports whether the file's position name ends in _test.go. The
// loader does not feed test files to the checks, but checks also guard
// against it so they behave when driven directly in unit tests.
func isTestFile(pkg *Package, f *ast.File) bool {
	return strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "_test.go")
}

// namedOrPointerTo unwraps at most one pointer and reports the named type's
// package path and name, if t is (a pointer to) a named type.
func namedOrPointerTo(t types.Type) (pkgPath, name string, ok bool) {
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return "", "", false
	}
	return obj.Pkg().Path(), obj.Name(), true
}

// calleeFunc resolves the *types.Func a call expression invokes, whether
// through a plain identifier or a selector. It returns nil for calls through
// function values, conversions and built-ins.
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = pkg.Info.Uses[fun.Sel]
	default:
		return nil
	}
	fn, _ := obj.(*types.Func)
	return fn
}
