package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// PoolViewCheck guards the concurrency model's injection boundary (DESIGN.md
// §13). Read-only query entry points — PETQ, PEQ, top-k, DSTQ and their
// window/multi variants — must execute against an injected pager.View so
// that N parallel workers can each bind a private pool view over the shared
// store, with independent I/O accounting. A query that reaches for the
// concrete *pager.Pool instead is welded to one shared cache: it still
// compiles, still returns correct results, and silently breaks both the
// per-query I/O metric and the determinism guarantee the parallel harness
// rests on.
//
// Two patterns are flagged, in any package outside internal/pager:
//
//   - a query entry point whose body calls Fetch on a concrete
//     (*)pager.Pool (calls through the pager.View interface are the
//     sanctioned path);
//   - a query entry point that declares a *pager.Pool parameter where the
//     pager.View interface would do.
//
// A function is considered a query entry point when its name contains one
// of the query-operator markers (petq, peq, topk, dstq — case-insensitive),
// which covers the exported API (PETQ, WindowTopK, DSTopK, MultiPETQ, …)
// and the unexported strategy twins (bruteForceTopK, scanPETQ, …) alike.
// Write-path code (Insert, splits, bulk load) legitimately owns a
// *pager.Pool and is not matched.
func PoolViewCheck() *Check {
	return &Check{
		Name: "poolview",
		Doc:  "flag query entry points that capture *pager.Pool directly instead of accepting a pager.View",
		Run:  runPoolView,
	}
}

// queryNameMarkers are the substrings (lowercased) that mark a function as
// part of the read-only query surface.
var queryNameMarkers = []string{"petq", "peq", "topk", "dstq"}

func isQueryEntryPoint(name string) bool {
	l := strings.ToLower(name)
	for _, m := range queryNameMarkers {
		if strings.Contains(l, m) {
			return true
		}
	}
	return false
}

func runPoolView(pkg *Package) []Diagnostic {
	if pkg.Path == pagerPath {
		return nil // the pool's own machinery may touch itself
	}
	var diags []Diagnostic
	for _, f := range pkg.Files {
		if isTestFile(pkg, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isQueryEntryPoint(fd.Name.Name) {
				continue
			}
			diags = append(diags, poolViewParams(pkg, fd)...)
			diags = append(diags, poolViewFetches(pkg, fd)...)
		}
	}
	return diags
}

// poolViewParams flags *pager.Pool parameters on a query entry point: the
// signature should accept the pager.View interface so callers can hand in a
// per-query view.
func poolViewParams(pkg *Package, fd *ast.FuncDecl) []Diagnostic {
	var diags []Diagnostic
	for _, field := range fd.Type.Params.List {
		t := pkg.Info.TypeOf(field.Type)
		if t == nil {
			continue
		}
		path, name, ok := namedOrPointerTo(t)
		if !ok || path != pagerPath || name != "Pool" {
			continue
		}
		diags = append(diags, Diagnostic{
			Pos:   pkg.Fset.Position(field.Type.Pos()),
			Check: "poolview",
			Msg: fmt.Sprintf("query entry point %s takes a *pager.Pool parameter; accept the pager.View interface so parallel readers can inject a private pool view",
				fd.Name.Name),
		})
	}
	return diags
}

// poolViewFetches flags Fetch calls on a concrete (*)pager.Pool inside a
// query entry point's body. Fetches through the pager.View interface resolve
// to the interface method and are not flagged.
func poolViewFetches(pkg *Package, fd *ast.FuncDecl) []Diagnostic {
	var diags []Diagnostic
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pkg, call)
		if fn == nil || fn.Name() != "Fetch" {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			return true
		}
		path, name, ok := namedOrPointerTo(sig.Recv().Type())
		if !ok || path != pagerPath || name != "Pool" {
			return true
		}
		diags = append(diags, Diagnostic{
			Pos:   pkg.Fset.Position(call.Pos()),
			Check: "poolview",
			Msg: fmt.Sprintf("query entry point %s fetches through *pager.Pool directly; route page access through an injected pager.View",
				fd.Name.Name),
		})
		return true
	})
	return diags
}
