package lint

import "go/ast"

// SharedPoolCheck guards the serving layer's one-pool invariant (DESIGN.md
// §18). Every fetch in internal/server must flow through the server's single
// shared striped pool — constructed once with pager.NewSharedPool and handed
// to requests as per-request pager.Sessions. A private view built with
// pager.NewPool inside the server silently reintroduces the pre-refactor
// regime: the hot PDR-tree root and upper
// index pages get duplicated per view, the effective cache shrinks from
// "total frames" back to "frames × views", and the shared-pool metrics on
// /metrics stop describing the traffic. The code still compiles and still
// answers correctly, which is exactly why this is a lint check and not a
// test.
//
// The check fires only in the server package; everywhere else private views
// are the sanctioned idiom (the figures path depends on them for
// bit-identical per-query I/O counts).
func SharedPoolCheck() *Check {
	return &Check{
		Name: "sharedpool",
		Doc:  "flag private pager.NewPool views inside internal/server; serving must share one pool",
		Run:  runSharedPool,
	}
}

// serverPath is the import path of the serving layer the check applies to.
const serverPath = "ucat/internal/server"

func runSharedPool(pkg *Package) []Diagnostic {
	if pkg.Path != serverPath {
		return nil
	}
	var diags []Diagnostic
	for _, f := range pkg.Files {
		if isTestFile(pkg, f) {
			continue // tests may build throwaway pools to compare against
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pkg, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pagerPath ||
				fn.Name() != "NewPool" { // NewSharedPool is the sanctioned constructor
				return true
			}
			diags = append(diags, Diagnostic{
				Pos:   pkg.Fset.Position(call.Pos()),
				Check: "sharedpool",
				Msg:   "server constructs a private pool view via pager.NewPool; serving must fetch through the one shared pool (pager.NewSharedPool + per-request Sessions, DESIGN.md §18)",
			})
			return true
		})
	}
	return diags
}
