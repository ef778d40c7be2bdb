// Package recycle enforces the version-bump-on-reuse rule from the
// paper's node-recycling discussion (OptiQL §4.5): a node pulled from
// a recycler may still be reachable by optimistic readers that
// captured its address before it was unlinked. If its lock version is
// not bumped before the node is reinitialized, such a reader can
// validate successfully against the *reused* node and return data
// from the wrong key. The dynamic churn tests catch this as a rare
// lost-read; this analyzer catches it at the call site.
//
// Rule: any function that takes a node from a recycler
// (locks.Recycler.Get or a core.Pool pop) must, in the same function,
// either bump the version itself (locks.BumpOnReuse or a BumpVersion
// method call) or hand the node to a helper whose name marks it as a
// reuse-initializer. The check is intraprocedural by design — the
// repo's convention is that the function that dequeues the node
// reinitializes it — and name-based, so testdata stubs exercise the
// identical path.
package recycle

import (
	"go/ast"
	"go/types"

	"optiql/internal/analysis"
)

// Analyzer is the recycle pass.
var Analyzer = &analysis.Analyzer{
	Name: "recycle",
	Doc:  "functions taking nodes from a recycler must bump the lock version before reuse",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	var gets []*ast.CallExpr
	bumps := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case isRecyclerGet(pass.Info, call):
			gets = append(gets, call)
		case isBump(pass.Info, call):
			bumps = true
		}
		return true
	})
	if bumps {
		return
	}
	for _, g := range gets {
		pass.Reportf(g.Pos(), "function %s takes a node from a recycler but never bumps its lock version (call locks.BumpOnReuse or BumpVersion before reinitializing; stale optimistic readers would otherwise validate against the reused node)", fd.Name.Name)
	}
}

// isRecyclerGet matches locks.Recycler.Get method calls.
func isRecyclerGet(info *types.Info, call *ast.CallExpr) bool {
	if analysis.LockCall(info, call) != "Get" {
		return false
	}
	recv := analysis.CalleeFunc(info, call).Type().(*types.Signature).Recv()
	return recv != nil && recvNamed(recv.Type()) == "Recycler"
}

// isBump matches locks.BumpOnReuse(...) and any BumpVersion method
// call (the locks.VersionBumper interface method or a concrete lock's
// implementation).
func isBump(info *types.Info, call *ast.CallExpr) bool {
	if analysis.LockCall(info, call) == "BumpOnReuse" {
		return true
	}
	fn := analysis.CalleeFunc(info, call)
	return fn != nil && fn.Name() == "BumpVersion" && fn.Type().(*types.Signature).Recv() != nil
}

func recvNamed(t types.Type) string {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}
