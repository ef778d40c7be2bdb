// Package atomicmix enforces a single access discipline per field:
// any struct field that is accessed through sync/atomic *functions*
// (atomic.LoadUint64(&s.f), atomic.StoreUint64(&s.f, v), ...)
// anywhere in the module must be accessed that way everywhere — a
// plain read or write of the same field elsewhere (including tests)
// races with the atomic side and the compiler is free to tear it.
//
// The repo's own hot structures (core lock word, tree roots, obs
// counters) already use the sync/atomic *types*, which make mixed
// access unrepresentable; this analyzer keeps future code (and tests
// reaching into internals) from regressing to the function-style
// idiom and mixing it with plain access. It runs in two phases: a
// module-wide Collect pass records every field whose address flows
// into a sync/atomic function, keyed "pkgpath.Type.field"; the Run
// pass flags plain selector reads and writes of those fields.
//
// Soundness gap: fields reached through reflection or unsafe escape
// the analysis. The driver collects over every loaded package before
// any Run, so mixing across packages is caught.
package atomicmix

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"optiql/internal/analysis"
)

// Analyzer is the atomicmix pass.
var Analyzer = &analysis.Analyzer{
	Name:    "atomicmix",
	Doc:     "fields accessed via sync/atomic functions must never be read or written plainly",
	Collect: collect,
	Run:     run,
}

// fieldKey names a struct field module-wide.
func fieldKey(f *types.Var) (string, bool) {
	if f == nil || !f.IsField() {
		return "", false
	}
	named := fieldOwner(f)
	if named == "" {
		return "", false
	}
	pkg := ""
	if f.Pkg() != nil {
		pkg = f.Pkg().Path()
	}
	return fmt.Sprintf("%s.%s.%s", pkg, named, f.Name()), true
}

// fieldOwner finds the named struct type declaring f by scanning the
// package scope (go/types does not link fields back to their owner).
func fieldOwner(f *types.Var) string {
	if f.Pkg() == nil {
		return ""
	}
	scope := f.Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == f {
				return name
			}
		}
	}
	return ""
}

// selField resolves a selector expression to the struct field it
// denotes, if any.
func selField(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			return v
		}
	}
	return nil
}

// isAtomicFn reports whether the call invokes a sync/atomic
// function (not a method on the atomic types).
func isAtomicFn(info *types.Info, call *ast.CallExpr) bool {
	fn := analysis.CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	return fn.Type().(*types.Signature).Recv() == nil
}

func collect(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicFn(pass.Info, call) {
				return true
			}
			for _, arg := range call.Args {
				u, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || u.Op != token.AND {
					continue
				}
				sel, ok := ast.Unparen(u.X).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if fv := selField(pass.Info, sel); fv != nil {
					if key, ok := fieldKey(fv); ok {
						pass.Facts.Set(key, pass.Fset.Position(call.Pos()).String())
					}
				}
			}
			return true
		})
	}
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		analysis.WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fv := selField(pass.Info, sel)
			if fv == nil {
				return true
			}
			key, ok := fieldKey(fv)
			if !ok {
				return true
			}
			where, ok := pass.Facts[key]
			if !ok || addressedForAtomic(pass.Info, sel, stack) {
				return true
			}
			kind := "read"
			if isWriteTarget(sel, stack) {
				kind = "write"
			}
			pass.Reportf(sel.Pos(), "plain %s of field %s, which is accessed atomically (e.g. at %s); use sync/atomic consistently",
				kind, strings.TrimPrefix(key, pass.Pkg.Path()+"."), where)
			return true
		})
	}
	return nil
}

// addressedForAtomic reports whether the selector is &-addressed as a
// sync/atomic function argument — the sanctioned access form.
func addressedForAtomic(info *types.Info, sel *ast.SelectorExpr, stack []ast.Node) bool {
	if len(stack) < 2 {
		return false
	}
	child := ast.Node(sel)
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			child = p
		case *ast.UnaryExpr:
			if p.Op != token.AND {
				return false
			}
			child = p
		case *ast.CallExpr:
			return child != ast.Node(sel) && isAtomicFn(info, p)
		default:
			return false
		}
	}
	return false
}

// isWriteTarget reports whether the selector is on the left of an
// assignment or inc/dec statement.
func isWriteTarget(sel *ast.SelectorExpr, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	switch p := stack[len(stack)-1].(type) {
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if ast.Unparen(lhs) == ast.Expr(sel) {
				return true
			}
		}
	case *ast.IncDecStmt:
		return ast.Unparen(p.X) == ast.Expr(sel)
	}
	return false
}
