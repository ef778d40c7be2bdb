package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// WalkStack walks the AST under root like ast.Inspect, additionally
// passing the stack of ancestor nodes (outermost first, root's parent
// chain excluded). Returning false skips the node's children.
func WalkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// Annotation reports whether the comment group carries the magic
// comment "//optiql:<name>" (exact token; trailing free text after a
// space is allowed and returned).
func Annotation(cg *ast.CommentGroup, name string) (string, bool) {
	if cg == nil {
		return "", false
	}
	want := "optiql:" + name
	for _, c := range cg.List {
		text := strings.TrimPrefix(c.Text, "//")
		text = strings.TrimSpace(text)
		if text == want {
			return "", true
		}
		if rest, ok := strings.CutPrefix(text, want+" "); ok {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// HasAnnotation reports whether the comment group carries
// "//optiql:<name>".
func HasAnnotation(cg *ast.CommentGroup, name string) bool {
	_, ok := Annotation(cg, name)
	return ok
}

// CalleeFunc resolves the *types.Func a call invokes (method or
// function, through interfaces too), or nil for builtins, conversions
// and indirect calls through function values.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// IsLockPkg reports whether pkg is the lock-protocol package. It is
// matched by *name* (not path), so calls into the stub package under
// testdata take the same path through the analyzers as calls into
// optiql/internal/locks.
func IsLockPkg(pkg *types.Package) bool {
	return pkg != nil && pkg.Name() == "locks"
}

// LockCall is the one recogniser of the lock protocol: it returns the
// name of the locks-package function or method the call invokes
// ("AcquireSh", "Upgrade", "BumpOnReuse", ...), or "" for any other
// call.
func LockCall(info *types.Info, call *ast.CallExpr) string {
	fn := CalleeFunc(info, call)
	if fn == nil || !IsLockPkg(fn.Pkg()) {
		return ""
	}
	return fn.Name()
}

// IsPkgFunc reports whether the call invokes a function or method
// named one of names that is declared in a package whose *name* (not
// path) is pkgName, as LockCall does for the lock protocol.
func IsPkgFunc(info *types.Info, call *ast.CallExpr, pkgName string, names ...string) bool {
	fn := CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Name() != pkgName {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// BuiltinName returns the name of the builtin a call invokes ("make",
// "new", "append", ...) or "".
func BuiltinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// EnclosingFuncName names the innermost enclosing function of the
// stack for diagnostics: "Lookup", "Tree.Scan" or "func literal".
func EnclosingFuncName(stack []ast.Node) string {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncLit:
			return "func literal"
		case *ast.FuncDecl:
			if fn.Recv != nil && len(fn.Recv.List) > 0 {
				if name := recvTypeName(fn.Recv.List[0].Type); name != "" {
					return name + "." + fn.Name.Name
				}
			}
			return fn.Name.Name
		}
	}
	return "package scope"
}

func recvTypeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr:
		return recvTypeName(t.X)
	case *ast.IndexListExpr:
		return recvTypeName(t.X)
	}
	return ""
}

// LineOf returns the 1-based line of pos.
func LineOf(fset *token.FileSet, pos token.Pos) int {
	return fset.Position(pos).Line
}
