// Package shcheck enforces the optimistic-read validation protocol
// (paper Alg 4 / §6.1): a datum read under an optimistic AcquireSh
// token may only be trusted after the matching ReleaseSh validation
// has been checked.
//
// Concretely, for every call to a locks-package AcquireSh, ReleaseSh
// or Upgrade (as analysis.LockCall recognises them):
//
//   - AcquireSh must be consumed as `tok, ok := x.AcquireSh(c)` and
//     the ok flag must be branched on somewhere in the function;
//     discarding it (blank identifier, bare expression statement)
//     admits unvalidated reads.
//   - ReleaseSh's boolean must flow into control flow: a branch
//     condition, an assigned variable that is later branched on or
//     returned, a return value, or a call argument. Discarding it as
//     a bare statement is allowed only on restart paths: every path
//     from it through the function's control-flow graph, passing only
//     further cleanup releases, must take a loop back edge (a
//     continue, the end of a loop body, a goto retry), so no value
//     read under the token can escape. Break, falling out and return
//     are not restarts.
//   - A deferred ReleaseSh discards the validation result by
//     construction and is flagged (pessimistic-only paths document
//     themselves with an optiqlvet:ignore directive).
//   - Upgrade's flag must be branched on where it is produced, as
//     `if tok, ok = x.Upgrade(c, tok); ok` (or `!ok`): an unchecked
//     upgrade continues as if it held the lock exclusively, and this
//     one shape is what expair follows into the exclusive hold.
//     Returning both results passes the obligation to the caller.
//
// Soundness gaps (documented in DESIGN.md §10): the check is
// per-function and name-based; tokens passed across function
// boundaries are trusted, and "branched on somewhere" does not prove
// the branch dominates every escaping read.
package shcheck

import (
	"go/ast"

	"optiql/internal/analysis"
	"optiql/internal/analysis/cfg"
)

// Analyzer is the shcheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "shcheck",
	Doc:  "optimistic AcquireSh/ReleaseSh results must gate every read made under the token",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if analysis.IsLockPkg(pass.Pkg) {
		// The locks package implements the primitives; its internals
		// manipulate lock words, not tokens-under-protocol.
		return nil
	}
	graphs := make(map[*ast.BlockStmt]*cfg.Graph)
	for _, f := range pass.Files {
		analysis.WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch analysis.LockCall(pass.Info, call) {
			case "AcquireSh":
				checkAcquireSh(pass, call, stack)
			case "ReleaseSh":
				checkReleaseSh(pass, call, stack, graphs)
			case "Upgrade":
				checkUpgrade(pass, call, stack)
			}
			return true
		})
	}
	return nil
}

// enclosingFunc returns the body of the innermost function in the
// stack.
func enclosingFunc(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncLit:
			return fn.Body
		case *ast.FuncDecl:
			return fn.Body
		}
	}
	return nil
}

func checkAcquireSh(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node) {
	// Expect: tok, ok := x.AcquireSh(c) (possibly as an if/for init).
	asg := parentAssign(stack)
	if asg == nil || len(asg.Lhs) != 2 || len(asg.Rhs) != 1 {
		pass.Reportf(call.Pos(), "optimistic AcquireSh must be consumed as `tok, ok := ...` so the admission flag is checked (in %s)", analysis.EnclosingFuncName(stack))
		return
	}
	okIdent, ok := asg.Lhs[1].(*ast.Ident)
	if !ok || okIdent.Name == "_" {
		pass.Reportf(call.Pos(), "AcquireSh admission flag is discarded; an unadmitted optimistic read must not proceed (in %s)", analysis.EnclosingFuncName(stack))
		return
	}
	if !flagBranched(pass, stack, okIdent) {
		pass.Reportf(call.Pos(), "AcquireSh admission flag %q is never branched on (in %s)", okIdent.Name, analysis.EnclosingFuncName(stack))
	}
}

func checkUpgrade(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node) {
	if upgradeBranched(pass, stack) {
		return
	}
	pass.Reportf(call.Pos(), "Upgrade result must be branched on: an unchecked upgrade proceeds without holding the lock exclusively (in %s)", analysis.EnclosingFuncName(stack))
}

func checkReleaseSh(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node, graphs map[*ast.BlockStmt]*cfg.Graph) {
	if len(stack) == 0 {
		return
	}
	parent := stack[len(stack)-1]
	switch p := parent.(type) {
	case *ast.ExprStmt:
		if !restartsAfter(pass, p, enclosingFunc(stack), graphs) {
			pass.Reportf(call.Pos(), "ReleaseSh validation result discarded outside a restart path; data read under the token may escape unvalidated (in %s)", analysis.EnclosingFuncName(stack))
		}
		return
	case *ast.DeferStmt:
		pass.Reportf(call.Pos(), "deferred ReleaseSh discards the validation result (in %s)", analysis.EnclosingFuncName(stack))
		return
	case *ast.GoStmt:
		pass.Reportf(call.Pos(), "ReleaseSh in a go statement discards the validation result (in %s)", analysis.EnclosingFuncName(stack))
		return
	case *ast.AssignStmt:
		checkAssignedFlag(pass, p, call, stack)
		return
	}
	if usedAsControl(call, stack) {
		return
	}
	pass.Reportf(call.Pos(), "ReleaseSh validation result must reach a branch, return or caller (in %s)", analysis.EnclosingFuncName(stack))
}

// upgradeBranched reports whether the Upgrade call on top of stack is
// the init of an if statement whose condition reads the flag it
// assigns, or is returned whole.
func upgradeBranched(pass *analysis.Pass, stack []ast.Node) bool {
	i := len(stack) - 1
	for i >= 0 {
		if _, ok := stack[i].(*ast.ParenExpr); !ok {
			break
		}
		i--
	}
	if i < 1 {
		return false
	}
	if _, ok := stack[i].(*ast.ReturnStmt); ok {
		return true
	}
	asg, ok := stack[i].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 2 || len(asg.Rhs) != 1 {
		return false
	}
	ifs, ok := stack[i-1].(*ast.IfStmt)
	if !ok || ifs.Init != asg {
		return false
	}
	flag, ok := asg.Lhs[1].(*ast.Ident)
	if !ok || flag.Name == "_" {
		return false
	}
	obj := pass.Info.ObjectOf(flag)
	if obj == nil {
		return false
	}
	read := false
	ast.Inspect(ifs.Cond, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
			read = true
		}
		return !read
	})
	return read
}

// checkAssignedFlag handles `ok := x.ReleaseSh(c, tok)`: the assigned
// variable must later be branched on or escape via return/call.
func checkAssignedFlag(pass *analysis.Pass, asg *ast.AssignStmt, call *ast.CallExpr, stack []ast.Node) {
	if len(asg.Rhs) != 1 || len(asg.Lhs) != 1 {
		pass.Reportf(call.Pos(), "ReleaseSh result in a multi-assignment; assign and branch on it directly (in %s)", analysis.EnclosingFuncName(stack))
		return
	}
	id, ok := asg.Lhs[0].(*ast.Ident)
	if !ok || id.Name == "_" {
		pass.Reportf(call.Pos(), "ReleaseSh validation result assigned to blank; data read under the token may escape unvalidated (in %s)", analysis.EnclosingFuncName(stack))
		return
	}
	if !flagBranched(pass, stack, id) {
		pass.Reportf(call.Pos(), "ReleaseSh validation result %q is never branched on (in %s)", id.Name, analysis.EnclosingFuncName(stack))
	}
}

// usedAsControl reports whether the value of expression n (on top of
// stack) flows into control flow or escapes: it sits (possibly under
// !,&&,|| or parentheses) in an if/for/switch condition, a return
// statement, or a call argument.
func usedAsControl(n ast.Node, stack []ast.Node) bool {
	child := n
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr, *ast.UnaryExpr, *ast.BinaryExpr:
			child = p
		case *ast.IfStmt:
			return p.Cond == child
		case *ast.ForStmt:
			return p.Cond == child
		case *ast.SwitchStmt, *ast.CaseClause, *ast.ReturnStmt, *ast.CallExpr:
			// A call argument: the callee takes custody.
			return true
		default:
			return false
		}
	}
	return false
}

// parentAssign finds the AssignStmt directly consuming the call.
func parentAssign(stack []ast.Node) *ast.AssignStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			continue
		case *ast.AssignStmt:
			return p
		default:
			return nil
		}
	}
	return nil
}

// flagBranched reports whether the variable defined/assigned by id is
// read inside any branch condition, return statement, or call
// argument of the enclosing function.
func flagBranched(pass *analysis.Pass, stack []ast.Node, id *ast.Ident) bool {
	body, obj := enclosingFunc(stack), pass.Info.ObjectOf(id)
	if body == nil || obj == nil {
		return true // unresolved; don't guess
	}
	found := false
	analysis.WalkStack(body, func(n ast.Node, st []ast.Node) bool {
		if use, ok := n.(*ast.Ident); ok && use != id && pass.Info.Uses[use] == obj && usedAsControl(use, st) {
			found = true
		}
		return !found
	})
	return found
}

// restartsAfter reports whether every path from stmt (a bare
// ReleaseSh statement in body) takes a loop back edge, passing only
// cleanup on the way: the restart idiom. Reaching anything else — a
// read, a return, the function's end — means data read under the
// token could escape.
func restartsAfter(pass *analysis.Pass, stmt ast.Stmt, body *ast.BlockStmt, graphs map[*ast.BlockStmt]*cfg.Graph) bool {
	if body == nil {
		return false
	}
	g, ok := graphs[body]
	if !ok {
		g = cfg.Build(body)
		graphs[body] = g
	}
	seen := make(map[*cfg.Block]bool)
	var restarts func(blk *cfg.Block, from int) bool
	restarts = func(blk *cfg.Block, from int) bool {
		for _, n := range blk.Stmts[from:] {
			if !isCleanup(pass, blk, n) {
				return false
			}
		}
		if blk.Back != nil {
			return true
		}
		if len(blk.Succs) == 0 {
			return false // the function's exit
		}
		for _, succ := range blk.Succs {
			if !seen[succ] {
				seen[succ] = true
				if !restarts(succ, 0) {
					return false
				}
			}
		}
		return true
	}
	for _, blk := range g.Blocks {
		for i, n := range blk.Stmts {
			if n == stmt {
				return restarts(blk, i+1)
			}
		}
	}
	return false
}

// isCleanup recognizes the nodes a restart path may pass through after
// a discarded ReleaseSh: further lock releases (shared or exclusive),
// branch statements, and the condition of an if whose arms are then
// walked in turn.
func isCleanup(pass *analysis.Pass, blk *cfg.Block, n ast.Node) bool {
	switch n := n.(type) {
	case *ast.ExprStmt:
		call, ok := n.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		switch analysis.LockCall(pass.Info, call) {
		case "ReleaseSh", "ReleaseEx", "CloseWindow":
			return true
		}
	case *ast.BranchStmt:
		return true
	case ast.Expr:
		return n == blk.Cond
	}
	return false
}
