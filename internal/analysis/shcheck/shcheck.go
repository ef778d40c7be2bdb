// Package shcheck enforces the optimistic-read validation protocol
// (paper Alg 4 / §6.1): a datum read under an optimistic AcquireSh
// token may only be trusted after the matching ReleaseSh validation
// has been checked.
//
// Concretely, for every call to a locks-package AcquireSh, ReleaseSh
// or Upgrade (matched by package *name* so the testdata stubs
// exercise the same code paths):
//
//   - AcquireSh must be consumed as `tok, ok := x.AcquireSh(c)` and
//     the ok flag must be branched on somewhere in the function;
//     discarding it (blank identifier, bare expression statement)
//     admits unvalidated reads.
//   - ReleaseSh's boolean must flow into control flow: a branch
//     condition, an assigned variable that is later branched on or
//     returned, a return value, or a call argument. Discarding it as
//     a bare statement is allowed only on restart cleanup paths —
//     when the statement (possibly through a chain of further cleanup
//     releases) is directly followed by a goto/continue/break, so no
//     value read under the token can escape. Discard-then-return is
//     flagged: returns can leak token-protected reads.
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
)

// Analyzer is the shcheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "shcheck",
	Doc:  "optimistic AcquireSh/ReleaseSh results must gate every read made under the token",
	Run:  run,
}

const lockPkgName = "locks"

func run(pass *analysis.Pass) error {
	if pass.Pkg != nil && pass.Pkg.Name() == lockPkgName {
		// The locks package implements the primitives; its internals
		// manipulate lock words, not tokens-under-protocol.
		return nil
	}
	for _, f := range pass.Files {
		analysis.WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch {
			case analysis.IsPkgFunc(pass.Info, call, lockPkgName, "AcquireSh"):
				checkAcquireSh(pass, call, stack)
			case analysis.IsPkgFunc(pass.Info, call, lockPkgName, "ReleaseSh"):
				checkReleaseSh(pass, call, stack)
			case analysis.IsPkgFunc(pass.Info, call, lockPkgName, "Upgrade"):
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

func checkReleaseSh(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node) {
	if len(stack) == 0 {
		return
	}
	parent := stack[len(stack)-1]
	switch p := parent.(type) {
	case *ast.ExprStmt:
		if !followedByJump(pass, p, stack[:len(stack)-1]) {
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
	if usedAsControl(pass, call, stack) {
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
	obj := pass.Info.Defs[flag]
	if obj == nil {
		obj = pass.Info.Uses[flag]
	}
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

// usedAsControl reports whether the call expression's value flows
// into control flow or escapes: it sits (possibly under !,&&,|| or
// parentheses) in an if/for/switch condition, a return statement, or
// a call argument.
func usedAsControl(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node) bool {
	child := ast.Node(call)
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr, *ast.UnaryExpr, *ast.BinaryExpr:
			child = p
			continue
		case *ast.IfStmt:
			return p.Cond == child
		case *ast.ForStmt:
			return p.Cond == child
		case *ast.SwitchStmt:
			return true
		case *ast.CaseClause:
			return true
		case *ast.ReturnStmt:
			return true
		case *ast.CallExpr:
			// Argument to another call: the callee takes custody.
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
	body := enclosingFunc(stack)
	if body == nil {
		return true
	}
	obj := pass.Info.Defs[id]
	if obj == nil {
		obj = pass.Info.Uses[id]
	}
	if obj == nil {
		return true // unresolved; don't guess
	}
	found := false
	analysis.WalkStack(body, func(n ast.Node, st []ast.Node) bool {
		if found {
			return false
		}
		use, ok := n.(*ast.Ident)
		if !ok || use == id || pass.Info.Uses[use] != obj {
			return true
		}
		// Is this use inside a condition, return or call?
		child := ast.Node(use)
		for i := len(st) - 1; i >= 0; i-- {
			switch p := st[i].(type) {
			case *ast.ParenExpr, *ast.UnaryExpr, *ast.BinaryExpr:
				child = p
				continue
			case *ast.IfStmt:
				if p.Cond == child {
					found = true
				}
			case *ast.ForStmt:
				if p.Cond == child {
					found = true
				}
			case *ast.SwitchStmt, *ast.CaseClause, *ast.ReturnStmt, *ast.CallExpr:
				found = true
			}
			break
		}
		return true
	})
	return found
}

// followedByJump reports whether control after stmt (a bare ReleaseSh
// statement) provably leaves the enclosing operation through a
// goto/continue/break — the restart idiom — passing only through
// further cleanup statements. It walks outward through the statement
// lists of the enclosing blocks; reaching a return, a loop's back
// edge or the function end means token-protected data could escape.
func followedByJump(pass *analysis.Pass, stmt ast.Stmt, stack []ast.Node) bool {
	self := ast.Node(stmt)
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.BlockStmt:
			if decided, jump := scanList(pass, p.List, self); decided {
				return jump
			}
			self = p
		case *ast.CaseClause:
			if decided, jump := scanList(pass, p.Body, self); decided {
				return jump
			}
			self = p
		case *ast.CommClause:
			if decided, jump := scanList(pass, p.Body, self); decided {
				return jump
			}
			self = p
		case *ast.IfStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.LabeledStmt:
			// Fell out of a branch: control continues after it.
			self = p.(ast.Node)
		case *ast.ForStmt, *ast.RangeStmt:
			return false // loop back edge: the token may be read again
		case *ast.FuncDecl, *ast.FuncLit:
			return false // implicit return
		default:
			return false
		}
	}
	return false
}

// scanList scans the statements after self in list: cleanup
// statements are skipped, the first significant one decides, an
// exhausted list leaves the decision to the enclosing context.
func scanList(pass *analysis.Pass, list []ast.Stmt, self ast.Node) (decided, jump bool) {
	idx := -1
	for j, s := range list {
		if ast.Node(s) == self {
			idx = j
			break
		}
	}
	if idx < 0 {
		return true, false // self not directly in this list: lost track, be strict
	}
	for _, s := range list[idx+1:] {
		if isCleanup(pass, s) {
			continue
		}
		if j, ok := s.(*ast.BranchStmt); ok {
			t := j.Tok.String()
			return true, t == "goto" || t == "continue" || t == "break"
		}
		return true, false
	}
	return false, false
}

// isCleanup recognizes the statements a restart path may pass
// through after a discarded ReleaseSh: further lock releases (shared
// or exclusive) and conditional blocks containing only those.
func isCleanup(pass *analysis.Pass, s ast.Stmt) bool {
	switch st := s.(type) {
	case *ast.ExprStmt:
		call, ok := st.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		return analysis.IsPkgFunc(pass.Info, call, lockPkgName, "ReleaseSh", "ReleaseEx", "CloseWindow")
	case *ast.IfStmt:
		if st.Else != nil || st.Init != nil {
			return false
		}
		for _, inner := range st.Body.List {
			if !isCleanup(pass, inner) {
				return false
			}
		}
		return len(st.Body.List) > 0
	}
	return false
}
