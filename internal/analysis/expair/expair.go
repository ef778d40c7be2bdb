// Package expair enforces exclusive lock pairing: every token
// obtained from a locks-package AcquireEx (or a successful Upgrade)
// must reach a ReleaseEx on every path out of the function — returns,
// gotos (the restart idiom re-enters and re-acquires) and explicit
// panics alike. Split/merge/recycle paths depend on this: a node must
// be exclusively released before it enters the recycler, or its next
// life deadlocks.
//
// The analysis is an intraprocedural abstract interpretation over the
// set of held token variables:
//
//   - `tok := x.AcquireEx(c)` adds tok to the held set; discarding
//     the token outright is reported immediately (it can never be
//     released).
//   - `x.ReleaseEx(c, tok)` (directly or deferred) removes it.
//   - A token that escapes — stored into a composite literal or
//     another variable, passed to a call, returned — transfers
//     custody and leaves the tracked set (this is how the B+-tree's
//     pessimistic SMO stack works); CloseWindow and Upgrade uses do
//     not count as escapes.
//   - `if tok, ok = x.Upgrade(c, tok); ok` promotes tok to
//     exclusively-held in the branch where the upgrade succeeded
//     (shcheck rejects every other way of consuming Upgrade).
//
// Branches are analyzed independently and joined by union (held in
// any continuing branch counts as held); loop bodies are checked for
// per-iteration leaks. Soundness gaps: custody transfer is trusted,
// not verified, and the join is path-insensitive (see DESIGN.md §10).
package expair

import (
	"go/ast"
	"go/token"
	"go/types"

	"optiql/internal/analysis"
)

// Analyzer is the expair pass.
var Analyzer = &analysis.Analyzer{
	Name: "expair",
	Doc:  "every AcquireEx/successful-Upgrade token must be ReleaseEx'd on all return, goto and panic paths",
	Run:  run,
}

const lockPkgName = "locks"

func run(pass *analysis.Pass) error {
	if pass.Pkg != nil && pass.Pkg.Name() == lockPkgName {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					(&checker{pass: pass}).checkFunc(fn.Body)
				}
			case *ast.FuncLit:
				// Each literal is its own scope of custody; nested
				// literals are reached by the continued traversal.
				(&checker{pass: pass}).checkFunc(fn.Body)
			}
			return true
		})
	}
	return nil
}

// state is the abstract value: which token variables are exclusively
// held, keyed by their types object.
type state struct {
	held map[types.Object]token.Pos
}

func newState() *state { return &state{held: make(map[types.Object]token.Pos)} }

func (s *state) clone() *state {
	c := newState()
	for k, v := range s.held {
		c.held[k] = v
	}
	return c
}

// union folds o's held set into s.
func (s *state) union(o *state) {
	for k, v := range o.held {
		if _, ok := s.held[k]; !ok {
			s.held[k] = v
		}
	}
}

type checker struct {
	pass *analysis.Pass
}

func (c *checker) checkFunc(body *ast.BlockStmt) {
	st := newState()
	// Fallthrough off the end of the function is an implicit return;
	// if the body provably terminates (every branch returned, jumped
	// or panicked) the residual state is unreachable and each exit
	// already checked itself.
	if !c.execList(body.List, st) {
		c.requireEmpty(st, body.End(), "function end")
	}
}

func (c *checker) info() *types.Info { return c.pass.Info }

// requireEmpty reports every still-held token at an exit point and
// clears the state so each leak is reported once per path.
func (c *checker) requireEmpty(st *state, pos token.Pos, where string) {
	for obj, acq := range st.held {
		c.pass.Reportf(pos, "exclusive token %q (AcquireEx at line %d) is not released on this path (%s)",
			obj.Name(), analysis.LineOf(c.pass.Fset, acq), where)
		delete(st.held, obj)
	}
}

// execList interprets a statement list; it returns true if the list
// terminates (return/goto/panic/branch) rather than falling through.
func (c *checker) execList(list []ast.Stmt, st *state) bool {
	for _, s := range list {
		if c.exec(s, st) {
			return true
		}
	}
	return false
}

func (c *checker) exec(s ast.Stmt, st *state) (terminated bool) {
	switch stmt := s.(type) {
	case *ast.AssignStmt:
		c.execAssign(stmt, st)
	case *ast.DeclStmt:
		if gd, ok := stmt.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					c.execValueSpec(vs, st)
				}
			}
		}
	case *ast.ExprStmt:
		if call, ok := stmt.X.(*ast.CallExpr); ok {
			if c.isRelease(call) {
				c.applyRelease(call, st)
				return false
			}
			if analysis.IsPkgFunc(c.info(), call, lockPkgName, "AcquireEx") {
				c.pass.Reportf(call.Pos(), "AcquireEx token discarded; it can never be released")
				return false
			}
			if c.isPanic(call) {
				c.escapes(stmt, st)
				c.requireEmpty(st, call.Pos(), "panic")
				return true
			}
		}
		c.escapes(stmt, st)
	case *ast.DeferStmt:
		// A deferred release (directly or inside a func literal)
		// covers every path out of the function.
		found := false
		ast.Inspect(stmt.Call, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && c.isRelease(call) {
				c.applyRelease(call, st)
				found = true
			}
			return true
		})
		if !found {
			c.escapes(stmt, st)
		}
	case *ast.GoStmt:
		c.escapes(stmt, st)
	case *ast.ReturnStmt:
		c.escapes(stmt, st) // returned tokens transfer custody
		c.requireEmpty(st, stmt.Pos(), "return")
		return true
	case *ast.BranchStmt:
		if stmt.Tok == token.GOTO {
			// The restart idiom jumps back and re-acquires: anything
			// still held here leaks (and deadlocks queue locks).
			c.requireEmpty(st, stmt.Pos(), "goto "+labelName(stmt))
		}
		return true
	case *ast.IfStmt:
		return c.execIf(stmt, st)
	case *ast.SwitchStmt:
		if stmt.Init != nil {
			c.exec(stmt.Init, st)
		}
		c.escapes(stmt.Tag, st)
		return c.execClauses(clauseBodies(stmt.Body), hasDefault(stmt.Body), st)
	case *ast.TypeSwitchStmt:
		if stmt.Init != nil {
			c.exec(stmt.Init, st)
		}
		return c.execClauses(clauseBodies(stmt.Body), hasDefault(stmt.Body), st)
	case *ast.SelectStmt:
		return c.execClauses(clauseBodies(stmt.Body), true, st)
	case *ast.ForStmt:
		if stmt.Init != nil {
			c.exec(stmt.Init, st)
		}
		c.escapes(stmt.Cond, st)
		c.execLoopBody(stmt.Body, st)
		if stmt.Cond == nil && !hasLoopBreak(stmt.Body) {
			// `for {}` with no break never falls through (the ART
			// descent loop); the state after it is unreachable.
			return true
		}
	case *ast.RangeStmt:
		c.escapes(stmt.X, st)
		c.execLoopBody(stmt.Body, st)
	case *ast.BlockStmt:
		return c.execList(stmt.List, st)
	case *ast.LabeledStmt:
		return c.exec(stmt.Stmt, st)
	default:
		c.escapes(s, st)
	}
	return false
}

func labelName(b *ast.BranchStmt) string {
	if b.Label != nil {
		return b.Label.Name
	}
	return ""
}

func (c *checker) execAssign(stmt *ast.AssignStmt, st *state) {
	// tok := x.AcquireEx(c)
	if len(stmt.Rhs) == 1 {
		if call, ok := stmt.Rhs[0].(*ast.CallExpr); ok && analysis.IsPkgFunc(c.info(), call, lockPkgName, "AcquireEx") {
			c.escapes(call, st) // args first (paranoia)
			if len(stmt.Lhs) == 1 {
				if id, ok := stmt.Lhs[0].(*ast.Ident); ok {
					if id.Name == "_" {
						c.pass.Reportf(call.Pos(), "AcquireEx token assigned to blank; it can never be released")
						return
					}
					if obj := c.lhsObj(id); obj != nil {
						st.held[obj] = call.Pos()
						return
					}
				}
			}
			// Stored into a field or element (`h.tok = ...`): custody
			// transfers to the structure's owner — the held-stack idiom
			// the pessimistic SMO paths use.
			for _, lhs := range stmt.Lhs {
				c.escapes(lhs, st)
			}
			return
		}
	}
	// Generic assignment: every held token read on the RHS (or
	// overwritten on the LHS) escapes custody tracking.
	for _, e := range stmt.Rhs {
		c.escapes(e, st)
	}
	for _, e := range stmt.Lhs {
		if id, ok := e.(*ast.Ident); ok {
			if obj := c.lhsObj(id); obj != nil {
				delete(st.held, obj) // overwritten
			}
			continue
		}
		c.escapes(e, st)
	}
}

func (c *checker) execValueSpec(vs *ast.ValueSpec, st *state) {
	for i, v := range vs.Values {
		if call, ok := v.(*ast.CallExpr); ok && analysis.IsPkgFunc(c.info(), call, lockPkgName, "AcquireEx") && i < len(vs.Names) {
			if obj := c.info().Defs[vs.Names[i]]; obj != nil {
				st.held[obj] = call.Pos()
				continue
			}
		}
		c.escapes(v, st)
	}
}

func (c *checker) execIf(stmt *ast.IfStmt, st *state) bool {
	if stmt.Init != nil {
		c.exec(stmt.Init, st)
	}
	thenSt := st.clone()
	elseSt := st.clone()
	// Upgrade promotion: `if tok, ok = x.Upgrade(c, tok); ok` holds tok
	// in the then-branch; with `!ok` it is held on the fallthrough/else
	// side.
	if tok, pos, negated, ok := c.upgradeCond(stmt); ok {
		if negated {
			elseSt.held[tok] = pos
		} else {
			thenSt.held[tok] = pos
		}
	} else {
		c.escapes(stmt.Cond, st)
		thenSt, elseSt = st.clone(), st.clone()
	}
	thenTerm := c.execList(stmt.Body.List, thenSt)
	elseTerm := false
	if stmt.Else != nil {
		elseTerm = c.exec(stmt.Else, elseSt)
	}
	// Join the continuing branches.
	switch {
	case thenTerm && elseTerm:
		return true
	case thenTerm:
		*st = *elseSt
	case elseTerm:
		*st = *thenSt
	default:
		*st = *thenSt
		st.union(elseSt)
	}
	return false
}

// upgradeCond matches `if tok, ok = x.Upgrade(c, tok); ok` (or `!ok`,
// `:=`, parentheses), returning the token object that receives the
// upgraded token and whether the condition is negated.
func (c *checker) upgradeCond(stmt *ast.IfStmt) (types.Object, token.Pos, bool, bool) {
	asg, ok := stmt.Init.(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 2 || len(asg.Rhs) != 1 {
		return nil, token.NoPos, false, false
	}
	call, ok := ast.Unparen(asg.Rhs[0]).(*ast.CallExpr)
	if !ok || !analysis.IsPkgFunc(c.info(), call, lockPkgName, "Upgrade") {
		return nil, token.NoPos, false, false
	}
	tokID, ok1 := asg.Lhs[0].(*ast.Ident)
	flagID, ok2 := asg.Lhs[1].(*ast.Ident)
	if !ok1 || !ok2 {
		return nil, token.NoPos, false, false
	}
	negated := false
	e := ast.Unparen(stmt.Cond)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		negated = true
		e = ast.Unparen(u.X)
	}
	cond, ok := e.(*ast.Ident)
	if !ok || c.info().Uses[cond] == nil || c.info().Uses[cond] != c.lhsObj(flagID) {
		return nil, token.NoPos, false, false
	}
	if obj := c.lhsObj(tokID); obj != nil {
		return obj, call.Pos(), negated, true
	}
	return nil, token.NoPos, false, false
}

func (c *checker) execClauses(bodies [][]ast.Stmt, exhaustive bool, st *state) bool {
	if len(bodies) == 0 {
		return false
	}
	var joined *state
	allTerm := true
	for _, body := range bodies {
		bst := st.clone()
		if !c.execList(body, bst) {
			allTerm = false
			if joined == nil {
				joined = bst
			} else {
				joined.union(bst)
			}
		}
	}
	if !exhaustive {
		// No default: the switch may fall through unchanged.
		allTerm = false
		if joined == nil {
			joined = st.clone()
		} else {
			joined.union(st)
		}
	}
	if allTerm {
		return true
	}
	*st = *joined
	return false
}

// execLoopBody checks a loop body for per-iteration leaks: a token
// acquired inside the body that is still held when the back edge is
// reached leaks once per iteration.
func (c *checker) execLoopBody(body *ast.BlockStmt, st *state) {
	entry := st.clone()
	bst := st.clone()
	terminated := c.execList(body.List, bst)
	if !terminated {
		for obj, acq := range bst.held {
			if _, pre := entry.held[obj]; !pre {
				c.pass.Reportf(acq, "exclusive token %q acquired inside the loop is still held at the loop's back edge (leaks once per iteration)", obj.Name())
			}
		}
	}
	// After the loop, be conservative: keep the entry view (the body
	// may have run zero times).
	*st = *entry
}

// hasLoopBreak reports whether the loop body contains a break that
// can exit the loop: an unlabeled break not bound to a nested
// loop/switch/select, or any labeled break (conservatively assumed to
// target this loop).
func hasLoopBreak(body *ast.BlockStmt) bool {
	found := false
	analysis.WalkStack(body, func(n ast.Node, stack []ast.Node) bool {
		if found {
			return false
		}
		br, ok := n.(*ast.BranchStmt)
		if !ok || br.Tok != token.BREAK {
			return true
		}
		if br.Label != nil {
			found = true
			return false
		}
		for i := len(stack) - 1; i >= 0; i-- {
			switch stack[i].(type) {
			case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.FuncLit:
				return true // bound to the nested breakable statement
			}
		}
		found = true
		return false
	})
	return found
}

func (c *checker) isRelease(call *ast.CallExpr) bool {
	return analysis.IsPkgFunc(c.info(), call, lockPkgName, "ReleaseEx")
}

func (c *checker) isPanic(call *ast.CallExpr) bool {
	return analysis.BuiltinName(c.info(), call) == "panic"
}

// applyRelease removes the released token variable from the held set.
func (c *checker) applyRelease(call *ast.CallExpr, st *state) {
	for _, arg := range call.Args {
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
			if obj := c.info().Uses[id]; obj != nil {
				delete(st.held, obj)
			}
		}
	}
}

// lhsObj resolves an assignment target identifier.
func (c *checker) lhsObj(id *ast.Ident) types.Object {
	if obj := c.info().Defs[id]; obj != nil {
		return obj
	}
	return c.info().Uses[id]
}

// escapes scans an arbitrary node for reads of held token variables;
// any such use outside a ReleaseEx/CloseWindow/Upgrade transfers
// custody and stops tracking.
func (c *checker) escapes(n ast.Node, st *state) {
	if n == nil || len(st.held) == 0 {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			if analysis.IsPkgFunc(c.info(), call, lockPkgName, "ReleaseEx", "CloseWindow", "Upgrade") {
				return false // uses inside these keep custody here
			}
		}
		if id, ok := m.(*ast.Ident); ok {
			if obj := c.info().Uses[id]; obj != nil {
				delete(st.held, obj)
			}
		}
		return true
	})
}

func clauseBodies(body *ast.BlockStmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	for _, s := range body.List {
		switch cl := s.(type) {
		case *ast.CaseClause:
			out = append(out, cl.Body)
		case *ast.CommClause:
			out = append(out, cl.Body)
		}
	}
	return out
}

func hasDefault(body *ast.BlockStmt) bool {
	for _, s := range body.List {
		if cl, ok := s.(*ast.CaseClause); ok && cl.List == nil {
			return true
		}
	}
	return false
}
