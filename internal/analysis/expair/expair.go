// Package expair enforces exclusive lock pairing: every token
// obtained from a locks-package AcquireEx (or a successful Upgrade)
// must reach a ReleaseEx on every path out of the function — returns,
// gotos (the restart idiom re-enters and re-acquires) and explicit
// panics alike. Split/merge/recycle paths depend on this: a node must
// be exclusively released before it enters the recycler, or its next
// life deadlocks.
//
// The analysis is a forward dataflow problem on the cfg package's
// graph of each function body, over the set of held token variables:
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
//   - `if tok, ok = x.Upgrade(c, tok); ok` adds tok on the edge where
//     the upgrade succeeded (shcheck rejects every other way of
//     consuming Upgrade).
//
// Paths join by union (held on any incoming path counts as held). The
// set must be empty at every return, goto and panic and at the
// function's end, and a loop back edge must not carry a token acquired
// inside that loop (it leaks once per iteration); break and continue
// are ordinary edges. Soundness gaps: custody transfer is trusted, not
// verified, and the join is path-insensitive (see DESIGN.md §10).
package expair

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"

	"optiql/internal/analysis"
	"optiql/internal/analysis/cfg"
)

// Analyzer is the expair pass.
var Analyzer = &analysis.Analyzer{
	Name: "expair",
	Doc:  "every AcquireEx/successful-Upgrade token must be ReleaseEx'd on all return, goto and panic paths",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if analysis.IsLockPkg(pass.Pkg) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkFunc(pass, fn.Body)
				}
			case *ast.FuncLit:
				// Each literal is its own scope of custody; nested
				// literals are reached by the continued traversal.
				checkFunc(pass, fn.Body)
			}
			return true
		})
	}
	return nil
}

// held is the dataflow state: the exclusively held token variables,
// each with the position that acquired it. States are never mutated
// once handed to the solver.
type held map[types.Object]token.Pos

// upgrade is the token an `if tok, ok = x.Upgrade(c, tok); ok`
// condition holds on its success edge.
type upgrade struct {
	tok     types.Object
	pos     token.Pos
	negated bool
}

// checker is the cfg.LoopProblem for one function body.
type checker struct {
	pass     *analysis.Pass
	upgrades map[ast.Expr]upgrade // keyed by the if's condition
	// emit turns reporting on for the replay of the fixpoint.
	emit     bool
	reported map[token.Pos]bool
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	c := &checker{pass: pass, upgrades: make(map[ast.Expr]upgrade), reported: make(map[token.Pos]bool)}
	if !c.scan(body) {
		return
	}
	g := cfg.Build(body)
	in := cfg.Solve(g, c)
	c.emit = true
	cfg.Replay(g, c, in)
	// Falling off the end is an implicit return. Exit is absent when the
	// body never gets there (every path returned, or looped for ever).
	if st, ok := in[g.Exit]; ok {
		c.leak(st.(held), body.End(), "function end")
	}
}

// scan records the body's upgrade conditions and reports whether it
// can acquire an exclusive token at all; bodies that cannot are
// skipped.
func (c *checker) scan(body *ast.BlockStmt) bool {
	acquires := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			switch analysis.LockCall(c.pass.Info, n) {
			case "AcquireEx", "Upgrade":
				acquires = true
			}
		case *ast.IfStmt:
			if u, ok := c.upgradeCond(n); ok {
				c.upgrades[n.Cond] = u
			}
		}
		return true
	})
	return acquires
}

func (c *checker) Entry() cfg.State { return held{} }

func (c *checker) Transfer(n ast.Node, s cfg.State) cfg.State {
	st := maps.Clone(s.(held))
	switch n := n.(type) {
	case *ast.AssignStmt:
		c.assign(n.Lhs, n.Rhs, st)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, id := range vs.Names {
						lhs[i] = id
					}
					c.assign(lhs, vs.Values, st)
				}
			}
		}
	case *ast.ExprStmt:
		call, ok := n.X.(*ast.CallExpr)
		if !ok {
			c.escapes(n, st)
			break
		}
		switch analysis.LockCall(c.pass.Info, call) {
		case "ReleaseEx":
			c.release(call, st)
		case "AcquireEx":
			c.report(call.Pos(), "AcquireEx token discarded; it can never be released")
		default:
			c.escapes(n, st)
			if analysis.BuiltinName(c.pass.Info, call) == "panic" {
				return c.leak(st, call.Pos(), "panic")
			}
		}
	case *ast.DeferStmt:
		// A deferred release (directly or inside a func literal) covers
		// every path out of the function.
		found := false
		ast.Inspect(n.Call, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok && analysis.LockCall(c.pass.Info, call) == "ReleaseEx" {
				c.release(call, st)
				found = true
			}
			return true
		})
		if !found {
			c.escapes(n, st)
		}
	case *ast.ReturnStmt:
		c.escapes(n, st) // returned tokens transfer custody
		return c.leak(st, n.Pos(), "return")
	case *ast.BranchStmt:
		if n.Tok == token.GOTO {
			// The restart idiom jumps back and re-acquires: anything
			// still held here leaks (and deadlocks queue locks).
			return c.leak(st, n.Pos(), "goto "+n.Label.Name)
		}
	case *ast.SwitchStmt:
		c.escapes(n.Tag, st) // the clauses are blocks of their own
	case *ast.TypeSwitchStmt:
		c.escapes(n.Assign, st)
	case *ast.RangeStmt:
		c.escapes(n.X, st)
	case *ast.SelectStmt:
	default:
		c.escapes(n, st)
	}
	return st
}

// Branch holds the upgraded token on the edge where Upgrade succeeded.
func (c *checker) Branch(cond ast.Expr, truth bool, s cfg.State) cfg.State {
	u, ok := c.upgrades[cond]
	if !ok || truth == u.negated {
		return s
	}
	st := maps.Clone(s.(held))
	st[u.tok] = u.pos
	return st
}

// BackEdge reports the tokens acquired inside loop that are still held
// when a path re-enters it, and drops them so the leak is reported
// once.
func (c *checker) BackEdge(loop ast.Stmt, s cfg.State) cfg.State {
	st := s.(held)
	var out held
	for obj, acq := range st {
		if acq < loop.Pos() || acq >= loop.End() {
			continue
		}
		if c.emit && !c.reported[acq] {
			c.reported[acq] = true
			c.pass.Reportf(acq, "exclusive token %q acquired inside the loop is still held at the loop's back edge (leaks once per iteration)", obj.Name())
		}
		if out == nil {
			out = maps.Clone(st)
		}
		delete(out, obj)
	}
	if out == nil {
		return s
	}
	return out
}

func (c *checker) Join(a, b cfg.State) cfg.State {
	out := maps.Clone(a.(held))
	for k, v := range b.(held) {
		if _, ok := out[k]; !ok {
			out[k] = v
		}
	}
	return out
}

func (c *checker) Equal(a, b cfg.State) bool { return maps.Equal(a.(held), b.(held)) }

func (c *checker) report(pos token.Pos, format string, args ...any) {
	if c.emit {
		c.pass.Reportf(pos, format, args...)
	}
}

// leak reports every still-held token at an exit point and returns the
// empty set, so each leak is reported once per path.
func (c *checker) leak(st held, pos token.Pos, where string) held {
	for obj, acq := range st {
		c.report(pos, "exclusive token %q (AcquireEx at line %d) is not released on this path (%s)",
			obj.Name(), analysis.LineOf(c.pass.Fset, acq), where)
	}
	return held{}
}

func (c *checker) assign(lhs, rhs []ast.Expr, st held) {
	// Every held token read on the right, or overwritten on the left,
	// escapes custody tracking. A token stored into a field or element
	// (`h.tok = ...`) goes to the structure's owner: the held-stack
	// idiom of the pessimistic SMO paths.
	for _, e := range rhs {
		c.escapes(e, st)
	}
	for _, e := range lhs {
		if id, ok := e.(*ast.Ident); ok {
			delete(st, c.pass.Info.ObjectOf(id))
		} else {
			c.escapes(e, st)
		}
	}
	if len(lhs) != len(rhs) {
		return
	}
	// tok := x.AcquireEx(c), or var tok = x.AcquireEx(c)
	for i, e := range rhs {
		call, ok := e.(*ast.CallExpr)
		id, isID := lhs[i].(*ast.Ident)
		switch {
		case !ok || !isID || analysis.LockCall(c.pass.Info, call) != "AcquireEx":
		case id.Name == "_":
			c.report(call.Pos(), "AcquireEx token assigned to blank; it can never be released")
		case c.pass.Info.ObjectOf(id) != nil:
			st[c.pass.Info.ObjectOf(id)] = call.Pos()
		}
	}
}

// upgradeCond matches `if tok, ok = x.Upgrade(c, tok); ok` (or `!ok`,
// `:=`, parentheses), returning the token object that receives the
// upgraded token and whether the condition is negated.
func (c *checker) upgradeCond(stmt *ast.IfStmt) (upgrade, bool) {
	asg, ok := stmt.Init.(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 2 || len(asg.Rhs) != 1 {
		return upgrade{}, false
	}
	call, ok := ast.Unparen(asg.Rhs[0]).(*ast.CallExpr)
	if !ok || analysis.LockCall(c.pass.Info, call) != "Upgrade" {
		return upgrade{}, false
	}
	tokID, ok1 := asg.Lhs[0].(*ast.Ident)
	flagID, ok2 := asg.Lhs[1].(*ast.Ident)
	if !ok1 || !ok2 {
		return upgrade{}, false
	}
	negated := false
	e := ast.Unparen(stmt.Cond)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		negated = true
		e = ast.Unparen(u.X)
	}
	cond, ok := e.(*ast.Ident)
	if !ok || c.pass.Info.Uses[cond] == nil || c.pass.Info.Uses[cond] != c.pass.Info.ObjectOf(flagID) {
		return upgrade{}, false
	}
	if obj := c.pass.Info.ObjectOf(tokID); obj != nil {
		return upgrade{tok: obj, pos: call.Pos(), negated: negated}, true
	}
	return upgrade{}, false
}

// release removes the released token variable from the held set.
func (c *checker) release(call *ast.CallExpr, st held) {
	for _, arg := range call.Args {
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
			if obj := c.pass.Info.Uses[id]; obj != nil {
				delete(st, obj)
			}
		}
	}
}

// escapes scans an arbitrary node for reads of held token variables;
// any such use outside a ReleaseEx/CloseWindow/Upgrade transfers
// custody and stops tracking.
func (c *checker) escapes(n ast.Node, st held) {
	if n == nil || len(st) == 0 {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			switch analysis.LockCall(c.pass.Info, call) {
			case "ReleaseEx", "CloseWindow", "Upgrade":
				return false // uses inside these keep custody here
			}
		}
		if id, ok := m.(*ast.Ident); ok {
			if obj := c.pass.Info.Uses[id]; obj != nil {
				delete(st, obj)
			}
		}
		return true
	})
}
