package tornread

// Branch refinement: conditional edges narrow the lattice. True edges
// of bounds comparisons clamp the compared value; nil checks promote a
// racy pointer to shared; the lock protocol's acquire/validate/upgrade
// booleans apply their transitions on the success edge.

import (
	"go/ast"
	"go/token"

	"optiql/internal/analysis"
)

func (a *fa) refine(e ast.Expr, truth bool, s *state) {
	switch e := ast.Unparen(e).(type) {
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			a.refine(e.X, !truth, s)
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			if truth { // both conjuncts hold on the true edge
				a.refine(e.X, true, s)
				a.refine(e.Y, true, s)
			}
		case token.LOR:
			if !truth { // both disjuncts fail on the false edge
				a.refine(e.X, false, s)
				a.refine(e.Y, false, s)
			}
		default:
			a.refineCompare(e, truth, s)
		}
	case *ast.Ident:
		a.refineBool(e.Name, truth, s)
	case *ast.SelectorExpr:
		if p := pathOf(e); p != "" {
			a.refineBool(p, truth, s)
		}
	case *ast.CallExpr:
		// Direct use: `if !n.lock.ReleaseSh(c, tok) { ... }`. Upgrade's
		// flag is always a named boolean (`if tok, ok = n.lock.Upgrade(c,
		// tok); ok`) and takes the refineBool path.
		a.refineLockCall(e, truth, s)
	}
}

// refineBool applies the protocol transition recorded in a boolean's
// abstract value.
func (a *fa) refineBool(path string, truth bool, s *state) {
	v, ok := s.get(path)
	if !ok || !truth {
		return
	}
	switch v.kind {
	case vAcquireOK:
		a.ownerAcquired(v.tok, s)
	case vValidateOK:
		a.validateAll(s)
	case vUpgradeOK:
		a.validateAll(s)
		a.ownerTrusted(v.tok, s)
	}
}

func (a *fa) refineLockCall(call *ast.CallExpr, truth bool, s *state) {
	if truth && analysis.LockCall(a.e.pass.Info, call) == "ReleaseSh" {
		a.validateAll(s)
	}
}

// ownerAcquired marks a node as optimistically held: dereference is
// allowed, loads are tainted until validated.
func (a *fa) ownerAcquired(path string, s *state) {
	if path == "" {
		return
	}
	v, _ := s.get(path)
	v.r = rShared
	v.rmd = 0
	s.vars[path] = v
}

func (a *fa) ownerTrusted(path string, s *state) {
	if path == "" {
		return
	}
	v, _ := s.get(path)
	v.r = rTrusted
	v.rm, v.rmd = 0, 0
	s.vars[path] = v
}

// validateAll is the version-validation epoch: everything read so far
// is retroactively consistent, so concrete taint drops to Clamped and
// racy pointers become dereferenceable. Parameter-conditional masks
// survive — a local validation says nothing about the caller's nodes.
func (a *fa) validateAll(s *state) {
	for k, v := range s.vars {
		changed := false
		if v.t == tTainted {
			v.t = tClamped
			changed = true
		}
		if v.r == rRacy {
			v.r = rShared
			changed = true
		}
		if changed {
			s.vars[k] = v
		}
	}
}

// refineCompare handles nil checks and bounds clamps.
func (a *fa) refineCompare(e *ast.BinaryExpr, truth bool, s *state) {
	x, y := ast.Unparen(e.X), ast.Unparen(e.Y)
	// Nil checks: `p != nil` true edge, `p == nil` false edge.
	if isNilExpr(x) || isNilExpr(y) {
		ptr := x
		if isNilExpr(x) {
			ptr = y
		}
		var nonNil bool
		switch e.Op {
		case token.NEQ:
			nonNil = truth
		case token.EQL:
			nonNil = !truth
		default:
			return
		}
		if nonNil {
			a.refineNonNil(ptr, s)
		}
		return
	}
	// Bounds: the edge where `v REL bound` bounds v from above.
	type side struct {
		v, bound ast.Expr
	}
	var clamped []side
	switch e.Op {
	case token.LSS, token.LEQ:
		if truth {
			clamped = append(clamped, side{x, y})
		} else {
			clamped = append(clamped, side{y, x})
		}
	case token.GTR, token.GEQ:
		if truth {
			clamped = append(clamped, side{y, x})
		} else {
			clamped = append(clamped, side{x, y})
		}
	case token.EQL:
		if truth {
			clamped = append(clamped, side{x, y}, side{y, x})
		}
	case token.NEQ:
		if !truth {
			clamped = append(clamped, side{x, y}, side{y, x})
		}
	}
	for _, c := range clamped {
		a.clampBy(c.v, c.bound, s)
	}
}

// refineNonNil promotes a nil-checked pointer: racy becomes shared
// (dereferenceable), and conditional deref masks clear.
func (a *fa) refineNonNil(ptr ast.Expr, s *state) {
	p := pathOf(a.unwrapConv(ptr))
	if p == "" {
		return
	}
	v, ok := s.get(p)
	if !ok {
		// Materialize the selector path so the refinement sticks.
		a.pure++
		v = a.eval(ptr, s)
		a.pure--
	}
	if v.r == rRacy {
		v.r = rShared
	}
	v.rmd = 0
	s.vars[p] = v
}

// clampBy clamps v when the bound is itself clean or clamped.
func (a *fa) clampBy(vexpr, bound ast.Expr, s *state) {
	a.pure++
	bv := a.eval(bound, s)
	a.pure--
	if bv.t > tClamped || bv.tm != 0 || bv.vm != 0 {
		return
	}
	p := pathOf(a.unwrapConv(vexpr))
	if p == "" {
		return
	}
	v, ok := s.get(p)
	if !ok {
		a.pure++
		v = a.eval(a.unwrapConv(vexpr), s)
		a.pure--
	}
	if v.t == tClean && v.tm == 0 && v.vm == 0 {
		return // nothing to clamp; don't disturb pointer state
	}
	v.t = tClamped
	v.tm, v.vm = 0, 0
	s.vars[p] = v
}

// unwrapConv strips parens and value conversions: `int(idx) <= n`
// clamps idx.
func (a *fa) unwrapConv(e ast.Expr) ast.Expr {
	for {
		e = ast.Unparen(e)
		call, ok := e.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return e
		}
		if tv, ok := a.e.pass.Info.Types[call.Fun]; !ok || !tv.IsType() {
			return e
		}
		e = call.Args[0]
	}
}
