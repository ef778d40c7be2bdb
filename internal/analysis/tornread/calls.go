package tornread

// Call evaluation: conversions, builtins, the lock protocol, atomics,
// summarized callees and the unknown-callee default.

import (
	"go/ast"
	"go/types"

	"optiql/internal/analysis"
)

func (a *fa) evalCall(call *ast.CallExpr, s *state) absval {
	// Type conversion.
	if tv, ok := a.e.pass.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return a.typeCap(a.eval(call.Args[0], s), tv.Type)
		}
		return absval{}
	}
	if name := analysis.BuiltinName(a.e.pass.Info, call); name != "" {
		return a.evalBuiltin(name, call, s)
	}
	if vals, ok := a.lockOp(call, s); ok {
		return vals[0]
	}
	fn := analysis.CalleeFunc(a.e.pass.Info, call)
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Name() == "atomic" {
		// Methods on sync/atomic cells: loads are untorn by contract.
		a.evalArgs(call, s)
		return absval{}
	}
	if fn == nil {
		// Calls through local variables holding function literals.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if obj := a.e.pass.Info.Uses[id]; obj != nil {
				if sum, ok := a.e.litSums[obj]; ok {
					return a.applySummary(call, nil, sum, s)
				}
			}
		}
	}
	if fn != nil {
		if sum := a.e.lookupSummary(fn); sum != nil {
			return a.applySummary(call, fn, sum, s)
		}
	}
	// Unknown callee (stdlib, interface dispatch): the result derives
	// from the arguments but is never itself a sink — a documented
	// over-approximation (DESIGN §15).
	args := a.evalArgs(call, s)
	out := absval{}
	risky := false
	for _, av := range args {
		out.t = joinTaint(out.t, av.t)
		out.tm |= av.tm
		out.vm |= av.vm
		if av.r >= rShared || av.rm != 0 {
			risky = true
		}
	}
	if rt := a.typeOf(call); rt != nil && a.e.isRacyType(rt) && risky {
		out.r = rShared
	}
	return a.typeCap(out, a.typeOf(call))
}

func (a *fa) evalArgs(call *ast.CallExpr, s *state) []absval {
	args := make([]absval, 0, len(call.Args))
	for _, arg := range call.Args {
		args = append(args, a.eval(arg, s))
	}
	return args
}

func (a *fa) evalBuiltin(name string, call *ast.CallExpr, s *state) absval {
	switch name {
	case "len", "cap":
		// Slice/array headers are stable even in racy nodes.
		for _, arg := range call.Args {
			a.eval(arg, s)
		}
		return absval{}
	case "make":
		for i, arg := range call.Args {
			if i == 0 {
				continue // the type expression
			}
			a.sinkCheck(arg.Pos(), a.eval(arg, s), "allocation size")
		}
		return absval{r: rTrusted}
	case "new":
		return absval{r: rTrusted}
	case "append":
		out := absval{}
		for i, arg := range call.Args {
			v := a.eval(arg, s)
			if i == 0 {
				out = v
			}
		}
		return out
	case "min", "max":
		// A clean or clamped operand bounds the result (min from above,
		// max from below; the one-sided gap is documented in DESIGN §15).
		args := a.evalArgs(call, s)
		bounded := false
		t := tClean
		for _, av := range args {
			t = joinTaint(t, av.t)
			if av.t <= tClamped && av.tm == 0 && av.vm == 0 {
				bounded = true
			}
		}
		if bounded {
			if t > tClamped {
				t = tClamped
			}
			return absval{t: t}
		}
		out := absval{t: t}
		for _, av := range args {
			out.tm |= av.tm
			out.vm |= av.vm
		}
		return out
	default: // copy, delete, clear, panic, print, println, recover, ...
		for _, arg := range call.Args {
			a.eval(arg, s)
		}
		return absval{}
	}
}

var lockMethods = map[string]bool{
	"AcquireSh": true, "ReleaseSh": true, "AcquireEx": true,
	"ReleaseEx": true, "Upgrade": true, "CloseWindow": true,
	"BumpVersion": true, "Pessimistic": true,
}

// lockOp recognizes the optimistic-lock protocol: a method from the
// locks package called through a node's lock field. The owner is the
// expression the lock hangs off (`n` in `n.lock.AcquireSh(c)`).
func (a *fa) lockOp(call *ast.CallExpr, s *state) ([]absval, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !lockMethods[analysis.LockCall(a.e.pass.Info, call)] {
		return nil, false
	}
	owner := ""
	if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
		owner = pathOf(inner.X)
	} else {
		owner = pathOf(sel.X)
	}
	for _, arg := range call.Args {
		a.eval(arg, s)
	}
	switch sel.Sel.Name {
	case "AcquireSh":
		return []absval{{tok: owner}, {kind: vAcquireOK, tok: owner}}, true
	case "AcquireEx":
		a.setRisk(s, owner, rTrusted)
		return []absval{{tok: owner}}, true
	case "ReleaseSh":
		return []absval{{kind: vValidateOK, tok: owner}}, true
	case "Upgrade":
		return []absval{{tok: owner}, {kind: vUpgradeOK, tok: owner}}, true
	case "ReleaseEx":
		a.setRisk(s, owner, rShared)
		return []absval{{}}, true
	}
	return []absval{{}}, true // CloseWindow, BumpVersion, Pessimistic
}

func (a *fa) setRisk(s *state, path string, r risk) {
	if path == "" || a.pure > 0 {
		return
	}
	v, _ := s.get(path)
	v.r = r
	v.rmd = 0
	if r == rTrusted {
		v.rm = 0 // exclusivity holds regardless of the caller's state
	}
	s.vars[path] = v
}

// applySummary applies a callee summary at a call site: conditional
// events fire against the concrete arguments, or propagate into this
// function's own summary when the arguments are themselves
// parameter-conditional.
func (a *fa) applySummary(call *ast.CallExpr, fn *types.Func, sum *summary, s *state) absval {
	var args []absval
	if fn != nil {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				args = append(args, a.eval(sel.X, s))
			} else {
				args = append(args, absval{})
			}
		}
	}
	args = append(args, a.evalArgs(call, s)...)
	callee := "the callee"
	if fn != nil {
		callee = fn.Name()
	}
	for i, av := range args {
		bit := mask(1) << uint(i%64)
		if sum.deref&bit != 0 {
			if av.r == rRacy {
				a.flag(call.Pos(), "%s dereferences this pointer, which was loaded from node memory without a nil check, acquire, or validation", callee)
			}
			a.record(av.rmd, 0, 0)
		}
		if sum.sinkLoad&bit != 0 {
			if av.r >= rShared {
				a.flag(call.Pos(), "%s indexes by a value it loads from this optimistically-held node: clamp or validate before the call", callee)
			}
			a.record(0, av.rm, 0)
		}
		if sum.sinkVal&bit != 0 {
			if av.t == tTainted {
				a.flag(call.Pos(), "optimistically-read value passed to %s reaches an index, size, or loop bound without clamp or validation", callee)
			}
			a.record(0, av.tm, av.vm)
		}
	}
	out := absval{t: sum.ret.t, r: sum.ret.r}
	for i, av := range args {
		bit := mask(1) << uint(i%64)
		if sum.ret.tm&bit != 0 { // return derives from loads through param i
			if av.r >= rShared {
				out.t = tTainted
			}
			out.tm |= av.rm
		}
		if sum.ret.vm&bit != 0 { // return derives from param i's value
			out.t = joinTaint(out.t, av.t)
			out.tm |= av.tm
			out.vm |= av.vm
		}
		if sum.ret.rm&bit != 0 { // returned container loaded via param i
			if av.r >= rShared {
				out.r = rRacy
			}
			out.rm |= av.rm
			out.rmd |= av.rm
		}
	}
	if out.r == rRacy {
		out.rmd = 0 // concrete risk: the deref gate uses r directly
	}
	return a.typeCap(out, a.typeOf(call))
}
