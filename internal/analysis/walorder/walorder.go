// Package walorder verifies the durability ordering of the server's
// write path on the CFG: an index apply (Insert/Delete through the
// Index interface) in WAL-aware code must be dominated by a successful
// wal.Append of its record — or be on the wal-disabled path or the
// recovery/replay path — and no operation may be completed (acked)
// after a successful Append unless the durability barrier is
// accounted for: the error path is being unwound, or acks are not
// deferred by policy (the off policy, which acks at apply time). Under
// a deferring policy the only way to ack an appended write is to hand
// it to wal.Commit in a Committer, which the log calls once the
// record is durable; a direct completion anywhere after the append —
// before the applies, between them, or after Commit returns — is
// reported.
//
// This mechanizes the ack-implies-durable argument: losing the
// append-before-apply order can make a crash lose acknowledged writes
// (apply visible, record not durable), and acking before the barrier
// under a deferring fsync policy returns success for writes the WAL
// has not yet made stable.
//
// The server keeps the append, NoteApplied, the off-policy completions
// and Commit in one function (commitLogged), so both rules are checked
// on one CFG; an apply helper's summary carries the append rule to its
// call site. A closure is checked without its enclosing function's
// guards, so post-append applies belong in methods, not closures.
//
// Guard facts are path-sensitive flags joined by intersection (a
// guard must hold on every path into the event):
//
//	nilWAL    — the WAL is disabled (`sh.wal == nil` edge)
//	appendOK  — a wal.Append happened and its error was checked
//	errPath   — unwinding a failed Append
//	offPolicy — the policy's DefersAcks selector was observed false
//
// Function summaries (module-wide driver facts) carry two bits: whether
// a function performs an apply that is not internally guarded, and
// whether it may complete operations — so `dispatch` calling the
// fully guarded `commitLogged` is unconstrained, while a helper that
// applies unguarded imposes the append-dominance obligation on its
// callers.
package walorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"optiql/internal/analysis"
	"optiql/internal/analysis/cfg"
)

var Analyzer = &analysis.Analyzer{
	Name: "walorder",
	Doc: `check append-before-apply and ack-after-barrier ordering on the write path

Every index apply in WAL-aware code must be dominated by a successful
wal.Append of its record (or the wal-disabled or replay path), and no
op completion may follow a successful append unless the error path is
unwinding or the fsync policy does not defer acks; deferred acks go
through wal.Commit's Committer.`,
	Collect: collect,
	Run:     run,
}

// Guard flags.
type guards uint8

const (
	gNilWAL guards = 1 << iota
	gAppendOK
	gErrPath
	gOffPolicy
)

// wstate is the dataflow state: must-hold guards plus the set of
// variables holding a wal.Append error not yet checked.
type wstate struct {
	g    guards
	errs map[string]bool
}

func newWstate() *wstate { return &wstate{errs: make(map[string]bool)} }

func (s *wstate) clone() *wstate {
	ns := &wstate{g: s.g, errs: make(map[string]bool, len(s.errs))}
	for k := range s.errs {
		ns.errs[k] = true
	}
	return ns
}

// wsummary is a function's interprocedural digest.
type wsummary struct {
	appliesUnguarded bool // has an apply not covered by its own guards
	mayComplete      bool // may complete (ack) operations
}

func collect(pass *analysis.Pass) {
	if pass.Pkg.Name() == "wal" {
		return
	}
	e := newWengine(pass, false)
	e.summarize()
	for key, sum := range e.sums {
		pass.Facts.Set("wo:"+key, *sum)
	}
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Name() == "wal" {
		return nil
	}
	e := newWengine(pass, true)
	e.summarize()
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			e.analyze(fd.Body, true)
			// Function literals (replay closures, deferred recovers) are
			// their own little CFGs.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					e.analyze(lit.Body, true)
					return false
				}
				return true
			})
		}
	}
	return nil
}

type wengine struct {
	pass   *analysis.Pass
	report bool
	sums   map[string]*wsummary
}

func newWengine(pass *analysis.Pass, report bool) *wengine {
	return &wengine{pass: pass, report: report, sums: make(map[string]*wsummary)}
}

func (e *wengine) summarize() {
	for round := 0; round < 3; round++ {
		changed := false
		for _, file := range e.pass.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				key := e.declKey(fd)
				sum := e.analyze(fd.Body, false)
				if old, ok := e.sums[key]; !ok || *old != *sum {
					e.sums[key] = sum
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
}

func (e *wengine) declKey(fd *ast.FuncDecl) string {
	recv := ""
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		recv = recvName(fd.Recv.List[0].Type)
	}
	return e.pass.Pkg.Name() + "." + recv + "." + fd.Name.Name
}

func recvName(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.StarExpr:
		return recvName(t.X)
	case *ast.Ident:
		return t.Name
	}
	return ""
}

func (e *wengine) lookup(fn *types.Func) (wsummary, bool) {
	if fn == nil || fn.Pkg() == nil {
		return wsummary{}, false
	}
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if n := namedType(sig.Recv().Type()); n != nil {
			recv = n.Obj().Name()
		}
	}
	key := fn.Pkg().Name() + "." + recv + "." + fn.Name()
	if s, ok := e.sums[key]; ok {
		return *s, true
	}
	if v, ok := e.pass.Facts["wo:"+key]; ok {
		return v.(wsummary), true
	}
	return wsummary{}, false
}

func namedType(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// isWalType reports whether t involves a named type from the wal
// package.
func isWalType(t types.Type) bool {
	switch tt := t.(type) {
	case *types.Pointer:
		return isWalType(tt.Elem())
	case *types.Slice:
		return isWalType(tt.Elem())
	case *types.Named:
		return tt.Obj().Pkg() != nil && tt.Obj().Pkg().Name() == "wal"
	}
	return false
}

func isWalLog(t types.Type) bool {
	n := namedType(t)
	return n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Name() == "wal" && n.Obj().Name() == "Log"
}

// walAware reports whether a body touches the WAL subsystem at all:
// only such functions carry ordering obligations.
func (e *wengine) walAware(body *ast.BlockStmt) bool {
	aware := false
	ast.Inspect(body, func(n ast.Node) bool {
		if aware {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if t := e.pass.Info.TypeOf(n); t != nil && isWalType(t) {
				aware = true
			}
			if t := e.pass.Info.TypeOf(n.X); t != nil && isWalType(t) {
				aware = true
			}
		case *ast.CallExpr:
			if fn := analysis.CalleeFunc(e.pass.Info, n); fn != nil && fn.Pkg() != nil && fn.Pkg().Name() == "wal" {
				aware = true
			}
		}
		return true
	})
	return aware
}

type wfa struct {
	e     *wengine
	sum   *wsummary
	aware bool
	emit  bool
	seen  map[token.Pos]bool
}

// analyze runs the guard dataflow over one body, returning its
// summary; with report=true it also emits diagnostics (final pass).
func (e *wengine) analyze(body *ast.BlockStmt, report bool) *wsummary {
	a := &wfa{
		e:    e,
		sum:  &wsummary{},
		seen: make(map[token.Pos]bool),
	}
	a.aware = e.walAware(body)
	g := cfg.Build(body)
	p := &wproblem{a: a}
	in := cfg.Solve(g, p)
	if report && e.report {
		a.emit = true
		cfg.Replay(g, p, in)
	}
	return a.sum
}

type wproblem struct{ a *wfa }

func (p *wproblem) Entry() cfg.State { return newWstate() }

func (p *wproblem) Transfer(n ast.Node, s cfg.State) cfg.State {
	return p.a.transfer(n, s.(*wstate).clone())
}

func (p *wproblem) Branch(cond ast.Expr, truth bool, s cfg.State) cfg.State {
	ns := s.(*wstate).clone()
	p.a.refine(cond, truth, ns)
	return ns
}

func (p *wproblem) Join(x, y cfg.State) cfg.State {
	a, b := x.(*wstate), y.(*wstate)
	out := newWstate()
	out.g = a.g & b.g // a guard must hold on every path
	for k := range a.errs {
		if b.errs[k] {
			out.errs[k] = true
		}
	}
	return out
}

func (p *wproblem) Equal(x, y cfg.State) bool {
	a, b := x.(*wstate), y.(*wstate)
	if a.g != b.g || len(a.errs) != len(b.errs) {
		return false
	}
	for k := range a.errs {
		if !b.errs[k] {
			return false
		}
	}
	return true
}

func (a *wfa) flag(pos token.Pos, format string, args ...any) {
	if !a.emit || a.seen[pos] {
		return
	}
	a.seen[pos] = true
	a.e.pass.Reportf(pos, format, args...)
}

func (a *wfa) transfer(n ast.Node, s *wstate) *wstate {
	switch n := n.(type) {
	case *ast.AssignStmt:
		a.assign(n, s)
	case *ast.ExprStmt:
		a.call(n.X, s)
	case *ast.GoStmt:
		a.call(n.Call, s)
	case *ast.DeferStmt:
		// Lowered into the defer chain by the CFG builder.
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			a.call(r, s)
		}
	case ast.Expr:
		a.call(n, s)
	}
	return s
}

func (a *wfa) assign(n *ast.AssignStmt, s *wstate) {
	// seq, err := sh.wal.Append(ops)
	if len(n.Rhs) == 1 {
		if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
			a.call(call, s)
			if analysis.IsPkgFunc(a.e.pass.Info, call, "wal", "Append") {
				errIdx := len(n.Lhs) - 1
				if id, ok := n.Lhs[errIdx].(*ast.Ident); ok {
					if id.Name == "_" {
						s.g |= gAppendOK // error deliberately dropped
					} else {
						s.errs[id.Name] = true
					}
				}
				return
			}
		}
	}
	for _, rhs := range n.Rhs {
		a.call(rhs, s)
	}
	for _, lhs := range n.Lhs {
		// Reassigning a tracked error variable kills it.
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			delete(s.errs, id.Name)
		}
	}
}

// call inspects an expression for apply/complete events, recursing
// through nested calls in arguments.
func (a *wfa) call(e ast.Expr, s *wstate) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return
	}
	for _, arg := range call.Args {
		a.call(arg, s)
	}
	fn := analysis.CalleeFunc(a.e.pass.Info, call)
	if fn == nil {
		return
	}
	// Apply primitive: Insert/Delete through the Index interface.
	if (fn.Name() == "Insert" || fn.Name() == "Delete") && recvIsIndex(fn) {
		a.applyEvent(call, s)
		return
	}
	// Complete primitive: opDone (the per-op ack).
	if fn.Name() == "opDone" {
		a.completeEvent(call.Pos(), s)
		return
	}
	if sum, ok := a.e.lookup(fn); ok {
		if sum.appliesUnguarded {
			a.applyEvent(call, s)
		}
		if sum.mayComplete {
			a.completeEvent(call.Pos(), s)
		}
	}
}

func recvIsIndex(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	n := namedType(sig.Recv().Type())
	return n != nil && n.Obj().Name() == "Index"
}

// applyEvent: an index mutation happens here.
func (a *wfa) applyEvent(call *ast.CallExpr, s *wstate) {
	if replayArgs(a.e.pass.Info, call) {
		return // recovery replays from the durable log itself
	}
	if s.g&(gNilWAL|gAppendOK) != 0 {
		return
	}
	a.sum.appliesUnguarded = true
	if a.aware {
		a.flag(call.Pos(), "index apply is not dominated by a wal.Append of its record (nor on the wal-disabled or replay path): a crash here loses an acknowledged write")
	}
}

// completeEvent: an operation is acked here.
func (a *wfa) completeEvent(pos token.Pos, s *wstate) {
	a.sum.mayComplete = true
	if !a.aware {
		return
	}
	if s.g&gAppendOK == 0 {
		return // nothing was appended on this path; no barrier due
	}
	if s.g&(gOffPolicy|gErrPath) != 0 {
		return
	}
	a.flag(pos, "op completion after a successful wal.Append without the durability barrier: ack through wal.Commit's Committer, unwind the error, or take the non-deferring policy path")
}

// replayArgs reports whether the apply draws from a wal.Op record —
// the recovery path, exempt by construction.
func replayArgs(info *types.Info, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		found := false
		ast.Inspect(arg, func(n ast.Node) bool {
			e, ok := n.(ast.Expr)
			if !ok || found {
				return !found
			}
			if t := info.TypeOf(e); t != nil {
				if n := namedType(t); n != nil && n.Obj().Pkg() != nil &&
					n.Obj().Pkg().Name() == "wal" && n.Obj().Name() == "Op" {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// refine applies guard transitions along conditional edges.
func (a *wfa) refine(cond ast.Expr, truth bool, s *wstate) {
	switch e := ast.Unparen(cond).(type) {
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			a.refine(e.X, !truth, s)
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			if truth {
				a.refine(e.X, true, s)
				a.refine(e.Y, true, s)
			}
		case token.LOR:
			if !truth {
				a.refine(e.X, false, s)
				a.refine(e.Y, false, s)
			}
		case token.EQL, token.NEQ:
			a.refineCompare(e, truth, s)
		}
	case *ast.SelectorExpr:
		// Policy check: `s.walDefersAcks` / `pol.DefersAcks`.
		if strings.Contains(e.Sel.Name, "efersAcks") && !truth {
			s.g |= gOffPolicy
		}
	case *ast.CallExpr:
		if fn := analysis.CalleeFunc(a.e.pass.Info, e); fn != nil &&
			strings.Contains(fn.Name(), "efersAcks") && !truth {
			s.g |= gOffPolicy
		}
	}
}

func (a *wfa) refineCompare(e *ast.BinaryExpr, truth bool, s *wstate) {
	x, y := ast.Unparen(e.X), ast.Unparen(e.Y)
	nilSide := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "nil"
	}
	if !nilSide(x) && !nilSide(y) {
		return
	}
	other := x
	if nilSide(x) {
		other = y
	}
	isNil := (e.Op == token.EQL) == truth
	// `sh.wal == nil`: the wal-disabled path.
	if t := a.e.pass.Info.TypeOf(other); t != nil && isWalLog(t) {
		if isNil {
			s.g |= gNilWAL
		}
		return
	}
	// `err != nil` on a tracked Append error.
	if id, ok := other.(*ast.Ident); ok && s.errs[id.Name] {
		if isNil {
			s.g |= gAppendOK
		} else {
			s.g |= gErrPath
		}
	}
}
