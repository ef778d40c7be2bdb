// Package tornread implements the torn-read taint analysis: inside an
// optimistic (shared-acquired) section, every value loaded from node
// memory is tainted until it passes a sanitizer, and tainted values
// must not reach an indexing operation, an allocation size, a loop
// bound, or an unchecked pointer dereference.
//
// This mechanizes the paper's "tolerate torn reads, rely on version
// validation" contract: optimistic readers execute over memory that
// concurrent writers may be mutating, so any loaded count, offset,
// prefix length or child pointer may be stale or torn. In Go the
// hazard is not memory corruption but panics (out-of-range slice
// index, nil dereference of a recycled child), unbounded loops and
// absurd allocations — exactly the failure class the hand-written
// clamps (clampedCount, clampedChildren, the bounded SWAR kernels)
// exist to prevent. tornread proves every such value is clamped,
// validated, or never trusted.
//
// The analysis is a forward dataflow over the cfg package's CFGs with
// two cooperating lattices:
//
//   - a taint level per value: Clean < Clamped < Tainted, where
//     Clamped means "provenance is a racy load, but the value passed a
//     bounds sanitizer" (min/max with a clean operand, a mask, a
//     dominating comparison against a clean bound, a successful
//     validation, or an unsigned-8-bit type, whose range is
//     intrinsically bounded);
//   - a risk level per pointer/container: Trusted < Shared < Racy.
//     Trusted pointers (fresh allocations, exclusively locked nodes,
//     quiescent walks from the tree root) yield clean loads; Shared
//     (optimistically locked, or racy-but-nil-checked) pointers may be
//     dereferenced but yield tainted loads; Racy pointers (loaded from
//     node memory, unchecked) may not be dereferenced at all, except
//     for the lock word and atomic fields, which the coupling protocol
//     must touch before validation (sound only because node memory is
//     type-stable under the recycler — see DESIGN §9/§15).
//
// Interprocedural flow uses per-function summaries established in the
// Collect phase and shared module-wide as driver facts: which
// parameters are dereferenced unchecked, which reach sinks by value or
// through racy loads, and how the return value derives from the
// arguments. Flagging for parameter-conditional events happens at call
// sites, so a helper that indexes by a raw count is fine when every
// caller holds the node exclusively, and flagged at exactly the call
// site that passes an optimistically held node.
package tornread

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"optiql/internal/analysis"
	"optiql/internal/analysis/cfg"
)

var Analyzer = &analysis.Analyzer{
	Name: "tornread",
	Doc: `check that optimistically-read values are clamped or validated before use

Inside a shared/optimistic section (between AcquireSh and the matching
ReleaseSh/Upgrade validation), values loaded from lock-guarded node
memory are tainted. Taint propagates through arithmetic, joins and
summarized calls; sinks are slice/array indexing, make sizes, loop
bounds and dereference of a racy-loaded pointer. Sanitizers: bounds
clamps (min/max/mask, comparison against a clean bound), unsigned-8-bit
types, and a dominating successful validation.`,
	Collect: collect,
	Run:     run,
}

// Taint levels.
type taint uint8

const (
	tClean taint = iota
	tClamped
	tTainted
)

// Container/pointer risk levels.
type risk uint8

const (
	rTrusted risk = iota
	rShared       // deref allowed, loads tainted
	rRacy         // deref flags, loads tainted
)

// Value kinds for lock-protocol results.
const (
	vPlain = iota
	vAcquireOK
	vValidateOK
	vUpgradeOK
)

// mask is a parameter bit set (receiver is bit 0 of a method).
type mask uint64

// absval is the abstract value of one variable or access path.
type absval struct {
	t    taint
	tm   mask // tainted iff param i is passed shared/racy at the call site
	vm   mask // param i's value flows here
	r    risk
	rm   mask  // loads through this container conditional on param i
	rmd  mask  // unchecked-deref conditional on param i (cleared by nil checks)
	kind uint8 // vAcquireOK etc. for lock-protocol results
	tok  string
}

func (v absval) isZero() bool {
	return v.t == tClean && v.tm == 0 && v.vm == 0 && v.r == rTrusted && v.rm == 0 && v.rmd == 0 && v.kind == vPlain
}

func joinTaint(a, b taint) taint {
	if a > b {
		return a
	}
	return b
}

func joinRisk(a, b risk) risk {
	if a > b {
		return a
	}
	return b
}

func joinVal(a, b absval) absval {
	out := absval{
		t:  joinTaint(a.t, b.t),
		tm: a.tm | b.tm, vm: a.vm | b.vm,
		r: joinRisk(a.r, b.r), rm: a.rm | b.rm, rmd: a.rmd | b.rmd,
	}
	if a.kind == b.kind && a.tok == b.tok {
		out.kind, out.tok = a.kind, a.tok
	}
	return out
}

// state maps variable names and one-level access paths ("r", "r.l")
// to abstract values.
type state struct {
	vars map[string]absval
}

func newState() *state { return &state{vars: make(map[string]absval)} }

func (s *state) clone() *state {
	ns := &state{vars: make(map[string]absval, len(s.vars))}
	for k, v := range s.vars {
		ns.vars[k] = v
	}
	return ns
}

func (s *state) get(path string) (absval, bool) {
	v, ok := s.vars[path]
	return v, ok
}

func (s *state) set(path string, v absval) {
	if base, _, isPath := strings.Cut(path, "."); isPath {
		_ = base
	} else {
		// Assigning the base variable invalidates refined sub-paths.
		prefix := path + "."
		for k := range s.vars {
			if strings.HasPrefix(k, prefix) {
				delete(s.vars, k)
			}
		}
	}
	if v.isZero() {
		delete(s.vars, path)
		return
	}
	s.vars[path] = v
}

// summary is one function's interprocedural digest.
type summary struct {
	deref    mask // params dereferenced without a nil check or validation
	sinkLoad mask // racy loads through param i reach a sink
	sinkVal  mask // param i's value reaches a sink
	ret      absval
	// analyzed marks a real summary (vs the unknown-callee default).
	analyzed bool
}

func (s *summary) equal(o *summary) bool {
	return s.deref == o.deref && s.sinkLoad == o.sinkLoad && s.sinkVal == o.sinkVal &&
		s.ret.t == o.ret.t && s.ret.tm == o.ret.tm && s.ret.vm == o.ret.vm &&
		s.ret.r == o.ret.r && s.ret.rm == o.ret.rm
}

// The locks package is skipped: its internals implement the lock
// machinery itself and legitimately manipulate racy words.
func collect(pass *analysis.Pass) {
	if analysis.IsLockPkg(pass.Pkg) {
		return
	}
	e := newEngine(pass, false)
	e.summarizePackage()
	for key, sum := range e.pkgSums {
		pass.Facts.Set("tr:"+key, *sum)
	}
}

func run(pass *analysis.Pass) error {
	if analysis.IsLockPkg(pass.Pkg) {
		return nil
	}
	e := newEngine(pass, true)
	e.summarizePackage() // local summaries (test-file helpers included)
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file) {
			// Tests exercise deliberate protocol violations (torn-read
			// simulations, white-box node surgery) under controlled
			// quiescence; the gate is for production code.
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			e.analyzeFunc(fd, true)
		}
	}
	return nil
}

func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}

// engine analyzes the functions of one package.
type engine struct {
	pass    *analysis.Pass
	report  bool
	racy    map[*types.Named]bool
	pkgSums map[string]*summary
	// litSums holds summaries of function literals bound to local
	// variables, keyed by the variable's object.
	litSums map[types.Object]*summary
}

func newEngine(pass *analysis.Pass, report bool) *engine {
	e := &engine{
		pass:    pass,
		report:  report,
		pkgSums: make(map[string]*summary),
		litSums: make(map[types.Object]*summary),
	}
	e.racy = racyStructs(pass)
	return e
}

// racyStructs finds the lock-guarded node structs: any struct with a
// lock-typed field from the locks package seeds the set, and the set
// closes over pointer/slice/array/struct fields (a ref cell inside a
// node, the leaf it points to — everything a torn read can reach).
func racyStructs(pass *analysis.Pass) map[*types.Named]bool {
	racy := make(map[*types.Named]bool)
	scope := pass.Pkg.Scope()
	var all []*types.Named
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
		all = append(all, named)
		for i := 0; i < st.NumFields(); i++ {
			if isLockType(st.Field(i).Type()) {
				racy[named] = true
			}
		}
	}
	// Close over reachable node structs.
	for changed := true; changed; {
		changed = false
		for _, named := range all {
			if racy[named] {
				continue
			}
			// named becomes racy if a racy struct reaches it by field.
			for r := range racy {
				st := r.Underlying().(*types.Struct)
				for i := 0; i < st.NumFields(); i++ {
					if fieldReaches(st.Field(i).Type(), named) {
						racy[named] = true
						changed = true
					}
				}
			}
		}
	}
	return racy
}

func fieldReaches(t types.Type, target *types.Named) bool {
	switch t := t.(type) {
	case *types.Pointer:
		return namedOf(t.Elem()) == target
	case *types.Slice:
		return fieldReaches(t.Elem(), target)
	case *types.Array:
		return fieldReaches(t.Elem(), target)
	case *types.Named:
		return t == target
	}
	return false
}

func isLockType(t types.Type) bool {
	n := namedOf(t)
	if n == nil || !analysis.IsLockPkg(n.Obj().Pkg()) {
		return false
	}
	return strings.Contains(n.Obj().Name(), "Lock")
}

func namedOf(t types.Type) *types.Named {
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

// isRacyType reports whether t (or its pointee) is a racy node struct.
func (e *engine) isRacyType(t types.Type) bool {
	n := namedOf(t)
	return n != nil && e.racy[n]
}

// stableField reports whether a field of a racy struct is safe to read
// through any pointer: the lock word itself, atomics, and interfaces
// (written once at node init under the lock protocol).
func stableField(t types.Type) bool {
	if _, ok := t.Underlying().(*types.Interface); ok {
		return true
	}
	n := namedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	name := n.Obj().Pkg().Name()
	return name == "atomic" || name == "sync" || analysis.IsLockPkg(n.Obj().Pkg())
}

// summarizePackage computes fixpoint summaries for every function in
// the package. Three rounds bound mutual and self recursion; summaries
// grow monotonically, so unconverged cycles just stay conservative.
func (e *engine) summarizePackage() {
	for round := 0; round < 3; round++ {
		changed := false
		for _, file := range e.pass.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				key := e.declKey(fd)
				sum := e.analyzeFunc(fd, false)
				if old, ok := e.pkgSums[key]; !ok || !old.equal(sum) {
					e.pkgSums[key] = sum
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
}

// declKey is the summary key of a declared function:
// "<pkgname>.<recv>.<name>" or "<pkgname>..<name>".
func (e *engine) declKey(fd *ast.FuncDecl) string {
	recv := ""
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		recv = recvTypeName(fd.Recv.List[0].Type)
	}
	return e.pass.Pkg.Name() + "." + recv + "." + fd.Name.Name
}

func recvTypeName(t ast.Expr) string {
	switch t := t.(type) {
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

// funcKey derives the summary key of a resolved callee.
func funcKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if n := namedOf(sig.Recv().Type()); n != nil {
			recv = n.Obj().Name()
		}
	}
	return fn.Pkg().Name() + "." + recv + "." + fn.Name()
}

// lookupSummary resolves a callee summary: package-local first, then
// the module-wide facts from Collect.
func (e *engine) lookupSummary(fn *types.Func) *summary {
	key := funcKey(fn)
	if key == "" {
		return nil
	}
	if s, ok := e.pkgSums[key]; ok {
		return s
	}
	if v, ok := e.pass.Facts["tr:"+key]; ok {
		sum := v.(summary)
		return &sum
	}
	return nil
}

// fa is the per-function analysis.
type fa struct {
	e      *engine
	fnName string
	params map[types.Object]int // param object -> bit index
	sum    *summary
	report bool
	// emit gates diagnostics to the final (post-fixpoint) pass so the
	// worklist iterations never double-report.
	emit bool
	// pure suppresses effects during branch-refinement evaluation.
	pure     int
	loopCond map[ast.Expr]bool
	reported map[token.Pos]bool
}

// analyzeFunc runs the dataflow over one function body, returning its
// summary. With report=true, unconditional findings are reported.
func (e *engine) analyzeFunc(fd *ast.FuncDecl, report bool) *summary {
	name := fd.Name.Name
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		if r := recvTypeName(fd.Recv.List[0].Type); r != "" {
			name = r + "." + name
		}
	}
	return e.analyzeBody(fd.Body, fd.Recv, fd.Type, name, report)
}

func (e *engine) analyzeBody(body *ast.BlockStmt, recv *ast.FieldList, ftyp *ast.FuncType, name string, report bool) *summary {
	a := &fa{
		e: e, fnName: name, report: report,
		params:   make(map[types.Object]int),
		sum:      &summary{analyzed: true},
		loopCond: make(map[ast.Expr]bool),
		reported: make(map[token.Pos]bool),
	}
	entry := newState()
	idx := 0
	bind := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			names := f.Names
			if len(names) == 0 {
				idx++ // unnamed param still occupies a bit
				continue
			}
			for _, id := range names {
				obj := e.pass.Info.Defs[id]
				if obj == nil {
					idx++
					continue
				}
				a.params[obj] = idx
				entry.set(id.Name, a.paramVal(obj.Type(), idx))
				idx++
			}
		}
	}
	bind(recv)
	bind(ftyp.Params)

	// Pre-passes over the body: loop conditions (for the loop-bound
	// sink) and function literals bound to locals.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			if n.Cond != nil {
				a.loopCond[n.Cond] = true
			}
		case *ast.AssignStmt:
			if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
				if lit, ok := n.Rhs[0].(*ast.FuncLit); ok {
					if id, ok := n.Lhs[0].(*ast.Ident); ok {
						a.bindLit(id, lit)
					}
				}
			}
		}
		return true
	})

	g := cfg.Build(body)
	p := &problem{a: a, entry: entry}
	in := cfg.Solve(g, p)
	// Solve may visit a block several times; the replay emits each
	// finding once, deduped by position. The summary is complete
	// without it: Solve's last visit of every block already ran from
	// its fixpoint in-state.
	if report {
		a.emit = true
		cfg.Replay(g, p, in)
	}
	return a.sum
}

// bindLit analyzes a function literal bound to a local variable so
// calls through the variable use its summary. Two rounds cover simple
// self recursion (walk-style helpers).
func (a *fa) bindLit(id *ast.Ident, lit *ast.FuncLit) {
	obj := a.e.pass.Info.Defs[id]
	if obj == nil {
		return
	}
	if _, done := a.e.litSums[obj]; done {
		return
	}
	a.e.litSums[obj] = &summary{analyzed: true} // recursion placeholder
	for i := 0; i < 2; i++ {
		a.e.litSums[obj] = a.e.analyzeBody(lit.Body, nil, lit.Type, "func literal", false)
	}
}

// paramVal is the entry abstract value of parameter i.
func (a *fa) paramVal(t types.Type, i int) absval {
	bit := mask(1) << uint(i%64)
	if a.e.isRacyType(t) {
		switch t.(type) {
		case *types.Pointer:
			return absval{r: rTrusted, rm: bit, rmd: bit}
		default:
			// Racy struct value, or slice/array of racy cells: loads are
			// conditional, but a value copy cannot be dereferenced.
			return absval{r: rTrusted, rm: bit}
		}
	}
	switch tt := t.Underlying().(type) {
	case *types.Slice:
		if a.e.isRacyType(tt.Elem()) {
			return absval{rm: bit}
		}
	case *types.Array:
		if a.e.isRacyType(tt.Elem()) {
			return absval{rm: bit}
		}
	}
	return absval{vm: bit}
}

// problem adapts fa to the cfg solver.
type problem struct {
	a     *fa
	entry *state
}

func (p *problem) Entry() cfg.State { return p.entry }

func (p *problem) Transfer(n ast.Node, s cfg.State) cfg.State {
	return p.a.transfer(n, s.(*state).clone())
}

func (p *problem) Branch(cond ast.Expr, truth bool, s cfg.State) cfg.State {
	ns := s.(*state).clone()
	p.a.refine(cond, truth, ns)
	return ns
}

func (p *problem) Join(x, y cfg.State) cfg.State {
	a, b := x.(*state), y.(*state)
	out := newState()
	for k, v := range a.vars {
		if w, ok := b.vars[k]; ok {
			out.vars[k] = joinVal(v, w)
		} else if !strings.Contains(k, ".") {
			out.vars[k] = v
		}
		// Refined access paths present on only one branch are dropped:
		// the other path would re-evaluate the raw load.
	}
	for k, v := range b.vars {
		if _, ok := a.vars[k]; !ok && !strings.Contains(k, ".") {
			out.vars[k] = v
		}
	}
	return out
}

func (p *problem) Equal(x, y cfg.State) bool {
	a, b := x.(*state), y.(*state)
	if len(a.vars) != len(b.vars) {
		return false
	}
	for k, v := range a.vars {
		if w, ok := b.vars[k]; !ok || v != w {
			return false
		}
	}
	return true
}
