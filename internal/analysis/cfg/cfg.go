// Package cfg builds intraprocedural control-flow graphs over go/ast
// function bodies and solves forward dataflow problems on them — the
// stdlib-only substrate under every flow-sensitive analyzer (tornread,
// walorder, expair, and shcheck's restart query), standing in for
// golang.org/x/tools/go/cfg plus a worklist solver.
//
// The graph is a classic basic-block CFG: straight-line statements
// accumulate into a block until a branch point, and every control
// construct (if/for/range/switch/type-switch/select, goto and labeled
// break/continue, defer, return) lowers to explicit edges. Branch
// statements stay in their block, so clients see where a path jumps (a
// goto and its label), and a block whose edge re-enters a loop names
// that loop in Back. Conditional blocks expose their condition
// expression so lattice clients can refine state along the true/false
// out-edges (bounds checks, nil checks, lock-validation results).
// Deferred calls are modeled as a LIFO chain that every return routes
// through before the exit block — a may-execute over-approximation
// (registration conditions are not tracked), which is the right
// direction for the analyses built here.
package cfg

import (
	"go/ast"
	"go/token"
)

// Block is one basic block. Stmts holds the straight-line statements
// (for range/switch heads, the head node itself; a branch statement
// last) in execution order. A block with Cond != nil has exactly two
// successors: Succs[0] on the condition's true edge, Succs[1] on false.
type Block struct {
	Index int
	Stmts []ast.Node
	Cond  ast.Expr
	Succs []*Block
	// Back is set when the block's one out-edge is a loop back edge:
	// the end of a loop body or a continue (Back is the *ast.ForStmt or
	// *ast.RangeStmt continued), or a goto to a label above it (Back is
	// the *ast.LabeledStmt). Break edges and forward gotos leave it nil.
	Back ast.Stmt
	// Live is set by Build's reachability pass; dead blocks (after an
	// unconditional return/goto) keep their statements but are skipped
	// by Solve.
	Live bool
	// kind tags synthetic blocks for debugging/tests.
	kind string
}

// Graph is one function body's CFG.
type Graph struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block
	// Defers lists the defer statements in registration order; their
	// calls execute (LIFO) on the path from every return to Exit.
	Defers []*ast.DeferStmt
}

type builder struct {
	g      *Graph
	cur    *Block
	labels map[string]*labelTarget
	// break/continue targets of the innermost enclosing loops/switches;
	// loops[i] is the loop statement continues[i] re-enters.
	breaks    []*Block
	continues []*Block
	loops     []ast.Stmt
	// gotos seen before their label: patched at the end.
	pending []pendingGoto
}

type labelTarget struct {
	stmt  *ast.LabeledStmt
	block *Block   // label head (target of goto)
	brk   *Block   // break target when the label names a loop/switch
	cont  *Block   // continue target when the label names a loop
	loop  ast.Stmt // the loop cont re-enters
}

type pendingGoto struct {
	from  *Block
	label string
}

// Build constructs the CFG of one function body. A nil body (external
// declaration) yields a graph with only entry and exit.
func Build(body *ast.BlockStmt) *Graph {
	b := &builder{g: &Graph{}, labels: make(map[string]*labelTarget)}
	b.g.Entry = b.newBlock("entry")
	b.g.Exit = b.newBlock("exit")
	b.cur = b.g.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	// Fall off the end of the body: an implicit return.
	b.routeReturn()
	// Patch forward gotos.
	for _, pg := range b.pending {
		if lt, ok := b.labels[pg.label]; ok {
			pg.from.Succs = append(pg.from.Succs, lt.block)
		}
	}
	// Lower the defer chain: every edge into Exit detours through the
	// deferred calls in LIFO order.
	b.lowerDefers()
	b.markLive()
	return b.g
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// jump ends the current block with an unconditional edge and switches
// to a fresh (possibly unreachable) block.
func (b *builder) jump(to *Block) {
	if to != nil {
		b.cur.Succs = append(b.cur.Succs, to)
	}
	b.cur = b.newBlock("after-jump")
}

// backJump is a jump along a loop back edge into loop.
func (b *builder) backJump(to *Block, loop ast.Stmt) {
	b.cur.Back = loop
	b.jump(to)
}

// routeReturn ends the current block toward Exit (via the defer chain,
// patched in lowerDefers).
func (b *builder) routeReturn() {
	b.cur.Succs = append(b.cur.Succs, b.g.Exit)
	b.cur = b.newBlock("after-return")
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		condBlk := b.cur
		condBlk.Cond = s.Cond
		condBlk.Stmts = append(condBlk.Stmts, s.Cond)
		thenBlk := b.newBlock("if-then")
		elseBlk := b.newBlock("if-else")
		done := b.newBlock("if-done")
		condBlk.Succs = append(condBlk.Succs, thenBlk, elseBlk)
		b.cur = thenBlk
		b.stmt(s.Body)
		b.cur.Succs = append(b.cur.Succs, done)
		b.cur = elseBlk
		if s.Else != nil {
			b.stmt(s.Else)
		}
		b.cur.Succs = append(b.cur.Succs, done)
		b.cur = done
	case *ast.ForStmt:
		b.forStmt(s, "")
	case *ast.RangeStmt:
		b.rangeStmt(s, "")
	case *ast.SwitchStmt:
		b.switchStmt(s, "")
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s, "")
	case *ast.SelectStmt:
		b.selectStmt(s, "")
	case *ast.LabeledStmt:
		b.labeledStmt(s)
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.ReturnStmt:
		b.cur.Stmts = append(b.cur.Stmts, s)
		b.routeReturn()
	case *ast.DeferStmt:
		b.cur.Stmts = append(b.cur.Stmts, s)
		b.g.Defers = append(b.g.Defers, s)
	case *ast.EmptyStmt:
	default:
		// Straight-line statements (assign, expr, decl, incdec, send,
		// go) accumulate into the current block.
		b.cur.Stmts = append(b.cur.Stmts, s)
	}
}

func (b *builder) labeledStmt(s *ast.LabeledStmt) {
	head := b.newBlock("label-" + s.Label.Name)
	b.cur.Succs = append(b.cur.Succs, head)
	b.cur = head
	lt := &labelTarget{stmt: s, block: head}
	b.labels[s.Label.Name] = lt
	switch inner := s.Stmt.(type) {
	case *ast.ForStmt:
		b.forStmt(inner, s.Label.Name)
	case *ast.RangeStmt:
		b.rangeStmt(inner, s.Label.Name)
	case *ast.SwitchStmt:
		b.switchStmt(inner, s.Label.Name)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(inner, s.Label.Name)
	case *ast.SelectStmt:
		b.selectStmt(inner, s.Label.Name)
	default:
		b.stmt(s.Stmt)
	}
}

func (b *builder) branchStmt(s *ast.BranchStmt) {
	b.cur.Stmts = append(b.cur.Stmts, s)
	switch s.Tok {
	case token.GOTO:
		if lt, ok := b.labels[s.Label.Name]; ok {
			// The label is already behind us: the goto re-runs it.
			b.backJump(lt.block, lt.stmt)
		} else {
			// Forward goto: patch once the label is seen.
			from := b.cur
			b.pending = append(b.pending, pendingGoto{from: from, label: s.Label.Name})
			b.cur = b.newBlock("after-goto")
		}
	case token.BREAK:
		if s.Label != nil {
			if lt, ok := b.labels[s.Label.Name]; ok && lt.brk != nil {
				b.jump(lt.brk)
				return
			}
		}
		if n := len(b.breaks); n > 0 {
			b.jump(b.breaks[n-1])
		} else {
			b.jump(nil)
		}
	case token.CONTINUE:
		if s.Label != nil {
			if lt, ok := b.labels[s.Label.Name]; ok && lt.cont != nil {
				b.backJump(lt.cont, lt.loop)
				return
			}
		}
		if n := len(b.continues); n > 0 {
			b.backJump(b.continues[n-1], b.loops[n-1])
		} else {
			b.jump(nil)
		}
	case token.FALLTHROUGH:
		// Handled structurally in switchStmt via fallthrough edges; a
		// bare fallthrough just ends the block (the clause chain adds
		// the edge).
	}
}

func (b *builder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.newBlock("for-head")
	body := b.newBlock("for-body")
	post := b.newBlock("for-post")
	done := b.newBlock("for-done")
	b.cur.Succs = append(b.cur.Succs, head)
	if s.Cond != nil {
		head.Cond = s.Cond
		head.Stmts = append(head.Stmts, s.Cond)
		head.Succs = append(head.Succs, body, done)
	} else {
		head.Succs = append(head.Succs, body)
	}
	if label != "" {
		lt := b.labels[label]
		lt.brk, lt.cont, lt.loop = done, post, s
	}
	b.pushLoop(done, post, s)
	b.cur = body
	b.stmt(s.Body)
	b.cur.Back = s
	b.cur.Succs = append(b.cur.Succs, post)
	b.popLoop()
	b.cur = post
	if s.Post != nil {
		b.stmt(s.Post)
	}
	b.cur.Succs = append(b.cur.Succs, head)
	b.cur = done
}

func (b *builder) rangeStmt(s *ast.RangeStmt, label string) {
	head := b.newBlock("range-head")
	body := b.newBlock("range-body")
	done := b.newBlock("range-done")
	b.cur.Succs = append(b.cur.Succs, head)
	// The head evaluates the range operand and binds the iteration
	// variables; clients see the RangeStmt node itself.
	head.Stmts = append(head.Stmts, s)
	head.Succs = append(head.Succs, body, done)
	if label != "" {
		lt := b.labels[label]
		lt.brk, lt.cont, lt.loop = done, head, s
	}
	b.pushLoop(done, head, s)
	b.cur = body
	b.stmt(s.Body)
	b.cur.Back = s
	b.cur.Succs = append(b.cur.Succs, head)
	b.popLoop()
	b.cur = done
}

func (b *builder) pushLoop(brk, cont *Block, loop ast.Stmt) {
	b.breaks = append(b.breaks, brk)
	b.continues = append(b.continues, cont)
	b.loops = append(b.loops, loop)
}

func (b *builder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
	b.loops = b.loops[:len(b.loops)-1]
}

func (b *builder) switchStmt(s *ast.SwitchStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.cur
	head.Stmts = append(head.Stmts, s)
	done := b.newBlock("switch-done")
	if label != "" {
		b.labels[label].brk = done
	}
	b.breaks = append(b.breaks, done)
	var clauses []*Block
	var bodies [][]ast.Stmt
	hasDefault := false
	if s.Body != nil {
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			blk := b.newBlock("case")
			// Case expressions evaluate in the clause block so their
			// subexpressions reach the lattice.
			for _, e := range cc.List {
				blk.Stmts = append(blk.Stmts, e)
			}
			if cc.List == nil {
				hasDefault = true
			}
			head.Succs = append(head.Succs, blk)
			clauses = append(clauses, blk)
			bodies = append(bodies, cc.Body)
		}
	}
	if !hasDefault {
		head.Succs = append(head.Succs, done)
	}
	for i, blk := range clauses {
		b.cur = blk
		b.stmtList(bodies[i])
		// A trailing fallthrough chains into the next clause's body.
		if n := len(bodies[i]); n > 0 {
			if br, ok := bodies[i][n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH && i+1 < len(clauses) {
				b.cur.Succs = append(b.cur.Succs, clauses[i+1])
				continue
			}
		}
		b.cur.Succs = append(b.cur.Succs, done)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = done
}

func (b *builder) typeSwitchStmt(s *ast.TypeSwitchStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.cur
	head.Stmts = append(head.Stmts, s)
	done := b.newBlock("typeswitch-done")
	if label != "" {
		b.labels[label].brk = done
	}
	b.breaks = append(b.breaks, done)
	hasDefault := false
	if s.Body != nil {
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			blk := b.newBlock("typecase")
			if cc.List == nil {
				hasDefault = true
			}
			head.Succs = append(head.Succs, blk)
			b.cur = blk
			b.stmtList(cc.Body)
			b.cur.Succs = append(b.cur.Succs, done)
		}
	}
	if !hasDefault {
		head.Succs = append(head.Succs, done)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = done
}

func (b *builder) selectStmt(s *ast.SelectStmt, label string) {
	head := b.cur
	head.Stmts = append(head.Stmts, s)
	done := b.newBlock("select-done")
	if label != "" {
		b.labels[label].brk = done
	}
	b.breaks = append(b.breaks, done)
	if s.Body != nil {
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			blk := b.newBlock("comm")
			if cc.Comm != nil {
				blk.Stmts = append(blk.Stmts, cc.Comm)
			}
			head.Succs = append(head.Succs, blk)
			b.cur = blk
			b.stmtList(cc.Body)
			b.cur.Succs = append(b.cur.Succs, done)
		}
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = done
}

// lowerDefers reroutes every edge into Exit through the deferred calls
// in LIFO order. Each defer becomes a block holding its CallExpr.
func (b *builder) lowerDefers() {
	if len(b.g.Defers) == 0 {
		return
	}
	chainHead := b.newBlock("defer-chain")
	prev := chainHead
	for i := len(b.g.Defers) - 1; i >= 0; i-- {
		blk := b.newBlock("deferred-call")
		blk.Stmts = append(blk.Stmts, b.g.Defers[i].Call)
		prev.Succs = append(prev.Succs, blk)
		prev = blk
	}
	prev.Succs = append(prev.Succs, b.g.Exit)
	for _, blk := range b.g.Blocks {
		if blk == chainHead || blk.kind == "deferred-call" {
			continue
		}
		for i, succ := range blk.Succs {
			if succ == b.g.Exit {
				blk.Succs[i] = chainHead
			}
		}
	}
}

// markLive flags the blocks reachable from Entry.
func (b *builder) markLive() {
	var visit func(*Block)
	visit = func(blk *Block) {
		if blk.Live {
			return
		}
		blk.Live = true
		for _, s := range blk.Succs {
			visit(s)
		}
	}
	visit(b.g.Entry)
}
