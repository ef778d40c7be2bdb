package cfg

import "go/ast"

// State is an opaque dataflow state owned by the Problem. States must
// be treated as immutable by the solver's contract: Transfer, Branch
// and Join return fresh (or shared unchanged) values.
type State any

// Problem is a forward dataflow problem over a Graph. The lattice is
// the client's; the solver only needs transfer, join and equality.
type Problem interface {
	// Entry is the state on the function's entry edge.
	Entry() State
	// Transfer applies one statement (or condition expression) node.
	Transfer(n ast.Node, s State) State
	// Branch refines the state along a conditional edge: truth is
	// whether the edge is the condition's true successor. Called after
	// Transfer has already processed the condition node itself.
	Branch(cond ast.Expr, truth bool, s State) State
	// Join merges two predecessor states.
	Join(a, b State) State
	// Equal reports lattice equality (fixpoint detection).
	Equal(a, b State) bool
}

// LoopProblem is a Problem that also acts where a path takes a loop
// back edge (see Block.Back).
type LoopProblem interface {
	Problem
	// BackEdge maps the state leaving a block along its back edge into
	// loop, before it joins the state at the loop head.
	BackEdge(loop ast.Stmt, s State) State
}

// Solve runs the worklist algorithm to a fixpoint and returns each
// live block's in-state. Blocks unreachable from entry are absent.
//
// Termination is guaranteed even for a non-monotone or
// infinite-descent Problem: the solver stops after a generous global
// budget proportional to the graph size, returning the (then possibly
// approximate) states it has. Well-behaved lattices converge long
// before the budget.
func Solve(g *Graph, p Problem) map[*Block]State {
	in := make(map[*Block]State)
	in[g.Entry] = p.Entry()

	// Worklist seeded in block order (entry first); dedup membership.
	work := []*Block{g.Entry}
	queued := map[*Block]bool{g.Entry: true}
	budget := 64*len(g.Blocks) + 256

	for len(work) > 0 && budget > 0 {
		budget--
		blk := work[0]
		work = work[1:]
		queued[blk] = false

		out := flow(blk, p, in[blk])
		for i, succ := range blk.Succs {
			s := out
			if blk.Cond != nil && len(blk.Succs) == 2 {
				s = p.Branch(blk.Cond, i == 0, out)
			}
			old, ok := in[succ]
			merged := s
			if ok {
				merged = p.Join(old, s)
			}
			if !ok || !p.Equal(old, merged) {
				in[succ] = merged
				if !queued[succ] {
					queued[succ] = true
					work = append(work, succ)
				}
			}
		}
	}
	return in
}

// Replay runs every solved block's transfers once more from its
// fixpoint in-state. Clients that report from Transfer (or BackEdge)
// turn reporting on between Solve and Replay, so each finding is made
// once, from the fixpoint.
func Replay(g *Graph, p Problem, in map[*Block]State) {
	for _, blk := range g.Blocks {
		if s, ok := in[blk]; ok {
			flow(blk, p, s)
		}
	}
}

// flow applies a block's statements, and its back-edge hook, to s.
func flow(blk *Block, p Problem, s State) State {
	for _, n := range blk.Stmts {
		s = p.Transfer(n, s)
	}
	if lp, ok := p.(LoopProblem); ok && blk.Back != nil {
		s = lp.BackEdge(blk.Back, s)
	}
	return s
}
