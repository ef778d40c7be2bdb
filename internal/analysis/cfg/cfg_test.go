package cfg

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"strings"
	"testing"
)

// buildFunc parses a function body and builds its CFG.
func buildFunc(t *testing.T, body string) (*token.FileSet, *Graph) {
	t.Helper()
	src := "package p\n\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fd := file.Decls[0].(*ast.FuncDecl)
	return fset, Build(fd.Body)
}

// render normalizes a graph to a compact, position-free description:
// one line per block in index order, statements printed as source,
// conditions marked, successor edges by index, dead blocks tagged.
func render(fset *token.FileSet, g *Graph) string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		if len(b.Stmts) == 0 && b.Cond == nil && len(b.Succs) == 0 && b != g.Entry && b != g.Exit {
			continue // builder scaffolding with no content or effect
		}
		fmt.Fprintf(&sb, "b%d", b.Index)
		if b == g.Entry {
			sb.WriteString("(entry)")
		}
		if b == g.Exit {
			sb.WriteString("(exit)")
		}
		if !b.Live {
			sb.WriteString("(dead)")
		}
		sb.WriteString(":")
		for _, n := range b.Stmts {
			sb.WriteString(" {" + printNode(fset, n) + "}")
		}
		if b.Cond != nil {
			sb.WriteString(" ?" + printNode(fset, b.Cond))
		}
		if len(b.Succs) > 0 {
			sb.WriteString(" ->")
			for _, s := range b.Succs {
				fmt.Fprintf(&sb, " b%d", s.Index)
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

func printNode(fset *token.FileSet, n ast.Node) string {
	var buf bytes.Buffer
	printer.Fprint(&buf, fset, n)
	return strings.Join(strings.Fields(buf.String()), " ")
}

// reachStmts runs a trivial reachability problem and returns the
// rendered statements of every live block the solver visited.
func reachStmts(fset *token.FileSet, g *Graph) map[string]bool {
	in := Solve(g, &boolProblem{})
	out := make(map[string]bool)
	for _, b := range g.Blocks {
		if _, ok := in[b]; !ok {
			continue
		}
		for _, n := range b.Stmts {
			out[printNode(fset, n)] = true
		}
	}
	return out
}

// boolProblem is the trivial lattice: reachable or not.
type boolProblem struct{}

func (*boolProblem) Entry() State                             { return true }
func (*boolProblem) Transfer(n ast.Node, s State) State       { return s }
func (*boolProblem) Branch(c ast.Expr, t bool, s State) State { return s }
func (*boolProblem) Join(a, b State) State                    { return a.(bool) || b.(bool) }
func (*boolProblem) Equal(a, b State) bool                    { return a.(bool) == b.(bool) }

func TestIfShape(t *testing.T) {
	fset, g := buildFunc(t, `
	x := 1
	if x > 0 {
		x = 2
	} else {
		x = 3
	}
	use(x)`)
	got := render(fset, g)
	// The condition block must have exactly two successors (true, false),
	// and both arms must rejoin before use(x).
	var cond *Block
	for _, b := range g.Blocks {
		if b.Cond != nil {
			cond = b
		}
	}
	if cond == nil || len(cond.Succs) != 2 {
		t.Fatalf("if: want one 2-successor condition block, got:\n%s", got)
	}
	arms := []*Block{cond.Succs[0], cond.Succs[1]}
	if printNode(fset, arms[0].Stmts[0]) != "x = 2" || printNode(fset, arms[1].Stmts[0]) != "x = 3" {
		t.Fatalf("if: true edge must lead to the then-arm, false to else:\n%s", got)
	}
	if len(arms[0].Succs) != 1 || len(arms[1].Succs) != 1 || arms[0].Succs[0] != arms[1].Succs[0] {
		t.Fatalf("if: arms must rejoin at a single block:\n%s", got)
	}
}

func TestForLoopShape(t *testing.T) {
	fset, g := buildFunc(t, `
	for i := 0; i < 10; i++ {
		body(i)
	}
	after()`)
	var cond *Block
	for _, b := range g.Blocks {
		if b.Cond != nil {
			cond = b
		}
	}
	if cond == nil || len(cond.Succs) != 2 {
		t.Fatalf("for: want a 2-successor condition block:\n%s", render(fset, g))
	}
	// The loop body must cycle back: the condition is reachable from its
	// own true successor.
	seen := map[*Block]bool{}
	var walk func(b *Block) bool
	walk = func(b *Block) bool {
		if b == cond {
			return true
		}
		if seen[b] {
			return false
		}
		seen[b] = true
		for _, s := range b.Succs {
			if walk(s) {
				return true
			}
		}
		return false
	}
	if !walk(cond.Succs[0]) {
		t.Fatalf("for: body must loop back to the condition:\n%s", render(fset, g))
	}
}

func TestBreakContinue(t *testing.T) {
	fset, g := buildFunc(t, `
	for i := 0; i < 10; i++ {
		if skip(i) {
			continue
		}
		if done(i) {
			break
		}
		body(i)
	}
	after()`)
	reach := reachStmts(fset, g)
	for _, want := range []string{"body(i)", "after()", "i++"} {
		if !reach[want] {
			t.Fatalf("break/continue: %q must stay reachable:\n%s", want, render(fset, g))
		}
	}
}

func TestLabeledBreakGoto(t *testing.T) {
	fset, g := buildFunc(t, `
outer:
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if a(i, j) {
				break outer
			}
			if b(i, j) {
				continue outer
			}
			if c(i, j) {
				goto done
			}
		}
	}
	mid()
done:
	end()`)
	reach := reachStmts(fset, g)
	for _, want := range []string{"mid()", "end()"} {
		if !reach[want] {
			t.Fatalf("labeled: %q must stay reachable:\n%s", want, render(fset, g))
		}
	}
}

func TestSwitchShape(t *testing.T) {
	fset, g := buildFunc(t, `
	switch k := kind(); k {
	case 1:
		one()
	case 2:
		two()
		fallthrough
	case 3:
		three()
	default:
		other()
	}
	after()`)
	reach := reachStmts(fset, g)
	for _, want := range []string{"one()", "two()", "three()", "other()", "after()"} {
		if !reach[want] {
			t.Fatalf("switch: %q must stay reachable:\n%s", want, render(fset, g))
		}
	}
}

func TestUnreachableAfterReturn(t *testing.T) {
	fset, g := buildFunc(t, `
	pre()
	return
	post()`) //nolint
	for _, b := range g.Blocks {
		for _, n := range b.Stmts {
			if printNode(fset, n) == "post()" && b.Live {
				t.Fatalf("code after return must be marked dead:\n%s", render(fset, g))
			}
			if printNode(fset, n) == "pre()" && !b.Live {
				t.Fatalf("code before return must stay live:\n%s", render(fset, g))
			}
		}
	}
	if _, ok := Solve(g, &boolProblem{})[g.Exit]; !ok {
		t.Fatal("exit must be solver-reachable through the return")
	}
}

func TestDeferLowering(t *testing.T) {
	fset, g := buildFunc(t, `
	defer cleanupA()
	if cond() {
		return
	}
	defer cleanupB()
	work()`)
	if len(g.Defers) != 2 {
		t.Fatalf("want 2 registered defers, got %d", len(g.Defers))
	}
	// Every path into Exit must pass through the lowered call to
	// cleanupA (registered on all paths); cleanupB runs only on the
	// fall-through path but must be present in the graph.
	reach := reachStmts(fset, g)
	for _, want := range []string{"cleanupA()", "cleanupB()", "work()"} {
		if !reach[want] {
			t.Fatalf("defer: lowered call %q missing from solved graph:\n%s", want, render(fset, g))
		}
	}
	// The chain is shared by every exit (a conservative may-execute
	// over-approximation) and runs LIFO: cleanupB's block flows into
	// cleanupA's, which flows into Exit.
	var blkA, blkB *Block
	for _, b := range g.Blocks {
		for _, n := range b.Stmts {
			switch printNode(fset, n) {
			case "cleanupA()":
				blkA = b
			case "cleanupB()":
				blkB = b
			}
		}
	}
	if blkA == nil || blkB == nil {
		t.Fatalf("defer: lowered call blocks missing:\n%s", render(fset, g))
	}
	if len(blkB.Succs) != 1 || blkB.Succs[0] != blkA {
		t.Fatalf("defer: chain must run LIFO (cleanupB before cleanupA):\n%s", render(fset, g))
	}
	if len(blkA.Succs) != 1 || blkA.Succs[0] != g.Exit {
		t.Fatalf("defer: last-registered defer must flow into Exit:\n%s", render(fset, g))
	}
	// No edge may bypass the chain into Exit.
	for _, b := range g.Blocks {
		if b == blkA {
			continue
		}
		for _, s := range b.Succs {
			if s == g.Exit {
				t.Fatalf("defer: b%d reaches Exit bypassing the defer chain:\n%s", b.Index, render(fset, g))
			}
		}
	}
}

func TestInfiniteLoopTermination(t *testing.T) {
	// for {} has no exit edge; Build and Solve must still terminate and
	// the code after the loop must be dead.
	fset, g := buildFunc(t, `
	for {
		spin()
	}
	after()`)
	for _, b := range g.Blocks {
		for _, n := range b.Stmts {
			if printNode(fset, n) == "after()" && b.Live {
				t.Fatalf("code after for{} must be dead:\n%s", render(fset, g))
			}
		}
	}
	if _, ok := Solve(g, &boolProblem{})[g.Entry]; !ok {
		t.Fatal("solver must terminate on an infinite loop and keep the entry state")
	}
}

// divergeProblem never converges: every Transfer bumps a counter and
// Equal is always false. The solver's budget must end the run anyway.
type divergeProblem struct{ steps int }

func (p *divergeProblem) Entry() State                             { return 0 }
func (p *divergeProblem) Transfer(n ast.Node, s State) State       { p.steps++; return s.(int) + 1 }
func (p *divergeProblem) Branch(c ast.Expr, t bool, s State) State { return s }
func (p *divergeProblem) Join(a, b State) State                    { return a.(int) + b.(int) }
func (p *divergeProblem) Equal(a, b State) bool                    { return false }

func TestSolverBudget(t *testing.T) {
	_, g := buildFunc(t, `
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			x(i, j)
		}
	}`)
	p := &divergeProblem{}
	Solve(g, p) // must return despite Equal never holding
	if p.steps == 0 {
		t.Fatal("diverging solve did no work at all")
	}
	limit := (64*len(g.Blocks) + 256) * (len(g.Blocks) + 4)
	if p.steps > limit {
		t.Fatalf("diverging solve ran %d transfers, budget should cap near %d", p.steps, limit)
	}
}

func TestSelectShape(t *testing.T) {
	fset, g := buildFunc(t, `
	select {
	case v := <-ch:
		got(v)
	case out <- 1:
		sent()
	default:
		idle()
	}
	after()`)
	reach := reachStmts(fset, g)
	for _, want := range []string{"got(v)", "sent()", "idle()", "after()"} {
		if !reach[want] {
			t.Fatalf("select: %q must stay reachable:\n%s", want, render(fset, g))
		}
	}
}

func TestTypeSwitchShape(t *testing.T) {
	fset, g := buildFunc(t, `
	switch v := x.(type) {
	case int:
		ints(v)
	case string:
		strs(v)
	default:
		other(v)
	}
	after()`)
	reach := reachStmts(fset, g)
	for _, want := range []string{"ints(v)", "strs(v)", "other(v)", "after()"} {
		if !reach[want] {
			t.Fatalf("type switch: %q must stay reachable:\n%s", want, render(fset, g))
		}
	}
}

// blockOf returns the live block holding the statement that prints as
// src.
func blockOf(t *testing.T, fset *token.FileSet, g *Graph, src string) *Block {
	t.Helper()
	for _, b := range g.Blocks {
		for _, n := range b.Stmts {
			if b.Live && printNode(fset, n) == src {
				return b
			}
		}
	}
	t.Fatalf("no live block holds %q:\n%s", src, render(fset, g))
	return nil
}

func TestGotoVisible(t *testing.T) {
	fset, g := buildFunc(t, `
	goto first
retry:
	again()
first:
	if try() {
		goto retry
	}`)
	for _, c := range []struct {
		src, label string
		back       bool
	}{{"goto first", "first", false}, {"goto retry", "retry", true}} {
		b := blockOf(t, fset, g, c.src)
		br, ok := b.Stmts[len(b.Stmts)-1].(*ast.BranchStmt)
		if !ok || br.Tok != token.GOTO || br.Label.Name != c.label {
			t.Fatalf("%s: the goto must end its block with its label:\n%s", c.src, render(fset, g))
		}
		if len(b.Succs) != 1 || b.Succs[0].kind != "label-"+c.label {
			t.Fatalf("%s: the goto's one edge must enter its label:\n%s", c.src, render(fset, g))
		}
		if ls, _ := b.Back.(*ast.LabeledStmt); (b.Back != nil) != c.back || (c.back && (ls == nil || ls.Label.Name != c.label)) {
			t.Fatalf("%s: back edge = %v, want %v:\n%s", c.src, b.Back != nil, c.back, render(fset, g))
		}
	}
}

func TestBackEdges(t *testing.T) {
	fset, g := buildFunc(t, `
retry:
	for i := 0; i < n; i++ {
		a(i)
	}
	for _, v := range xs {
		if skip(v) {
			continue
		}
		b(v)
	}
outer:
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if c(i, j) {
				continue outer
			}
			d(j)
		}
	}
	if e() {
		goto retry
	}`)
	for _, c := range []struct {
		src  string
		want string // the loop (or label) the block's back edge re-enters
	}{
		{"a(i)", "for i := 0; i < n; i++"},
		{"b(v)", "for _, v := range xs"},
		{"continue", "for _, v := range xs"},
		{"continue outer", "for i := 0; i < n; i++"},
		{"d(j)", "for j := 0; j < n; j++"},
		{"goto retry", "retry:"},
	} {
		b := blockOf(t, fset, g, c.src)
		if b.Back == nil || !strings.HasPrefix(printNode(fset, b.Back), c.want) {
			t.Fatalf("%s: want a back edge into %q:\n%s", c.src, c.want, render(fset, g))
		}
	}
	// continue outer re-enters the outer loop, not the inner one.
	cont := blockOf(t, fset, g, "continue outer")
	if inner := blockOf(t, fset, g, "d(j)"); cont.Back == inner.Back {
		t.Fatalf("continue outer must re-enter the outer loop:\n%s", render(fset, g))
	}
}

func TestBreakNotBackEdge(t *testing.T) {
	fset, g := buildFunc(t, `
	for {
		if a() {
			break
		}
		switch k() {
		case 1:
			break
		}
		b()
	}
	after()`)
	breaks, backs := 0, 0
	for _, blk := range g.Blocks {
		if !blk.Live {
			continue
		}
		if blk.Back != nil {
			backs++
		}
		for _, n := range blk.Stmts {
			if br, ok := n.(*ast.BranchStmt); ok && br.Tok == token.BREAK {
				breaks++
				if blk.Back != nil {
					t.Fatalf("a break is not a back edge:\n%s", render(fset, g))
				}
			}
		}
	}
	if breaks != 2 || backs != 1 || blockOf(t, fset, g, "b()").Back == nil {
		t.Fatalf("want 2 breaks and one back edge (the body's end), got %d and %d:\n%s", breaks, backs, render(fset, g))
	}
}

// latchProblem's state records whether a path has taken a back edge.
type latchProblem struct{ transfers, backs int }

func (p *latchProblem) Entry() State                             { return false }
func (p *latchProblem) Transfer(n ast.Node, s State) State       { p.transfers++; return s }
func (p *latchProblem) Branch(c ast.Expr, t bool, s State) State { return s }
func (p *latchProblem) Join(a, b State) State                    { return a.(bool) || b.(bool) }
func (p *latchProblem) Equal(a, b State) bool                    { return a == b }
func (p *latchProblem) BackEdge(loop ast.Stmt, s State) State    { p.backs++; return true }

func TestLoopProblemAndReplay(t *testing.T) {
	fset, g := buildFunc(t, `
	pre()
	for i := 0; i < 3; i++ {
		body(i)
	}
	post()`)
	p := &latchProblem{}
	in := Solve(g, p)
	if in[blockOf(t, fset, g, "pre()")].(bool) {
		t.Fatalf("no back edge precedes the loop:\n%s", render(fset, g))
	}
	if !in[blockOf(t, fset, g, "i < 3")].(bool) || !in[blockOf(t, fset, g, "post()")].(bool) {
		t.Fatalf("the back edge's state must reach the loop head and the exit:\n%s", render(fset, g))
	}
	// Replay visits every solved block once: each statement once, each
	// back edge once.
	stmts, backs := 0, 0
	for b := range in {
		stmts += len(b.Stmts)
		if b.Back != nil {
			backs++
		}
	}
	p.transfers, p.backs = 0, 0
	Replay(g, p, in)
	if p.transfers != stmts || p.backs != backs || backs != 1 {
		t.Fatalf("replay: %d transfers and %d back edges, want %d and %d (one back edge)", p.transfers, p.backs, stmts, backs)
	}
}
