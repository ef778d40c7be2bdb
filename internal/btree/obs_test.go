package btree

import (
	"testing"

	"optiql/internal/core"
	"optiql/internal/locks"
	"optiql/internal/obs"
)

// flakyLock wraps a lock and forces the next *fails validations to
// fail, bumping the validation-failure counter as a real adapter
// would. It turns restart paths deterministic: exactly one restart per
// forced failure, with no concurrency involved.
type flakyLock struct {
	locks.Lock
	fails *int
}

func (f flakyLock) ReleaseSh(c *locks.Ctx, t locks.Token) bool {
	ok := f.Lock.ReleaseSh(c, t)
	if ok && *f.fails > 0 {
		*f.fails--
		c.Counters().Inc(obs.EvShValidateFail)
		return false
	}
	return ok
}

// flakyScheme is an OptLock scheme whose validations fail the first
// *fails times across all nodes.
func flakyScheme(fails *int) *locks.Scheme {
	newLock := func() locks.Lock { return flakyLock{new(locks.OptLock), fails} }
	return &locks.Scheme{
		Name:       "FlakyOptLock",
		Optimistic: true,
		SharedMode: true,
		NewLock:    newLock,
		NewInner:   newLock,
		NewLeaf:    newLock,
	}
}

// TestRestartCounterExact drives Lookup against a lock that fails
// validation exactly N times and asserts exactly N restarts were
// counted (and none on a clean run).
func TestRestartCounterExact(t *testing.T) {
	const forced = 5
	fails := 0
	tr := MustNew(Config{Scheme: flakyScheme(&fails)})
	pool := core.NewPool(8)
	reg := obs.NewRegistry()
	c := locks.NewCtx(pool, 4)
	c.SetCounters(reg.NewCounters())
	defer c.Close()

	tr.Insert(c, 7, 70)
	base := reg.Snapshot() // discard anything the setup insert counted

	if v, ok := tr.Lookup(c, 7); !ok || v != 70 {
		t.Fatalf("Lookup = %d,%v", v, ok)
	}
	if got := reg.Snapshot().Get(obs.EvOpRestart) - base.Get(obs.EvOpRestart); got != 0 {
		t.Fatalf("clean lookup counted %d restarts", got)
	}

	fails = forced
	if v, ok := tr.Lookup(c, 7); !ok || v != 70 {
		t.Fatalf("Lookup after forced failures = %d,%v", v, ok)
	}
	snap := reg.Snapshot()
	if got := snap.Get(obs.EvOpRestart) - base.Get(obs.EvOpRestart); got != forced {
		t.Fatalf("op_restart = %d, want %d", got, forced)
	}
	if got := snap.Get(obs.EvShValidateFail) - base.Get(obs.EvShValidateFail); got != forced {
		t.Fatalf("sh_validate_fail = %d, want %d", got, forced)
	}
}

// countNodes returns the quiescent tree's total node count and its
// height in levels.
func countNodes(tr *Tree) (nodes, height int) {
	s := tr.Shape()
	return s.Leaves + s.Inner, s.Height
}

// TestSplitMergeCounters checks the structure-modification counters
// against the tree's actual shape: every split creates exactly one
// node (root growth creates one per extra level, uncounted), and every
// merge removes one (root collapse removes one per lost level).
func TestSplitMergeCounters(t *testing.T) {
	const n = 500
	tr := MustNew(Config{Scheme: locks.MustByName("OptLock"), NodeSize: 64}) // fanout 4
	pool := core.NewPool(8)
	reg := obs.NewRegistry()
	c := locks.NewCtx(pool, 4)
	c.SetCounters(reg.NewCounters())
	defer c.Close()

	for k := uint64(0); k < n; k++ {
		tr.Insert(c, k, k)
	}
	nodes, height := countNodes(tr)
	snap := reg.Snapshot()
	wantSplits := uint64(nodes - height) // nodes = 1 + splits + (height-1)
	if got := snap.Get(obs.EvBTreeSplit); got != wantSplits {
		t.Errorf("btree_split = %d, want %d (%d nodes, height %d)", got, wantSplits, nodes, height)
	}
	if snap.Get(obs.EvBTreeMerge) != 0 {
		t.Errorf("btree_merge = %d before any delete", snap.Get(obs.EvBTreeMerge))
	}

	for k := uint64(0); k < n; k++ {
		if !tr.Delete(c, k) {
			t.Fatalf("Delete(%d) missed", k)
		}
	}
	nodesAfter, heightAfter := countNodes(tr)
	snap = reg.Snapshot()
	wantMerges := uint64((nodes - nodesAfter) - (height - heightAfter))
	if got := snap.Get(obs.EvBTreeMerge); got != wantMerges {
		t.Errorf("btree_merge = %d, want %d (%d->%d nodes, height %d->%d)",
			got, wantMerges, nodes, nodesAfter, height, heightAfter)
	}
}
