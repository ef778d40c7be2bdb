package btree

import (
	"math/rand"
	"sync"
	"testing"

	"optiql/internal/indextest"
	"optiql/internal/locks"
	"optiql/internal/obs"
)

// TestDeleteRebalanceDrain inserts a large population and deletes all
// of it, checking structure at checkpoints: merges must keep every
// lookup correct and eventually collapse the tree back toward a root
// leaf.
func TestDeleteRebalanceDrain(t *testing.T) {
	for _, scheme := range []string{"OptiQL", "OptLock", "MCS-RW"} {
		t.Run(scheme, func(t *testing.T) {
			tr, pool := newTree(t, scheme, 256)
			c := ctxFor(t, pool)
			const n = 20000
			for i := uint64(0); i < n; i++ {
				tr.Insert(c, i, i)
			}
			grownHeight := tr.Height()
			if grownHeight < 3 {
				t.Fatalf("tree too shallow to exercise merges: height %d", grownHeight)
			}
			rng := rand.New(rand.NewSource(42))
			perm := rng.Perm(n)
			for idx, kRaw := range perm {
				k := uint64(kRaw)
				if !tr.Delete(c, k) {
					t.Fatalf("delete miss for %d", k)
				}
				if idx%5000 == 4999 {
					checkInvariants(t, tr)
				}
			}
			if tr.Len() != 0 {
				t.Fatalf("Len = %d after draining", tr.Len())
			}
			checkInvariants(t, tr)
			if tr.Height() >= grownHeight {
				t.Fatalf("tree did not shrink: height %d (was %d)", tr.Height(), grownHeight)
			}
			// The tree must remain fully usable.
			for i := uint64(0); i < 100; i++ {
				tr.Insert(c, i, i+1)
			}
			for i := uint64(0); i < 100; i++ {
				if v, ok := tr.Lookup(c, i); !ok || v != i+1 {
					t.Fatalf("lookup %d after drain+refill = (%d, %v)", i, v, ok)
				}
			}
			checkInvariants(t, tr)
		})
	}
}

// TestDrainAfterAppendSplits drains a tree built by append splits.
// Those leave every leaf full except a tail leaf of one key, and
// one-key leaves and one-separator inner nodes along the right spine:
// nodes below minKeys from birth, which the borrow and merge paths
// must absorb in either delete direction. Each drain must end in a
// single empty root leaf with every other node back in the recyclers:
// freeNode takes one per counted merge plus one per level lost.
func TestDrainAfterAppendSplits(t *testing.T) {
	tr, pool := newTree(t, "OptiQL", 256)
	reg := obs.NewRegistry()
	c := ctxFor(t, pool)
	c.SetCounters(reg.NewCounters())
	n := 7143*tr.Fanout() + 1 // ~100k: full leaves and one key over
	for _, dir := range []string{"ascending", "descending"} {
		for k := 0; k < n; k++ {
			tr.Insert(c, uint64(k), uint64(k))
		}
		checkInvariants(t, tr)
		nodes, height := countNodes(tr)
		tail := tr.root.Load()
		for !tail.leaf {
			tail = tail.children[tail.count]
		}
		if fill := leafFill(tr); fill < 0.95 || tail.count != 1 {
			t.Fatalf("%s: load left fill %.3f and a tail leaf of %d keys, want packed leaves and 1", dir, fill, tail.count)
		}
		mergesBefore := reg.Snapshot().Get(obs.EvBTreeMerge)
		for i := 0; i < n; i++ {
			k := i
			if dir == "descending" {
				k = n - 1 - i
			}
			if !tr.Delete(c, uint64(k)) {
				t.Fatalf("%s: delete miss for %d", dir, k)
			}
			if i%5000 == 4999 {
				checkInvariants(t, tr)
			}
		}
		checkInvariants(t, tr)
		if s := tr.Shape(); s != (Shape{Leaves: 1, Height: 1}) {
			t.Fatalf("%s: drained tree is %+v, want one empty root leaf", dir, s)
		}
		merges := int(reg.Snapshot().Get(obs.EvBTreeMerge) - mergesBefore)
		if freed := merges + height - 1; freed != nodes-1 {
			t.Errorf("%s: %d merges + %d levels lost freed %d nodes, the tree had %d besides the root leaf", dir, merges, height-1, freed, nodes-1)
		}
	}
}

// TestDeleteBorrowPaths forces both borrow directions with a tiny
// fanout and targeted deletions.
func TestDeleteBorrowPaths(t *testing.T) {
	tr, pool := newTree(t, "OptiQL", 96) // fanout 4
	c := ctxFor(t, pool)
	const n = 64
	for i := uint64(0); i < n; i++ {
		tr.Insert(c, i, i)
	}
	checkInvariants(t, tr)
	// Delete from the front (borrow/merge with right siblings).
	for i := uint64(0); i < n/2; i++ {
		if !tr.Delete(c, i) {
			t.Fatalf("delete miss %d", i)
		}
		checkInvariants(t, tr)
	}
	// Delete from the back (borrow/merge with left siblings).
	for i := n - 1; i >= n/2; i-- {
		if !tr.Delete(c, uint64(i)) {
			t.Fatalf("delete miss %d", i)
		}
		checkInvariants(t, tr)
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

// TestDeleteInterleavedWithScan verifies that scans passing through
// merged-away leaves stay correct.
func TestDeleteInterleavedWithScan(t *testing.T) {
	indextest.SkipIfOptimisticRace(t, locks.MustByName("OptiQL"))
	tr, pool := newTree(t, "OptiQL", 96)
	c := ctxFor(t, pool)
	const n = 2000
	for i := uint64(0); i < n; i++ {
		tr.Insert(c, i*2, i)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		sc := locks.NewCtx(pool, 8)
		defer sc.Close()
		for {
			select {
			case <-stop:
				return
			default:
			}
			out := tr.Scan(sc, 0, 500, nil)
			for j := 1; j < len(out); j++ {
				if out[j].Key <= out[j-1].Key {
					t.Errorf("scan out of order during merges")
					return
				}
				if out[j].Value != out[j].Key/2 {
					t.Errorf("scan saw foreign value %d for key %d", out[j].Value, out[j].Key)
					return
				}
			}
		}
	}()
	dc := locks.NewCtx(pool, 8)
	for i := uint64(0); i < n; i += 2 { // delete half, heavy merging
		tr.Delete(dc, i*2)
	}
	dc.Close()
	close(stop)
	wg.Wait()
	checkInvariants(t, tr)
}

// TestConcurrentDeleteDisjoint drains disjoint ranges concurrently.
func TestConcurrentDeleteDisjoint(t *testing.T) {
	for _, scheme := range []string{"OptiQL", "pthread"} {
		t.Run(scheme, func(t *testing.T) {
			indextest.SkipIfOptimisticRace(t, locks.MustByName(scheme))
			tr, pool := newTree(t, scheme, 256)
			const goroutines, per = 8, 2500
			c0 := locks.NewCtx(pool, 8)
			for i := uint64(0); i < goroutines*per; i++ {
				tr.Insert(c0, i, i)
			}
			c0.Close()
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				g := g
				wg.Add(1)
				go func() {
					defer wg.Done()
					c := locks.NewCtx(pool, 8)
					defer c.Close()
					base := uint64(g * per)
					for i := uint64(0); i < per; i++ {
						if !tr.Delete(c, base+i) {
							t.Errorf("delete miss %d", base+i)
							return
						}
					}
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			if tr.Len() != 0 {
				t.Fatalf("Len = %d after concurrent drain", tr.Len())
			}
			checkInvariants(t, tr)
		})
	}
}
