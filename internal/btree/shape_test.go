package btree

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"optiql/internal/indextest"
	"optiql/internal/locks"
)

// leafFill is the fraction of leaf slots holding a key.
func leafFill(tr *Tree) float64 {
	s := tr.Shape()
	return float64(s.Keys) / float64(s.Leaves*tr.Fanout())
}

// TestShapeFill loads the tree in the orders real traffic produces and
// checks how full the split-point rule leaves it. Ascending loads —
// one stream, two interleaved, or one per CPU at once — must pack the
// leaves; random inserts must keep the ~ln 2 fill of middle splits;
// descending is the documented non-goal and only has to stay at the
// half-full floor.
func TestShapeFill(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	// Each pattern maps insert number i (0 <= i < n) to its key.
	rng := rand.New(rand.NewSource(7))
	perm, halfPerm := rng.Perm(n), rng.Perm(n/2)
	patterns := []struct {
		name   string
		key    func(i int) int
		lo, hi float64
	}{
		{"ascending", func(i int) int { return i }, 0.95, 1},
		{"two-streams", func(i int) int { return i%2*(n/2) + i/2 }, 0.95, 1},
		// The run's leaf ends in a larger key from the start (another
		// stream's first key, or data loaded earlier): no insert of the
		// run ever lands at the tail of its leaf.
		{"ascending-below-a-key", func(i int) int { return (i + n) % (n + 1) }, 0.95, 1},
		{"random", func(i int) int { return perm[i] }, 0.68, 0.72},
		{"random-then-ascending", func(i int) int {
			if i < n/2 {
				return halfPerm[i]
			}
			return i
		}, 0.80, 1},
		{"descending", func(i int) int { return n - 1 - i }, 0.49, 1},
	}
	for _, nodeSize := range []int{256, 1024} {
		for _, p := range patterns {
			t.Run(fmt.Sprintf("%s/%d", p.name, nodeSize), func(t *testing.T) {
				tr, pool := newTree(t, "OptiQL", nodeSize)
				c := ctxFor(t, pool)
				for i := 0; i < n; i++ {
					k := uint64(p.key(i))
					tr.Insert(c, k, k)
				}
				checkInvariants(t, tr)
				fill, s := leafFill(tr), tr.Shape()
				t.Logf("fill %.3f, %+v", fill, s)
				if fill < p.lo || fill > p.hi {
					t.Errorf("leaf fill %.3f outside [%.2f, %.2f]", fill, p.lo, p.hi)
				}
				if p.lo >= 0.95 && n == 1_000_000 && nodeSize == 256 && s.Height != 6 {
					t.Errorf("height %d after 1M packed keys at fanout 14, want 6", s.Height)
				}
			})
		}
	}
}

// TestShapeFillConcurrentStreams is the benchmark's preload: one
// loader per CPU, each inserting its own ascending range, all at once.
// The hint is per node, so the streams must not disturb each other.
func TestShapeFillConcurrentStreams(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	for _, scheme := range []string{"OptiQL", "MCS-RW"} {
		for _, nodeSize := range []int{256, 1024} {
			t.Run(fmt.Sprintf("%s/%d", scheme, nodeSize), func(t *testing.T) {
				indextest.SkipIfOptimisticRace(t, locks.MustByName(scheme))
				tr, pool := newTree(t, scheme, nodeSize)
				loaders := runtime.GOMAXPROCS(0)
				per := (n + loaders - 1) / loaders
				var wg sync.WaitGroup
				for l := 0; l < loaders; l++ {
					lo, hi := l*per, min((l+1)*per, n)
					wg.Add(1)
					go func() {
						defer wg.Done()
						c := locks.NewCtx(pool, 8)
						defer c.Close()
						for k := uint64(lo); k < uint64(hi); k++ {
							tr.Insert(c, k, k)
						}
					}()
				}
				wg.Wait()
				checkInvariants(t, tr)
				fill, s := leafFill(tr), tr.Shape()
				t.Logf("%d loaders: fill %.3f, %+v", loaders, fill, s)
				if s.Keys != n || tr.Len() != n {
					t.Fatalf("Shape().Keys = %d, Len() = %d, want %d", s.Keys, tr.Len(), n)
				}
				if fill < 0.95 {
					t.Errorf("leaf fill %.3f under concurrent ascending streams, want >= 0.95", fill)
				}
				if n == 1_000_000 && nodeSize == 256 && s.Height != 6 {
					t.Errorf("height %d after 1M packed keys at fanout 14, want 6", s.Height)
				}
			})
		}
	}
}
