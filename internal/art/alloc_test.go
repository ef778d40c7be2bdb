package art

import (
	"testing"

	"optiql/internal/core"
	"optiql/internal/indextest"
	"optiql/internal/locks"
)

// TestLookupAllocs pins the point-read alloc budget at zero: flat
// nodes keep the descent free of slice headers and the lock schemes
// keep their queue nodes in the Ctx, so a Lookup must not touch the
// heap at all.
func TestLookupAllocs(t *testing.T) {
	for _, scheme := range []string{"OptiQL", "OptLock", "MCS-RW"} {
		t.Run(scheme, func(t *testing.T) {
			indextest.SkipIfOptimisticRace(t, locks.MustByName(scheme))
			tr, err := New(Config{Scheme: locks.MustByName(scheme)})
			if err != nil {
				t.Fatal(err)
			}
			pool := core.NewPool(16)
			c := locks.NewCtx(pool, 8)
			defer c.Close()
			for k := uint64(0); k < 10000; k++ {
				tr.Insert(c, k, k*3)
			}
			k := uint64(0)
			allocs := testing.AllocsPerRun(1000, func() {
				v, ok := tr.Lookup(c, k)
				if !ok || v != k*3 {
					t.Fatalf("Lookup(%d) = (%d, %v)", k, v, ok)
				}
				k = (k + 7919) % 10000
			})
			if allocs != 0 {
				t.Errorf("Lookup allocates %.1f objects per op, want 0", allocs)
			}
		})
	}
}

// TestScanAllocs pins the scan alloc budget: the walk's path and
// slot-snapshot scratch comes from a pool and the caller provides the
// output buffer, so steady-state scans stay off the heap. The budget
// is <1 rather than exactly 0 because a GC cycle during the run can
// empty the scratch pool and force one refill allocation.
func TestScanAllocs(t *testing.T) {
	scheme := locks.MustByName("OptiQL")
	indextest.SkipIfOptimisticRace(t, scheme)
	tr, err := New(Config{Scheme: scheme})
	if err != nil {
		t.Fatal(err)
	}
	pool := core.NewPool(16)
	c := locks.NewCtx(pool, 8)
	defer c.Close()
	for k := uint64(0); k < 10000; k++ {
		tr.Insert(c, k, k)
	}
	buf := make([]KV, 0, 64)
	k := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		out := tr.Scan(c, k, 16, buf[:0])
		if len(out) != 16 {
			t.Fatalf("Scan(%d) returned %d pairs", k, len(out))
		}
		k = (k + 7919) % 9000
	})
	if allocs >= 1 {
		t.Errorf("Scan allocates %.1f objects per op, want <1", allocs)
	}
}

// TestWriteAllocs pins the write alloc budget at zero in steady state:
// tokens travel through the locks.Lock interface by value (a *Token
// argument escapes at every Upgrade call site), and a Delete followed
// by a re-Insert gets its leaf and its node back from the Recycler.
// Keys come in pairs that differ in byte 6 only, so each pair hangs off
// its own Node4 above the last level: writes to it upgrade under every
// optimistic scheme (OptiQL queues directly only at the last level),
// and deleting one of the two folds the Node4 away.
func TestWriteAllocs(t *testing.T) {
	const pairs = 5000
	first := func(i uint64) uint64 { return i << 16 }
	second := func(i uint64) uint64 { return i<<16 | 0x100 }
	for _, name := range []string{"OptiQL", "OptLock", "MCS-RW"} {
		t.Run(name, func(t *testing.T) {
			scheme := locks.MustByName(name)
			indextest.SkipIfOptimisticRace(t, scheme)
			tr, err := New(Config{Scheme: scheme})
			if err != nil {
				t.Fatal(err)
			}
			pool := core.NewPool(16)
			c := locks.NewCtx(pool, 8)
			defer c.Close()
			for i := uint64(0); i < pairs; i++ {
				tr.Insert(c, first(i), i)
				tr.Insert(c, second(i), i)
			}
			if scheme.Optimistic {
				// Pessimistic schemes skip the structural cleanup.
				before, _, _, _, _ := tr.NodeCounts()
				tr.Delete(c, second(0))
				if after, _, _, _, _ := tr.NodeCounts(); after != before-1 {
					t.Fatalf("deleting half a pair left %d Node4s of %d: the Delete + Insert case below would not reach the node Recycler", after, before)
				}
				tr.Insert(c, second(0), 0)
			}
			i := uint64(0)
			cases := []struct {
				name string
				op   func()
			}{
				{"Update", func() {
					if !tr.Update(c, first(i), i+1) {
						t.Fatalf("Update(%#x) missed", first(i))
					}
				}},
				{"upsert Insert", func() {
					if tr.Insert(c, first(i), i+2) {
						t.Fatalf("Insert(%#x) of an existing key reported a new key", first(i))
					}
				}},
				{"Delete + Insert", func() {
					if !tr.Delete(c, second(i)) {
						t.Fatalf("Delete(%#x) missed", second(i))
					}
					if !tr.Insert(c, second(i), i) {
						t.Fatalf("Insert(%#x) after Delete reported an existing key", second(i))
					}
				}},
			}
			for _, tc := range cases {
				allocs := testing.AllocsPerRun(1000, func() {
					tc.op()
					i = (i + 1777) % pairs
				})
				if allocs != 0 {
					t.Errorf("%s allocates %.1f objects per op, want 0", tc.name, allocs)
				}
			}
		})
	}
}
