package btree

import (
	"fmt"
	"testing"

	"optiql/internal/core"
	"optiql/internal/indextest"
	"optiql/internal/locks"
	"optiql/internal/obs/trace"
)

// TestLookupAllocs pins the point-read alloc budget at zero: the flat
// node layout keeps the descent free of slice headers and the lock
// schemes keep their queue nodes in the Ctx, so a Lookup must not
// touch the heap at all.
func TestLookupAllocs(t *testing.T) {
	for _, scheme := range []string{"OptiQL", "OptLock", "MCS-RW"} {
		// Node sizes cover the kernel dispatch tiers: linear classes
		// (256), branchless binary + prefix truncation (1024, 4096) and
		// the heap fallback beyond the largest class (8192).
		for _, nodeSize := range []int{256, 1024, 4096, 8192} {
			t.Run(fmt.Sprintf("%s/%d", scheme, nodeSize), func(t *testing.T) {
				indextest.SkipIfOptimisticRace(t, locks.MustByName(scheme))
				tr, err := New(Config{Scheme: locks.MustByName(scheme), NodeSize: nodeSize})
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
}

// TestTracedLookupAllocs pins the traced point-read budget at zero:
// with a tracer attached and every operation sampled (SampleEvery 1 —
// the worst case; production uses 1-in-1024), the Lookup path plus its
// span recording, hot-key offers and lock-wait histogram updates must
// still never touch the heap. This is the contention profiler's core
// promise: observation without allocation.
func TestTracedLookupAllocs(t *testing.T) {
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
			tracer := trace.New(trace.Config{SampleEvery: 1, BufCap: 1024})
			tb := tracer.NewBuf(0)
			c.SetTrace(tb)
			for k := uint64(0); k < 10000; k++ {
				tr.Insert(c, k, k*3)
			}
			k := uint64(0)
			allocs := testing.AllocsPerRun(1000, func() {
				// The caller-side sampling mirrors bench.MeasureIndex: a
				// draw, a clock read, a hot-key offer and a tree-op span
				// around the lookup — all on the zero-alloc hot path.
				sampled := tb.Sample()
				var t0 int64
				if sampled {
					t0 = tb.Now()
					tb.NoteKey(k)
				}
				v, ok := tr.Lookup(c, k)
				if !ok || v != k*3 {
					t.Fatalf("Lookup(%d) = (%d, %v)", k, v, ok)
				}
				if sampled {
					tb.Record(trace.KindTreeOp, 0, t0, tb.Now()-t0, 0, k)
				}
				k = (k + 7919) % 10000
			})
			if allocs != 0 {
				t.Errorf("traced Lookup allocates %.1f objects per op, want 0", allocs)
			}
			if snap := tracer.Snapshot(); snap.Recorded == 0 {
				t.Fatal("tracer recorded nothing — the test exercised a dead path")
			}
		})
	}
}

// TestScanAllocs pins the scan alloc budget: with a caller-provided
// output buffer the sibling-chain walk stages batches on the stack —
// or, for fanouts beyond the stack scratch, in the worker Ctx's
// lazily-grown staging buffer — so steady-state scans must not
// allocate at any fanout. (AllocsPerRun's warm-up round absorbs the
// one-time staging growth, exactly like production steady state.)
func TestScanAllocs(t *testing.T) {
	for _, nodeSize := range []int{256, 4096, 8192} {
		t.Run(fmt.Sprintf("%d", nodeSize), func(t *testing.T) {
			scheme := locks.MustByName("OptiQL")
			indextest.SkipIfOptimisticRace(t, scheme)
			tr, err := New(Config{Scheme: scheme, NodeSize: nodeSize})
			if err != nil {
				t.Fatal(err)
			}
			pool := core.NewPool(16)
			c := locks.NewCtx(pool, 8)
			defer c.Close()
			for k := uint64(0); k < 10000; k++ {
				tr.Insert(c, k, k)
			}
			buf := make([]KV, 0, 512)
			k := uint64(0)
			allocs := testing.AllocsPerRun(1000, func() {
				// Cross a leaf boundary even at the largest fanouts so the
				// staging buffer is exercised across the sibling walk.
				want := tr.Fanout() + 2
				out := tr.Scan(c, k, want, buf[:0])
				if len(out) != want {
					t.Fatalf("Scan(%d) returned %d pairs, want %d", k, len(out), want)
				}
				k = (k + 7919) % 9000
			})
			if allocs != 0 {
				t.Errorf("Scan allocates %.1f objects per op, want 0", allocs)
			}
		})
	}
}

// TestWriteAllocs pins the write alloc budget at zero in steady state.
// The B+-tree takes exclusive locks directly (no Upgrade), so its tokens
// never had a reason to leave the stack; the Delete + Insert case
// removes and restores a run of three nodes' worth of keys, so the
// leaves its merges free and its splits take come from the Recycler.
func TestWriteAllocs(t *testing.T) {
	for _, name := range []string{"OptiQL", "OptLock", "MCS-RW"} {
		t.Run(name, func(t *testing.T) {
			scheme := locks.MustByName(name)
			indextest.SkipIfOptimisticRace(t, scheme)
			tr, err := New(Config{Scheme: scheme, NodeSize: 256})
			if err != nil {
				t.Fatal(err)
			}
			pool := core.NewPool(16)
			c := locks.NewCtx(pool, 8)
			defer c.Close()
			const keys = 10000
			for k := uint64(0); k < keys; k++ {
				tr.Insert(c, k, k*3)
			}
			run := 3 * uint64(tr.Fanout())
			before := tr.Shape().Leaves
			for d := uint64(0); d < run; d++ {
				tr.Delete(c, d)
			}
			if after := tr.Shape().Leaves; after >= before {
				t.Fatalf("deleting a run of %d keys left %d leaves of %d: the Delete + Insert case below would not reach the Recycler", run, after, before)
			}
			for d := uint64(0); d < run; d++ {
				tr.Insert(c, d, d*3)
			}
			k := uint64(0)
			cases := []struct {
				name string
				op   func()
			}{
				{"Update", func() {
					if !tr.Update(c, k, k+1) {
						t.Fatalf("Update(%d) missed", k)
					}
				}},
				{"upsert Insert", func() {
					if tr.Insert(c, k, k+2) {
						t.Fatalf("Insert(%d) of an existing key reported a new key", k)
					}
				}},
				{"Delete + Insert", func() {
					for d := k; d < k+run; d++ {
						if !tr.Delete(c, d) {
							t.Fatalf("Delete(%d) missed", d)
						}
					}
					for d := k; d < k+run; d++ {
						if !tr.Insert(c, d, d*3) {
							t.Fatalf("Insert(%d) after Delete reported an existing key", d)
						}
					}
				}},
			}
			for _, tc := range cases {
				allocs := testing.AllocsPerRun(1000, func() {
					tc.op()
					k = (k + 7919) % (keys - run)
				})
				if allocs != 0 {
					t.Errorf("%s allocates %.1f objects per op, want 0", tc.name, allocs)
				}
			}
		})
	}
}
