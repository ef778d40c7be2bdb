package btree

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"optiql/internal/core"
	"optiql/internal/indextest"
	"optiql/internal/locks"
)

// indexSchemes are the schemes the paper runs index workloads with.
func indexSchemes() []string {
	return []string{"OptLock", "OptiQL", "OptiQL-NOR", "OptiQL-AOR", "pthread", "MCS-RW"}
}

func newTree(t testing.TB, scheme string, nodeSize int) (*Tree, *core.Pool) {
	t.Helper()
	tr, err := New(Config{Scheme: locks.MustByName(scheme), NodeSize: nodeSize})
	if err != nil {
		t.Fatal(err)
	}
	return tr, core.NewPool(256)
}

func ctxFor(t testing.TB, pool *core.Pool) *locks.Ctx {
	t.Helper()
	c := locks.NewCtx(pool, 8)
	t.Cleanup(c.Close)
	return c
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a nil scheme")
	}
	if _, err := New(Config{Scheme: locks.MustByName("TTS")}); err == nil {
		t.Fatal("New accepted a scheme without shared mode")
	}
	tr := MustNew(Config{Scheme: locks.MustByName("OptiQL")})
	if got, want := tr.Fanout(), (DefaultNodeSize-headerBytes)/entryBytes; got != want {
		t.Fatalf("default fanout = %d, want %d", got, want)
	}
	small := MustNew(Config{Scheme: locks.MustByName("OptiQL"), NodeSize: 16})
	if small.Fanout() < 4 {
		t.Fatalf("tiny node size produced fanout %d", small.Fanout())
	}
}

func TestEmptyTree(t *testing.T) {
	tr, pool := newTree(t, "OptiQL", 0)
	c := ctxFor(t, pool)
	if _, ok := tr.Lookup(c, 42); ok {
		t.Fatal("lookup hit in empty tree")
	}
	if tr.Update(c, 42, 1) {
		t.Fatal("update hit in empty tree")
	}
	if tr.Delete(c, 42) {
		t.Fatal("delete hit in empty tree")
	}
	if got := tr.Scan(c, 0, 10, nil); len(got) != 0 {
		t.Fatalf("scan of empty tree returned %d pairs", len(got))
	}
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("empty tree Len=%d Height=%d", tr.Len(), tr.Height())
	}
}

func TestInsertLookupSequential(t *testing.T) {
	for _, scheme := range indexSchemes() {
		t.Run(scheme, func(t *testing.T) {
			tr, pool := newTree(t, scheme, 256)
			c := ctxFor(t, pool)
			const n = 5000
			for i := uint64(0); i < n; i++ {
				if !tr.Insert(c, i, i*10) {
					t.Fatalf("insert %d reported duplicate", i)
				}
			}
			if tr.Len() != n {
				t.Fatalf("Len = %d, want %d", tr.Len(), n)
			}
			for i := uint64(0); i < n; i++ {
				v, ok := tr.Lookup(c, i)
				if !ok || v != i*10 {
					t.Fatalf("lookup %d = (%d, %v)", i, v, ok)
				}
			}
			if _, ok := tr.Lookup(c, n+1); ok {
				t.Fatal("lookup hit for absent key")
			}
			if tr.Height() < 2 {
				t.Fatalf("tree did not grow: height %d", tr.Height())
			}
		})
	}
}

func TestInsertRandomOrder(t *testing.T) {
	tr, pool := newTree(t, "OptiQL", 256)
	c := ctxFor(t, pool)
	rng := rand.New(rand.NewSource(7))
	keys := rng.Perm(8000)
	for _, k := range keys {
		tr.Insert(c, uint64(k), uint64(k)+1)
	}
	for _, k := range keys {
		v, ok := tr.Lookup(c, uint64(k))
		if !ok || v != uint64(k)+1 {
			t.Fatalf("lookup %d = (%d, %v)", k, v, ok)
		}
	}
}

func TestInsertDuplicateUpserts(t *testing.T) {
	tr, pool := newTree(t, "OptiQL", 256)
	c := ctxFor(t, pool)
	if !tr.Insert(c, 5, 50) {
		t.Fatal("first insert reported duplicate")
	}
	if tr.Insert(c, 5, 51) {
		t.Fatal("duplicate insert reported new")
	}
	if v, _ := tr.Lookup(c, 5); v != 51 {
		t.Fatalf("value after upsert = %d", v)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len after upsert = %d", tr.Len())
	}
}

// TestInsertPessimisticExistingKey replays the window in Insert's slow
// path: the fast path saw a full leaf without k, released it, and by
// the time insertPessimistic holds the leaf again another thread has
// inserted k. The overwrite must be reported as such — on a full root
// leaf and on a full child leaf (an ascending load leaves those full).
func TestInsertPessimisticExistingKey(t *testing.T) {
	tr, pool := newTree(t, "OptiQL", 256)
	c := ctxFor(t, pool)
	fanout := uint64(tr.Fanout())
	for _, n := range []uint64{fanout, 3 * fanout} {
		for k := uint64(tr.Len()); k < n; k++ {
			tr.Insert(c, k, k)
		}
		leaf := tr.root.Load()
		for !leaf.leaf {
			leaf = leaf.children[0]
		}
		if !leaf.full() {
			t.Fatalf("%d ascending keys left the first leaf at %d/%d", n, leaf.count, fanout)
		}
		if tr.insertPessimistic(c, 3, 333+n) {
			t.Errorf("height %d: insertPessimistic reported an existing key as new", tr.Height())
		}
		if v, ok := tr.Lookup(c, 3); !ok || v != 333+n {
			t.Errorf("height %d: value after pessimistic overwrite = (%d, %v)", tr.Height(), v, ok)
		}
		if tr.Len() != int(n) {
			t.Errorf("height %d: Len = %d after overwrite, want %d", tr.Height(), tr.Len(), n)
		}
	}
	if !tr.insertPessimistic(c, 3*fanout, 1) {
		t.Error("insertPessimistic reported a new key as existing")
	}
	checkInvariants(t, tr)
}

func TestUpdate(t *testing.T) {
	for _, scheme := range indexSchemes() {
		t.Run(scheme, func(t *testing.T) {
			tr, pool := newTree(t, scheme, 256)
			c := ctxFor(t, pool)
			for i := uint64(0); i < 2000; i++ {
				tr.Insert(c, i, i)
			}
			for i := uint64(0); i < 2000; i += 3 {
				if !tr.Update(c, i, i+100) {
					t.Fatalf("update miss for %d", i)
				}
			}
			if tr.Update(c, 999999, 1) {
				t.Fatal("update hit for absent key")
			}
			for i := uint64(0); i < 2000; i++ {
				want := i
				if i%3 == 0 {
					want = i + 100
				}
				if v, ok := tr.Lookup(c, i); !ok || v != want {
					t.Fatalf("lookup %d = (%d, %v), want %d", i, v, ok, want)
				}
			}
		})
	}
}

func TestDelete(t *testing.T) {
	tr, pool := newTree(t, "OptiQL", 256)
	c := ctxFor(t, pool)
	const n = 3000
	for i := uint64(0); i < n; i++ {
		tr.Insert(c, i, i)
	}
	for i := uint64(0); i < n; i += 2 {
		if !tr.Delete(c, i) {
			t.Fatalf("delete miss for %d", i)
		}
	}
	if tr.Delete(c, 0) {
		t.Fatal("double delete succeeded")
	}
	for i := uint64(0); i < n; i++ {
		_, ok := tr.Lookup(c, i)
		if want := i%2 == 1; ok != want {
			t.Fatalf("lookup %d present=%v want %v", i, ok, want)
		}
	}
	if tr.Len() != n/2 {
		t.Fatalf("Len after deletes = %d, want %d", tr.Len(), n/2)
	}
}

func TestScan(t *testing.T) {
	for _, scheme := range indexSchemes() {
		t.Run(scheme, func(t *testing.T) {
			tr, pool := newTree(t, scheme, 256)
			c := ctxFor(t, pool)
			for i := uint64(0); i < 1000; i++ {
				tr.Insert(c, i*2, i) // even keys
			}
			got := tr.Scan(c, 100, 10, nil)
			if len(got) != 10 {
				t.Fatalf("scan returned %d pairs", len(got))
			}
			for j, kv := range got {
				wantK := uint64(100 + 2*j)
				if kv.Key != wantK || kv.Value != wantK/2 {
					t.Fatalf("scan[%d] = %+v, want key %d", j, kv, wantK)
				}
			}
			// Start between keys.
			got = tr.Scan(c, 101, 3, nil)
			if len(got) != 3 || got[0].Key != 102 {
				t.Fatalf("scan from gap = %+v", got)
			}
			// Overrun the end.
			got = tr.Scan(c, 1990, 100, nil)
			if len(got) != 5 {
				t.Fatalf("tail scan returned %d pairs, want 5", len(got))
			}
			// Max zero.
			if got := tr.Scan(c, 0, 0, nil); len(got) != 0 {
				t.Fatal("scan with max 0 returned data")
			}
		})
	}
}

func TestScanAcrossDeletedRange(t *testing.T) {
	tr, pool := newTree(t, "OptiQL", 256)
	c := ctxFor(t, pool)
	for i := uint64(0); i < 2000; i++ {
		tr.Insert(c, i, i)
	}
	// Carve an empty stretch spanning multiple leaves.
	for i := uint64(500); i < 1500; i++ {
		tr.Delete(c, i)
	}
	got := tr.Scan(c, 450, 100, nil)
	if len(got) != 100 {
		t.Fatalf("scan returned %d pairs", len(got))
	}
	for j := 0; j < 50; j++ {
		if got[j].Key != uint64(450+j) {
			t.Fatalf("scan[%d].Key = %d", j, got[j].Key)
		}
	}
	for j := 50; j < 100; j++ {
		if got[j].Key != uint64(1500+j-50) {
			t.Fatalf("scan[%d].Key = %d, want %d", j, got[j].Key, 1500+j-50)
		}
	}
}

func TestNodeSizeSweepStructure(t *testing.T) {
	for _, size := range []int{256, 512, 1024, 4096} {
		tr, pool := newTree(t, "OptiQL", size)
		c := ctxFor(t, pool)
		const n = 4000
		for i := uint64(0); i < n; i++ {
			tr.Insert(c, i, i)
		}
		for i := uint64(0); i < n; i++ {
			if _, ok := tr.Lookup(c, i); !ok {
				t.Fatalf("size %d: missing key %d", size, i)
			}
		}
	}
}

// TestConcurrentInsertDisjoint has each goroutine insert its own key
// range; afterwards every key must be present exactly once.
func TestConcurrentInsertDisjoint(t *testing.T) {
	for _, scheme := range indexSchemes() {
		t.Run(scheme, func(t *testing.T) {
			indextest.SkipIfOptimisticRace(t, locks.MustByName(scheme))
			tr, pool := newTree(t, scheme, 256)
			const goroutines, per = 8, 3000
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
						if !tr.Insert(c, base+i, base+i) {
							t.Errorf("duplicate report for %d", base+i)
							return
						}
					}
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			c := ctxFor(t, pool)
			if tr.Len() != goroutines*per {
				t.Fatalf("Len = %d, want %d", tr.Len(), goroutines*per)
			}
			for k := uint64(0); k < goroutines*per; k++ {
				if v, ok := tr.Lookup(c, k); !ok || v != k {
					t.Fatalf("lookup %d = (%d, %v)", k, v, ok)
				}
			}
		})
	}
}

// TestConcurrentMixed runs inserts, updates, lookups, deletes and scans
// together and then verifies full consistency against a reference map.
func TestConcurrentMixed(t *testing.T) {
	for _, scheme := range indexSchemes() {
		t.Run(scheme, func(t *testing.T) {
			indextest.SkipIfOptimisticRace(t, locks.MustByName(scheme))
			tr, pool := newTree(t, scheme, 256)
			const goroutines, iters, keyspace = 8, 4000, 2048

			// Preload even keys.
			c0 := locks.NewCtx(pool, 8)
			for k := uint64(0); k < keyspace; k += 2 {
				tr.Insert(c0, k, k)
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
					rng := rand.New(rand.NewSource(int64(g)))
					for i := 0; i < iters; i++ {
						k := uint64(rng.Intn(keyspace))
						switch rng.Intn(5) {
						case 0:
							tr.Insert(c, k, k)
						case 1:
							tr.Update(c, k, k)
						case 2:
							tr.Delete(c, k)
						case 3:
							if v, ok := tr.Lookup(c, k); ok && v != k {
								t.Errorf("lookup %d returned foreign value %d", k, v)
								return
							}
						case 4:
							for _, kv := range tr.Scan(c, k, 16, nil) {
								if kv.Value != kv.Key {
									t.Errorf("scan returned inconsistent pair %+v", kv)
									return
								}
							}
						}
					}
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			// Whatever remains must be internally consistent and sorted.
			c := ctxFor(t, pool)
			all := tr.Scan(c, 0, keyspace+10, nil)
			if !sort.SliceIsSorted(all, func(i, j int) bool { return all[i].Key < all[j].Key }) {
				t.Fatal("scan output not sorted")
			}
			for i := 1; i < len(all); i++ {
				if all[i].Key == all[i-1].Key {
					t.Fatalf("duplicate key %d in scan", all[i].Key)
				}
			}
			for _, kv := range all {
				if v, ok := tr.Lookup(c, kv.Key); !ok || v != kv.Value {
					t.Fatalf("scan/lookup mismatch at %d", kv.Key)
				}
			}
		})
	}
}

// TestQuickInsertLookupDelete is a property test: any multiset of
// operations applied to the tree matches a reference map.
func TestQuickInsertLookupDelete(t *testing.T) {
	tr, pool := newTree(t, "OptiQL", 256)
	c := ctxFor(t, pool)
	ref := make(map[uint64]uint64)
	f := func(ops []uint16) bool {
		for _, op := range ops {
			k := uint64(op % 512)
			switch (op / 512) % 3 {
			case 0:
				tr.Insert(c, k, uint64(op))
				ref[k] = uint64(op)
			case 1:
				tr.Delete(c, k)
				delete(ref, k)
			case 2:
				v, ok := tr.Lookup(c, k)
				rv, rok := ref[k]
				if ok != rok || (ok && v != rv) {
					return false
				}
			}
		}
		if tr.Len() != len(ref) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLookup(b *testing.B) {
	tr, pool := newTree(b, "OptiQL", 256)
	c := locks.NewCtx(pool, 8)
	defer c.Close()
	for i := uint64(0); i < 100000; i++ {
		tr.Insert(c, i, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Lookup(c, uint64(i)%100000)
	}
}
