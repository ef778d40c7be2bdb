package art

import (
	"math/rand"
	"strings"
	"testing"

	"optiql/internal/core"
	"optiql/internal/locks"
)

// TestWriteQNodeBound runs inserts, node growth, shrinks and path
// compression on a Ctx whose pool holds exactly WriteQNodes queue
// nodes, so a write path that held one more would panic with an
// exhausted pool. Keys share long prefixes so deletes compress paths.
func TestWriteQNodeBound(t *testing.T) {
	tr, err := New(Config{Scheme: locks.MustByName("OptiQL")})
	if err != nil {
		t.Fatal(err)
	}
	c := locks.NewCtx(core.NewPool(WriteQNodes), 0)
	defer c.Close()
	compressThreeLocks(t, tr, c)
	rng := rand.New(rand.NewSource(5))
	model := make(map[uint64]bool)
	for i := 0; i < 20000; i++ {
		k := uint64(rng.Intn(64))<<40 | uint64(rng.Intn(64))<<8 | uint64(rng.Intn(4))
		if rng.Intn(2) == 0 {
			if got := tr.Delete(c, k); got != model[k] {
				t.Fatalf("delete %#x = %v, model %v", k, got, model[k])
			}
			delete(model, k)
		} else {
			if got := tr.Insert(c, k, k); got == model[k] {
				t.Fatalf("insert %#x = %v, model had it %v", k, got, model[k])
			}
			model[k] = true
		}
	}
	checkInvariants(t, tr)
}

// TestWriteQNodeBoundIsTight: one node fewer than WriteQNodes is not
// enough — compressing a path holds three nodes.
func TestWriteQNodeBoundIsTight(t *testing.T) {
	tr, err := New(Config{Scheme: locks.MustByName("OptiQL")})
	if err != nil {
		t.Fatal(err)
	}
	c := locks.NewCtx(core.NewPool(WriteQNodes-1), 0)
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "queue-node pool exhausted") {
			t.Fatalf("path compression with %d queue nodes: recovered %v, want an exhausted pool", WriteQNodes-1, r)
		}
	}()
	compressThreeLocks(t, tr, c)
}

// compressThreeLocks builds a Node4 holding one leaf and one inner
// node under the root, then deletes the leaf: the delete upgrades the
// Node4 and the root, and compressPath upgrades the inner child.
func compressThreeLocks(t *testing.T, tr *Tree, c *locks.Ctx) {
	t.Helper()
	const a, b, d = 0x1100000000000000, 0x1122000000000000, 0x1122000000000001
	for _, k := range []uint64{a, b, d} {
		tr.Insert(c, k, k)
	}
	if !tr.Delete(c, a) {
		t.Fatal("delete miss")
	}
	for _, k := range []uint64{b, d} {
		if v, ok := tr.Lookup(c, k); !ok || v != k {
			t.Fatalf("lookup %#x after compression = (%#x, %v)", k, v, ok)
		}
	}
	tr.Delete(c, b)
	tr.Delete(c, d)
}
