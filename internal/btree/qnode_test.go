package btree

import (
	"math/rand"
	"strings"
	"testing"

	"optiql/internal/core"
	"optiql/internal/locks"
)

// TestWriteQNodeBound runs splits, merges and borrows on a Ctx whose
// pool holds exactly WriteQNodes queue nodes, so a write path that
// held one more would panic with an exhausted pool. Fanout 4 makes
// nearly every write a structure modification.
func TestWriteQNodeBound(t *testing.T) {
	for _, nodeSize := range []int{96, DefaultNodeSize} {
		tr, err := New(Config{Scheme: locks.MustByName("OptiQL"), NodeSize: nodeSize})
		if err != nil {
			t.Fatal(err)
		}
		c := locks.NewCtx(core.NewPool(WriteQNodes), 0)
		rng := rand.New(rand.NewSource(int64(nodeSize)))
		model := make(map[uint64]bool)
		for i := 0; i < 20000; i++ {
			k := uint64(rng.Intn(2000))
			if rng.Intn(3) == 0 {
				if got := tr.Delete(c, k); got != model[k] {
					t.Fatalf("node size %d: delete %d = %v, model %v", nodeSize, k, got, model[k])
				}
				delete(model, k)
			} else {
				if got := tr.Insert(c, k, k); got == model[k] {
					t.Fatalf("node size %d: insert %d = %v, model had it %v", nodeSize, k, got, model[k])
				}
				model[k] = true
			}
		}
		checkInvariants(t, tr)
		c.Close()
	}
}

// TestWriteQNodeBoundIsTight: one node fewer than WriteQNodes is not
// enough — a delete that rebalances locks its leaf and a sibling.
func TestWriteQNodeBoundIsTight(t *testing.T) {
	tr, err := New(Config{Scheme: locks.MustByName("OptiQL"), NodeSize: 96})
	if err != nil {
		t.Fatal(err)
	}
	c := locks.NewCtx(core.NewPool(WriteQNodes-1), 0)
	for k := uint64(0); k < 64; k++ {
		tr.Insert(c, k, k)
	}
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "queue-node pool exhausted") {
			t.Fatalf("draining with %d queue nodes: recovered %v, want an exhausted pool", WriteQNodes-1, r)
		}
	}()
	for k := uint64(0); k < 64; k++ {
		tr.Delete(c, k)
	}
}
