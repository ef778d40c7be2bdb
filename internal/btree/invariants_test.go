package btree

import (
	"math/bits"
	"testing"
)

// checkInvariants walks the quiescent tree white-box and verifies the
// structural invariants every operation must preserve:
//   - key counts within capacity, and no node but the root empty,
//   - keys strictly sorted inside every node,
//   - child separator ranges respected,
//   - all leaves at the same depth,
//   - the leaf sibling chain visits exactly the tree's leaves in order,
//   - Len() equals the number of stored pairs,
//   - leaf fingerprints match fpHash of their keys slot for slot,
//   - inner prefix metadata (pshift/pfx) and discriminating bytes match
//     a from-scratch recomputation over the live separators.
func checkInvariants(t *testing.T, tr *Tree) {
	t.Helper()
	root := tr.root.Load()
	var leaves []*node
	total := 0
	leafDepth := -1

	var walk func(n *node, lo, hi uint64, hasLo, hasHi bool, depth int)
	walk = func(n *node, lo, hi uint64, hasLo, hasHi bool, depth int) {
		if n.count < 0 || n.count > len(n.keys) {
			t.Fatalf("node count %d out of range [0,%d]", n.count, len(n.keys))
		}
		for i := 1; i < n.count; i++ {
			if n.keys[i-1] >= n.keys[i] {
				t.Fatalf("keys not strictly sorted at %d: %d >= %d", i, n.keys[i-1], n.keys[i])
			}
		}
		for i := 0; i < n.count; i++ {
			k := n.keys[i]
			if hasLo && k < lo {
				t.Fatalf("key %d below lower bound %d", k, lo)
			}
			if hasHi && k >= hi {
				t.Fatalf("key %d not below upper bound %d", k, hi)
			}
		}
		if n != root && n.count == 0 {
			t.Fatalf("empty non-root node (leaf=%v) at depth %d", n.leaf, depth)
		}
		if n.leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if depth != leafDepth {
				t.Fatalf("leaf at depth %d, expected %d", depth, leafDepth)
			}
			for i := 0; i < n.count; i++ {
				if n.fps[i] != fpHash(n.keys[i]) {
					t.Fatalf("leaf fingerprint %d stale: fps=%#x, want fpHash(%d)=%#x", i, n.fps[i], n.keys[i], fpHash(n.keys[i]))
				}
			}
			leaves = append(leaves, n)
			total += n.count
			return
		}
		if n.count > 0 {
			pb := bits.LeadingZeros64(n.keys[0]^n.keys[n.count-1]) / 8
			if pb > 7 {
				pb = 7
			}
			ps := uint8(64 - 8*pb)
			if n.pshift != ps || n.pfx != n.keys[0]>>ps {
				t.Fatalf("inner prefix metadata stale: pshift=%d pfx=%#x, want pshift=%d pfx=%#x", n.pshift, n.pfx, ps, n.keys[0]>>ps)
			}
			for i := 0; i < n.count; i++ {
				if n.fps[i] != byte(n.keys[i]>>(ps-8)) {
					t.Fatalf("inner discriminating byte %d stale: fps=%#x, want %#x (key %#x)", i, n.fps[i], byte(n.keys[i]>>(ps-8)), n.keys[i])
				}
			}
		}
		for i := 0; i <= n.count; i++ {
			child := n.children[i]
			if child == nil {
				t.Fatalf("nil child %d of inner node with count %d", i, n.count)
			}
			clo, chasLo := lo, hasLo
			chi, chasHi := hi, hasHi
			if i > 0 {
				clo, chasLo = n.keys[i-1], true
			}
			if i < n.count {
				chi, chasHi = n.keys[i], true
			}
			walk(child, clo, chi, chasLo, chasHi, depth+1)
		}
	}
	walk(root, 0, 0, false, false, 0)

	if total != tr.Len() {
		t.Fatalf("Len() = %d but tree stores %d pairs", tr.Len(), total)
	}
	// The sibling chain from the leftmost leaf must visit exactly the
	// in-order leaves.
	first := root
	for !first.leaf {
		first = first.children[0]
	}
	i := 0
	for n := first; n != nil; n = n.next {
		if i >= len(leaves) || leaves[i] != n {
			t.Fatalf("sibling chain diverges from in-order leaves at %d", i)
		}
		i++
	}
	if i != len(leaves) {
		t.Fatalf("sibling chain has %d leaves, tree has %d", i, len(leaves))
	}
}

func TestInvariantsAfterSequentialOps(t *testing.T) {
	tr, pool := newTree(t, "OptiQL", 256)
	c := ctxFor(t, pool)
	for i := uint64(0); i < 5000; i++ {
		tr.Insert(c, i*7%5000, i)
	}
	checkInvariants(t, tr)
	for i := uint64(0); i < 5000; i += 3 {
		tr.Delete(c, i)
	}
	checkInvariants(t, tr)
	for i := uint64(0); i < 1000; i++ {
		tr.Insert(c, 10000+i, i)
	}
	checkInvariants(t, tr)
}

// Concurrent invariant coverage lives in oracle_test.go: the shared
// indextest harness runs the mixed workload across all schemes (and a
// fanout-4 variant) and calls checkInvariants on the quiescent tree.
