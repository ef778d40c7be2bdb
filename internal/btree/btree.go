// Package btree implements a memory-optimized concurrent B+-tree with
// optimistic lock coupling, in the style of BTreeOLC [29], adapted to
// OptiQL exactly as Section 6.1 and Algorithm 4 of the paper describe:
// readers traverse optimistically and validate versions hand over hand;
// updaters lock the target leaf directly in exclusive mode (no upgrade
// step) and then validate the parent; inserts that need a structural
// modification restart in pessimistic mode and exclusively couple down
// the tree.
//
// The tree is generic over the locking scheme (see internal/locks): the
// OptiQL schemes put OptiQL on leaves and keep centralized optimistic
// locks on inner nodes; pessimistic schemes (pthread, MCS-RW) turn the
// same code paths into classic pessimistic lock coupling, because their
// shared acquisitions block and always validate.
//
// Keys and values are uint64, matching the paper's 8-byte keys and
// 8-byte values (payload TIDs). Node size is configurable in bytes and
// determines the fanout, as in the Figure 11 node-size study.
package btree

import (
	"fmt"
	"sync/atomic"

	"optiql/internal/locks"
	"optiql/internal/simd"
)

// headerBytes models the per-node header (lock word, count, type,
// sibling pointer) when deriving fanout from the configured node size,
// mirroring the C++ layout the paper assumes.
const headerBytes = 32

// entryBytes is the space per slot: an 8-byte key plus an 8-byte value
// or child pointer.
const entryBytes = 16

// DefaultNodeSize follows the paper's evaluation setup (256-byte nodes,
// fanout 14).
const DefaultNodeSize = 256

// Config parameterizes a Tree.
type Config struct {
	// Scheme selects the locking scheme; required.
	Scheme *locks.Scheme
	// NodeSize is the modelled node size in bytes (DefaultNodeSize if
	// zero). Fanout = (NodeSize - 32) / 16, minimum 4.
	NodeSize int
}

// Tree is the concurrent B+-tree. All operations take the calling
// worker's *locks.Ctx, which supplies the queue nodes exclusive
// acquisitions need.
type Tree struct {
	root   atomic.Pointer[node]
	scheme *locks.Scheme
	fanout int // max keys per node (leaf and inner)
	class  int // size class serving fanout (node.go); classHeap when none
	// span is how many leading bytes of a child the read descent
	// prefetches (prefetchSpan, node.go).
	span uintptr
	size atomic.Int64
	// leafFree/innerFree recycle nodes emptied by merges and root
	// collapses (type-stable reuse; node.go). Separate lists per role
	// keep the leaf flag immutable for a node's whole lifetime.
	leafFree  *locks.Recycler
	innerFree *locks.Recycler
	aorLeaf   bool
}

// node is the common header of every node. The slices alias inline
// arrays of the node's size-class struct (node.go) — header and slots
// are one allocation — and are written exactly once, at construction:
// a recycled node keeps its slice headers, its lock and its leaf flag
// for life, so racy optimistic readers always observe a stable layout
// (only contents can be torn, and torn reads fail version validation).
type node struct {
	lock locks.Lock
	leaf bool
	// pshift encodes the inner node's shared separator prefix for the
	// truncated descent search: the separators agree on their top
	// (64-pshift)/8 bytes (fp.go). Read racily; any value is shift-safe.
	pshift uint8
	// seqNext is the slot after the node's last insert and seqRun
	// whether that insert itself landed on the then seqNext: together
	// the hint that an ascending run is filling the node, which picks
	// its split point (insertAndSplit, propagateSplit). Read and
	// written only under the exclusive lock, so never by an optimistic
	// reader; both live in what was header padding.
	seqRun  bool
	seqNext uint16
	// count is the number of live keys. It is read racily by optimistic
	// traversals and therefore always used clamped; version validation
	// rejects any result derived from a torn view.
	count    int
	keys     []uint64
	values   []uint64 // leaves only
	children []*node  // inner nodes only; count+1 live entries
	next     *node    // leaves only: right sibling, for scans
	// fps aliases the node's inline fingerprint array (node.go),
	// padded to whole SWAR words. Leaves: fps[i] = fpHash(keys[i]).
	// Inner nodes: fps[i] = discriminating byte of separator i under
	// prefix truncation. Maintained under the exclusive lock alongside
	// the key array (fp.go).
	fps []byte
	// pfx is the inner node's shared separator prefix value,
	// keys[*] >> pshift.
	pfx uint64
}

// New creates an empty tree under the given configuration.
func New(cfg Config) (*Tree, error) {
	if cfg.Scheme == nil {
		return nil, fmt.Errorf("btree: Config.Scheme is required")
	}
	if !cfg.Scheme.SharedMode {
		return nil, fmt.Errorf("btree: scheme %s does not support shared mode", cfg.Scheme.Name)
	}
	size := cfg.NodeSize
	if size == 0 {
		size = DefaultNodeSize
	}
	fanout := (size - headerBytes) / entryBytes
	if fanout < 4 {
		fanout = 4
	}
	class := classFor(fanout)
	t := &Tree{
		scheme:    cfg.Scheme,
		fanout:    fanout,
		class:     class,
		span:      prefetchSpan(class),
		leafFree:  locks.NewRecycler(),
		innerFree: locks.NewRecycler(),
		aorLeaf:   cfg.Scheme.AOR(),
	}
	t.root.Store(t.newLeaf(nil))
	return t, nil
}

// MustNew is New for static configuration; it panics on error.
func MustNew(cfg Config) *Tree {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Fanout returns the maximum number of keys per node.
func (t *Tree) Fanout() int { return t.fanout }

// Len returns the number of keys in the tree (maintained with atomic
// counters; exact when quiescent).
func (t *Tree) Len() int { return int(t.size.Load()) }

// Height returns the current height (1 = root is a leaf). It is meant
// for diagnostics and takes no locks.
func (t *Tree) Height() int {
	h := 1
	for n := t.root.Load(); !n.leaf; n = n.children[0] {
		h++
	}
	return h
}

// Shape is the tree's node census: Keys / (Leaves * Fanout()) is the
// leaf fill.
type Shape struct {
	Leaves, Inner, Height, Keys int
}

// Shape walks the whole tree without locks; like Height it is a
// diagnostic for a quiescent tree.
func (t *Tree) Shape() Shape {
	var s Shape
	s.walk(t.root.Load(), 1)
	return s
}

func (s *Shape) walk(n *node, depth int) {
	if n.leaf {
		s.Leaves++
		s.Keys += n.count
		s.Height = depth
		return
	}
	s.Inner++
	for _, child := range n.children[:n.count+1] {
		s.walk(child, depth+1)
	}
}

// clampedCount returns count clamped to the slot capacity, defending
// index computations against torn racy reads (any wrong result is
// rejected by version validation afterwards).
func (n *node) clampedCount() int {
	c := n.count
	if c < 0 {
		return 0
	}
	if c > len(n.keys) {
		return len(n.keys)
	}
	return c
}

// linearCap is the largest fanout searched by the unrolled branch-free
// linear kernels; larger classes use the branchless binary kernels and
// (for inner nodes) the prefix-truncated byte search. Covers size
// classes 14 and 30, whose whole key array is one to four sequential
// cache lines — exactly where a linear sweep beats binary probing.
const linearCap = 30

// childIndex returns the descent slot for k: the first i with
// k < keys[i], so children[i] covers k. Safe under racy reads: every
// kernel clamps its bounds, torn prefix metadata only misroutes the
// descent (caught by version validation), and Go defines oversized
// shifts as 0 so a garbage pshift cannot fault.
//
//optiql:noalloc
func (n *node) childIndex(k uint64) int {
	cnt := n.clampedCount()
	if len(n.keys) <= linearCap {
		return simd.CountLessEq(n.keys, cnt, k)
	}
	if ps := n.pshift; ps >= 8 && ps <= 64 {
		// Prefix-truncated search: route on the shared prefix, then
		// binary-search the 1-byte discriminators, then full-compare
		// only the run of equal discriminator bytes.
		if kc := k >> ps; kc != n.pfx {
			if kc < n.pfx {
				return 0
			}
			return cnt
		}
		kb := byte(k >> (ps - 8))
		lo := simd.LowerBoundBytes(n.fps, cnt, kb)
		hi := simd.UpperBoundBytes(n.fps, cnt, kb)
		if hi < lo {
			hi = lo // torn discriminators; validation will reject
		}
		return lo + simd.UpperBound(n.keys[lo:], hi-lo, k)
	}
	return simd.UpperBound(n.keys, cnt, k)
}

// lowerBound returns the first index with keys[i] >= k among the live
// keys. Safe under racy reads.
//
//optiql:noalloc
func (n *node) lowerBound(k uint64) int {
	cnt := n.clampedCount()
	if len(n.keys) <= linearCap {
		return simd.CountLess(n.keys, cnt, k)
	}
	return simd.LowerBound(n.keys, cnt, k)
}

// leafFind returns the slot of k and whether it is present. Safe under
// racy reads. Point lookups use leafGet (fp.go) instead, which probes
// the fingerprint array; leafFind is the position-returning form the
// write paths and scans need.
//
//optiql:noalloc
func (n *node) leafFind(k uint64) (int, bool) {
	i := n.lowerBound(k)
	return i, i < n.clampedCount() && n.keys[i] == k
}

func (n *node) full() bool { return n.count >= len(n.keys) }
