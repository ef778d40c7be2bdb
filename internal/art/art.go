// Package art implements the Adaptive Radix Tree [27] with the
// synchronization adaptations of Section 6.2 of the OptiQL paper:
// optimistic lock coupling [28] on every node, an upgrade interface
// that retains OptiQL's writer queue, direct (blocking) exclusive
// acquisition at last-level nodes, and contention expansion —
// materializing lazily-expanded paths whose leaves attract heavy
// updates so that updaters can queue on a last-level node instead of
// retrying upgrades.
//
// Keys are uint64, indexed big-endian one byte per level (at most 8
// levels). Values are uint64 payloads ("TIDs"). The tree supports the
// standard ART node kinds (Node4/16/48/256), path compression (a node
// stores the byte prefix it absorbs) and lazy expansion (a sub-path
// with a single key collapses into a leaf holding the full key).
//
// Structural invariants relied on for concurrency:
//   - A node's kind and prefix are immutable after publication.
//     Operations that would change them (growing a full node, splitting
//     a prefix) instead create replacement nodes, re-point the parent,
//     and mark the old node obsolete under its exclusive lock; its
//     version bump on release invalidates in-flight optimistic readers.
//   - Leaf keys are immutable while a leaf is reachable; only leaf
//     values are written, and only while the parent node (owner of the
//     child slot) is held exclusively. Readers validate the parent
//     version after reading.
//
// Nodes and leaves are recycled through per-kind free lists (node.go in
// the B+-tree has the same structure): a recycled object keeps its lock
// — and therefore its monotone version history — and its kind for life.
// Optimistic traversals acquire a child's version snapshot before
// validating the parent, so any snapshot a reader ends up trusting was
// taken while the node was still live; the exclusive release that
// precedes every free bumps the version and fails all later
// validations. The direct (blocking) paths, which skip that
// revalidation by design, instead check the obsolete flag under the
// lock and compare the per-life generation counter before treating
// anything they see as evidence about the traversed key's path.
package art

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"optiql/internal/locks"
	"optiql/internal/simd"
)

// WriteQNodes is the most pool queue nodes one write holds at once
// under the OptiQL schemes: a delete holds its node and the parent,
// and compressPath then upgrades the node's inner child too. Inserts
// hold at most a node and its parent.
const WriteQNodes = 3

type kind uint8

const (
	kind4 kind = iota
	kind16
	kind48
	kind256
)

// maxPrefix is the longest byte prefix a node can absorb; with 8-byte
// keys a compressed path never exceeds 7 bytes.
const maxPrefix = 8

// leaf holds a full key and its value (written only under the parent
// node's exclusive lock). Leaves are pooled: the key is immutable only
// within one reachable life, so readers must validate the owner node
// before trusting either field.
type leaf struct {
	key   uint64
	value uint64
}

// ref is a tagged child slot: exactly one of n and l is non-nil, or
// both are nil for an empty slot.
type ref struct {
	n *node
	l *leaf
}

func (r ref) empty() bool { return r.n == nil && r.l == nil }

// node is the common header of every inner node. The keys/children
// slices alias inline arrays of the node's kind struct (one allocation
// per node); the slice headers, the lock and the kind are written once
// at construction and never change, even across recycled lives.
type node struct {
	lock locks.Lock
	kind kind
	// obsolete is true from construction until the node is published
	// into a parent slot, and set again (under the exclusive lock) when
	// the node is replaced or unlinked. Threads that acquired the lock
	// blockingly — the direct update path and contention expansion —
	// must check it before acting on anything else they read.
	obsolete atomic.Bool
	// level is the node's depth: the number of key bytes consumed
	// before its prefix. Immutable per life, written before publication;
	// the direct paths use it instead of the (possibly stale) traversal
	// level.
	level int
	// gen counts the node's lives; it is bumped on every reuse. The
	// direct paths compare it across their blocking acquisition to tell
	// whether traversal-time evidence still applies (write.go).
	gen atomic.Uint32
	// numChildren is read racily by optimistic traversals; all derived
	// indexing is clamped and validated by version checks.
	numChildren int
	prefixLen   int
	prefix      [maxPrefix]byte
	// contention counts sampled upgrade failures (Section 6.2); once it
	// passes the threshold the hot path below this node is materialized.
	contention atomic.Uint32
	// keys: kind4/16 → branch bytes parallel to children;
	// kind48 → 256-entry indirection (child index + 1, 0 = empty);
	// kind256 → unused.
	keys     []byte
	children []ref
}

// Flat node layout: one struct per kind embedding the header and the
// inline key/child arrays, mirroring the single-allocation C++ nodes
// the paper evaluates. The header's slices alias the arrays.
type (
	flat4 struct {
		n node
		k [4]byte
		c [4]ref
	}
	flat16 struct {
		n node
		k [16]byte
		c [16]ref
	}
	flat48 struct {
		n node
		k [256]byte
		c [48]ref
	}
	flat256 struct {
		n node
		c [256]ref
	}
)

// makeNode builds one node of the given kind as a single allocation.
func makeNode(k kind) *node {
	var n *node
	switch k {
	case kind4:
		x := new(flat4)
		x.n.keys, x.n.children = x.k[:], x.c[:]
		n = &x.n
	case kind16:
		x := new(flat16)
		x.n.keys, x.n.children = x.k[:], x.c[:]
		n = &x.n
	case kind48:
		x := new(flat48)
		x.n.keys, x.n.children = x.k[:], x.c[:]
		n = &x.n
	default:
		x := new(flat256)
		x.n.children = x.c[:]
		n = &x.n
	}
	n.kind = k
	return n
}

// Config parameterizes a Tree.
type Config struct {
	// Scheme selects the locking scheme; required, must support readers.
	Scheme *locks.Scheme
	// ExpandThreshold is the contention-counter value that triggers
	// contention expansion (default 1024, per the paper).
	ExpandThreshold uint32
	// SampleInverse is the inverse sampling probability for bumping the
	// contention counter (default 10, i.e. p = 0.1).
	SampleInverse uint32
	// DisableExpansion turns contention expansion off (ablation).
	DisableExpansion bool
}

// Tree is the concurrent adaptive radix tree.
type Tree struct {
	root       *node // a Node256 that is never replaced
	scheme     *locks.Scheme
	size       atomic.Int64
	expansions atomic.Int64
	threshold  uint32
	sampleInv  uint32
	expand     bool
	// nodeFree recycles replaced/unlinked nodes per kind (kind is
	// immutable for an object's whole lifetime; see package comment).
	nodeFree [4]*locks.Recycler
	leafFree *locks.Recycler
}

// New creates an empty tree.
func New(cfg Config) (*Tree, error) {
	if cfg.Scheme == nil {
		return nil, fmt.Errorf("art: Config.Scheme is required")
	}
	if !cfg.Scheme.SharedMode {
		return nil, fmt.Errorf("art: scheme %s does not support shared mode", cfg.Scheme.Name)
	}
	if cfg.ExpandThreshold == 0 {
		cfg.ExpandThreshold = 1024
	}
	if cfg.SampleInverse == 0 {
		cfg.SampleInverse = 10
	}
	t := &Tree{
		scheme:    cfg.Scheme,
		threshold: cfg.ExpandThreshold,
		sampleInv: cfg.SampleInverse,
		expand:    !cfg.DisableExpansion,
	}
	for i := range t.nodeFree {
		t.nodeFree[i] = locks.NewRecycler()
	}
	t.leafFree = locks.NewRecycler()
	t.root = t.newNode(nil, kind256)
	t.root.obsolete.Store(false)
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

// Len returns the number of keys in the tree.
func (t *Tree) Len() int { return int(t.size.Load()) }

// Expansions returns how many contention expansions have been applied
// (diagnostics for the Figure 13 experiment).
func (t *Tree) Expansions() int { return int(t.expansions.Load()) }

// newNode returns an empty node of kind k, reusing a recycled one when
// available. A recycled node keeps its lock and kind; its generation is
// bumped so the direct paths can tell lives apart, and it stays marked
// obsolete until the caller publishes it into a parent slot.
func (t *Tree) newNode(c *locks.Ctx, k kind) *node {
	if x := t.nodeFree[k].Get(c); x != nil {
		n := x.(*node)
		n.gen.Add(1)
		locks.BumpOnReuse(n.lock)
		n.numChildren = 0
		n.prefixLen = 0
		n.level = 0
		n.contention.Store(0)
		return n
	}
	n := makeNode(k)
	n.lock = t.scheme.NewLock()
	n.obsolete.Store(true)
	return n
}

// freeNode recycles a node that has been unlinked or replaced. The
// caller guarantees the node was marked obsolete under its exclusive
// lock and that the lock has since been released (the release bumped
// the version, so every in-flight optimistic reader fails validation).
// Slots are cleared so the free list never pins live subtrees; the
// kind48 indirection table is cleared so a reused node starts from a
// consistent empty mapping.
func (t *Tree) freeNode(c *locks.Ctx, n *node) {
	n.obsolete.Store(true) // free sites set it under the lock; defensive
	n.numChildren = 0
	for i := range n.keys {
		n.keys[i] = 0
	}
	for i := range n.children {
		n.children[i] = ref{}
	}
	t.nodeFree[n.kind].Put(c, n)
}

// newLeaf returns a leaf holding (k, v), reusing a recycled one when
// available. Stale optimistic readers that race onto a reused leaf read
// the new key/value, but always validate the owner node — which changed
// when the leaf was unlinked — before trusting them.
func (t *Tree) newLeaf(c *locks.Ctx, k, v uint64) *leaf {
	//optiqlvet:ignore recycle leaves carry no lock of their own; a stale reader validates the former owner node, whose release bumped its version when the leaf was unlinked
	if x := t.leafFree.Get(c); x != nil {
		l := x.(*leaf)
		l.key, l.value = k, v
		return l
	}
	return &leaf{key: k, value: v}
}

// freeLeaf recycles a leaf removed from its owner node.
func (t *Tree) freeLeaf(c *locks.Ctx, l *leaf) {
	t.leafFree.Put(c, l)
}

// keyByte returns byte i (0 = most significant) of the big-endian key.
func keyByte(k uint64, i int) byte { return byte(k >> (56 - 8*i)) }

// checkPrefix compares the node's prefix against the key bytes starting
// at level, returning the number of matching bytes.
func checkPrefix(n *node, k uint64, level int) int {
	// prefixLen may be read under an optimistic (unvalidated) hold, so it
	// can be stale or torn; the maxPrefix conjunct keeps the prefix index
	// in bounds and the walked count bounds the result regardless, and
	// version validation rejects any comparison against torn state.
	i := 0
	for ; i < n.prefixLen && i < maxPrefix; i++ {
		if level+i >= 8 || keyByte(k, level+i) != n.prefix[i] {
			return i
		}
	}
	return i
}

// clampedChildren returns numChildren clamped to capacity, defending
// racy traversals.
func (n *node) clampedChildren() int {
	c := n.numChildren
	if c < 0 {
		return 0
	}
	max := len(n.children)
	if n.kind == kind48 {
		max = 48
	}
	if c > max {
		return max
	}
	return c
}

// findChild returns the child slot for branch byte b. Safe under racy
// reads; the result must be validated by the caller.
//
//optiql:noalloc
func (n *node) findChild(b byte) ref {
	switch n.kind {
	case kind4:
		cnt := n.clampedChildren()
		for i := 0; i < cnt; i++ {
			if n.keys[i] == b {
				return n.children[i]
			}
		}
	case kind16:
		// SWAR over the 16 branch bytes — the parallel byte comparison
		// the original ART paper assumes SIMD for on Node16. A torn mask
		// can only select a wrong slot, which version validation rejects.
		m := uint64(simd.Match16(n.keys, b))
		if m &= 1<<uint(n.clampedChildren()) - 1; m != 0 {
			i, _ := simd.NextMatch(m)
			return n.children[i]
		}
	case kind48:
		if idx := n.keys[b]; idx != 0 && int(idx) <= len(n.children) {
			return n.children[idx-1]
		}
	case kind256:
		return n.children[b]
	}
	return ref{}
}

// prefetchNode warms the first cache line of a node's header ahead of
// its lock acquisition. The lock field is an interface to a separate
// allocation, so nothing touches the header itself until checkPrefix
// runs after the acquire; prefetching overlaps that header miss with
// the lock-word access. Purely advisory and racy by design (see
// simd.Prefetch); compiled out under the race detector.
//
//optiql:noalloc
func prefetchNode(n *node) {
	if n != nil {
		simd.Prefetch(unsafe.Pointer(n))
	}
}

// full reports whether the node has no free slot (never true for
// Node256).
func (n *node) full() bool {
	switch n.kind {
	case kind4:
		return n.numChildren >= 4
	case kind16:
		return n.numChildren >= 16
	case kind48:
		return n.numChildren >= 48
	default:
		return false
	}
}

// addChild inserts (b -> r) into a node with a free slot. Caller holds
// the node exclusively. Writes are ordered so racy readers never see a
// slot count covering an unwritten slot.
func (n *node) addChild(b byte, r ref) {
	switch n.kind {
	case kind4, kind16:
		i := n.numChildren
		n.children[i] = r
		n.keys[i] = b
		n.numChildren = i + 1
	case kind48:
		// Find a free child slot (holes are left by removals).
		for i := 0; i < len(n.children); i++ {
			if n.children[i].empty() {
				n.children[i] = r
				n.keys[b] = byte(i + 1)
				n.numChildren++
				return
			}
		}
		panic("art: addChild on full Node48")
	case kind256:
		n.children[b] = r
		n.numChildren++
	}
}

// replaceChild overwrites the slot for b, which must exist. Caller
// holds the node exclusively.
func (n *node) replaceChild(b byte, r ref) {
	switch n.kind {
	case kind4, kind16:
		for i := 0; i < n.numChildren; i++ {
			if n.keys[i] == b {
				n.children[i] = r
				return
			}
		}
		panic("art: replaceChild of absent branch")
	case kind48:
		idx := n.keys[b]
		if idx == 0 {
			panic("art: replaceChild of absent branch")
		}
		n.children[idx-1] = r
	case kind256:
		n.children[b] = r
	}
}

// removeChild deletes the slot for b if present, reporting success.
// Caller holds the node exclusively.
func (n *node) removeChild(b byte) bool {
	switch n.kind {
	case kind4, kind16:
		for i := 0; i < n.numChildren; i++ {
			if n.keys[i] == b {
				last := n.numChildren - 1
				n.keys[i] = n.keys[last]
				n.children[i] = n.children[last]
				n.children[last] = ref{}
				n.numChildren = last
				return true
			}
		}
		return false
	case kind48:
		idx := n.keys[b]
		if idx == 0 {
			return false
		}
		n.keys[b] = 0
		n.children[idx-1] = ref{}
		n.numChildren--
		return true
	case kind256:
		if n.children[b].empty() {
			return false
		}
		n.children[b] = ref{}
		n.numChildren--
		return true
	}
	return false
}

// grow returns a copy of n one kind larger, carrying the same prefix,
// level and children. Caller holds n exclusively and publishes the copy
// through the (also locked) parent before marking n obsolete.
func (t *Tree) grow(c *locks.Ctx, n *node) *node {
	var big *node
	switch n.kind {
	case kind4:
		big = t.newNode(c, kind16)
	case kind16:
		big = t.newNode(c, kind48)
	case kind48:
		big = t.newNode(c, kind256)
	default:
		panic("art: grow of Node256")
	}
	big.level = n.level
	big.prefixLen = n.prefixLen
	big.prefix = n.prefix
	switch n.kind {
	case kind4, kind16:
		for i := 0; i < n.numChildren; i++ {
			big.addChild(n.keys[i], n.children[i])
		}
	case kind48:
		for b := 0; b < 256; b++ {
			if idx := n.keys[b]; idx != 0 {
				big.addChild(byte(b), n.children[idx-1])
			}
		}
	}
	return big
}

// NodeCounts returns the number of inner nodes by kind plus the leaf
// count, walking the tree without synchronization (diagnostics; call
// quiescent).
func (t *Tree) NodeCounts() (n4, n16, n48, n256, leaves int) {
	var walk func(n *node)
	walk = func(n *node) {
		switch n.kind {
		case kind4:
			n4++
		case kind16:
			n16++
		case kind48:
			n48++
		case kind256:
			n256++
		}
		for i := range n.children {
			r := n.children[i]
			if r.l != nil {
				leaves++
			} else if r.n != nil {
				walk(r.n)
			}
		}
	}
	walk(t.root)
	return
}
