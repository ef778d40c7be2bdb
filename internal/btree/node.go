package btree

import (
	"unsafe"

	"optiql/internal/locks"
)

// Flat node layout. The C++ implementation the paper evaluates stores
// a node as one contiguous block — header followed by inline key and
// value/child arrays — so a traversal touches one allocation per level
// and the header shares cache lines with the first keys. The Go
// equivalent here: a small set of size-class structs that embed the
// node header and fixed-capacity arrays, with the header's slice
// fields aliasing the inline storage. All structural code keeps
// operating on the slices (len == fanout, as before); the slice
// headers are written once at construction and never again, so racy
// optimistic readers always see a stable view of where the arrays
// live.
//
// Each class also carries an inline fingerprint array (fp), placed
// directly after the header so a leaf probe touches only the leading
// cache lines: header, fingerprints, then at most one or two key
// slots confirmed by full compare (fp.go). The array is padded to a
// multiple of 8 bytes because the SWAR match kernel consumes whole
// words. Every struct is padded to a cache-line multiple and checked
// by the padalign analyzer, so the fp/key/value boundaries stay where
// the layout comments claim across header edits.
//
// classCaps mirrors the paper's node-size study (Figure 11): 256-byte
// nodes (fanout 14, the evaluation default) up to 4 KiB (fanout 254).
// Configured fanouts above the largest class fall back to heap slices
// — correct, just not single-allocation.
var classCaps = [...]int{14, 30, 62, 126, 254}

// classFPCaps are the fingerprint-array capacities per class: the
// fanout rounded up to a whole number of SWAR words.
var classFPCaps = [...]int{16, 32, 64, 128, 256}

// maxClassCap is the largest inline fanout; scan paths size their
// stack scratch off it.
const maxClassCap = 254

// classHeap marks a fanout too large for any inline class.
const classHeap = -1

func classFor(fanout int) int {
	for i, c := range classCaps {
		if fanout <= c {
			return i
		}
	}
	return classHeap
}

// One struct per (class, role). The 384-byte class (leaf14/inner14,
// modelling the paper's 256-byte nodes) is the hot one; the node
// header, the whole fingerprint array and the first keys fit in the
// first three cache lines.
//
//optiql:cacheline
type leaf14 struct {
	n    node
	fp   [16]byte
	k, v [14]uint64
}

//optiql:cacheline
type leaf30 struct {
	n    node
	fp   [32]byte
	k, v [30]uint64
	_    [48]byte
}

//optiql:cacheline
type leaf62 struct {
	n    node
	fp   [64]byte
	k, v [62]uint64
	_    [16]byte
}

//optiql:cacheline
type leaf126 struct {
	n    node
	fp   [128]byte
	k, v [126]uint64
	_    [16]byte
}

//optiql:cacheline
type leaf254 struct {
	n    node
	fp   [256]byte
	k, v [254]uint64
	_    [16]byte
}

//optiql:cacheline
type inner14 struct {
	n  node
	fp [16]byte
	k  [14]uint64
	c  [15]*node
	_  [56]byte
}

//optiql:cacheline
type inner30 struct {
	n  node
	fp [32]byte
	k  [30]uint64
	c  [31]*node
	_  [40]byte
}

//optiql:cacheline
type inner62 struct {
	n  node
	fp [64]byte
	k  [62]uint64
	c  [63]*node
	_  [8]byte
}

//optiql:cacheline
type inner126 struct {
	n  node
	fp [128]byte
	k  [126]uint64
	c  [127]*node
	_  [8]byte
}

//optiql:cacheline
type inner254 struct {
	n  node
	fp [256]byte
	k  [254]uint64
	c  [255]*node
	_  [8]byte
}

// classSizes holds each class's leaf and inner struct sizes, in
// classCaps order.
var classSizes = [...][2]uintptr{
	{unsafe.Sizeof(leaf14{}), unsafe.Sizeof(inner14{})},
	{unsafe.Sizeof(leaf30{}), unsafe.Sizeof(inner30{})},
	{unsafe.Sizeof(leaf62{}), unsafe.Sizeof(inner62{})},
	{unsafe.Sizeof(leaf126{}), unsafe.Sizeof(inner126{})},
	{unsafe.Sizeof(leaf254{}), unsafe.Sizeof(inner254{})},
}

// prefetchSpan is how many leading bytes of a class's node the read
// descent requests before it takes the node's lock (Tree.prefetchNode).
// A linear-search class (fanout <= linearCap) sweeps its whole key
// array, so the span is the smaller of its two structs; a binary-search
// class probes the fingerprints (right after the header) first and
// only a few keys after, so the span ends at the line holding the
// fingerprint array's end. Heap-class arrays are separate allocations:
// 0, and prefetchNode warms their first key line through the header
// instead. The span never exceeds either role's struct, so a prefetch
// through a racily read child pointer, whatever role the node turns
// out to have, stays inside its allocation.
func prefetchSpan(class int) uintptr {
	if class == classHeap {
		return 0
	}
	size := min(classSizes[class][0], classSizes[class][1])
	if classCaps[class] <= linearCap {
		return size
	}
	fpEnd := unsafe.Sizeof(node{}) + uintptr(classFPCaps[class])
	return min((fpEnd+63)&^63, size)
}

// heapFPs sizes the fingerprint slice for fanouts beyond the largest
// class: the fanout rounded up to whole SWAR words.
func heapFPs(fanout int) []byte {
	return make([]byte, (fanout+7)&^7)
}

// makeLeaf builds one leaf node as a single allocation of the given
// class, its slices aliasing the inline arrays trimmed to fanout. The
// fingerprint slice keeps the full padded capacity: the SWAR kernel
// reads whole words and the caller masks down to the live count.
func makeLeaf(class, fanout int) *node {
	switch class {
	case 0:
		x := new(leaf14)
		x.n.keys, x.n.values, x.n.fps = x.k[:fanout:fanout], x.v[:fanout:fanout], x.fp[:]
		return &x.n
	case 1:
		x := new(leaf30)
		x.n.keys, x.n.values, x.n.fps = x.k[:fanout:fanout], x.v[:fanout:fanout], x.fp[:]
		return &x.n
	case 2:
		x := new(leaf62)
		x.n.keys, x.n.values, x.n.fps = x.k[:fanout:fanout], x.v[:fanout:fanout], x.fp[:]
		return &x.n
	case 3:
		x := new(leaf126)
		x.n.keys, x.n.values, x.n.fps = x.k[:fanout:fanout], x.v[:fanout:fanout], x.fp[:]
		return &x.n
	case 4:
		x := new(leaf254)
		x.n.keys, x.n.values, x.n.fps = x.k[:fanout:fanout], x.v[:fanout:fanout], x.fp[:]
		return &x.n
	default:
		return &node{keys: make([]uint64, fanout), values: make([]uint64, fanout), fps: heapFPs(fanout)}
	}
}

// makeInner is makeLeaf for inner nodes (fanout keys, fanout+1 child
// pointers). The fp array holds the discriminating bytes of the
// prefix-truncated separator search (fp.go).
func makeInner(class, fanout int) *node {
	switch class {
	case 0:
		x := new(inner14)
		x.n.keys, x.n.children, x.n.fps = x.k[:fanout:fanout], x.c[:fanout+1:fanout+1], x.fp[:]
		return &x.n
	case 1:
		x := new(inner30)
		x.n.keys, x.n.children, x.n.fps = x.k[:fanout:fanout], x.c[:fanout+1:fanout+1], x.fp[:]
		return &x.n
	case 2:
		x := new(inner62)
		x.n.keys, x.n.children, x.n.fps = x.k[:fanout:fanout], x.c[:fanout+1:fanout+1], x.fp[:]
		return &x.n
	case 3:
		x := new(inner126)
		x.n.keys, x.n.children, x.n.fps = x.k[:fanout:fanout], x.c[:fanout+1:fanout+1], x.fp[:]
		return &x.n
	case 4:
		x := new(inner254)
		x.n.keys, x.n.children, x.n.fps = x.k[:fanout:fanout], x.c[:fanout+1:fanout+1], x.fp[:]
		return &x.n
	default:
		return &node{keys: make([]uint64, fanout), children: make([]*node, fanout+1), fps: heapFPs(fanout)}
	}
}

// newLeaf returns an empty leaf, reusing a recycled one when
// available. A recycled node keeps its lock — and therefore its
// monotone version history — so any optimistic reader that raced onto
// it through a stale pointer fails validation instead of trusting the
// reinitialized contents (see locks/recycle.go for the full argument).
// Stale fingerprints survive recycling unrebuilt: count is zero, and
// every fingerprint read is masked to the live count first.
func (t *Tree) newLeaf(c *locks.Ctx) *node {
	if x := t.leafFree.Get(c); x != nil {
		n := x.(*node)
		locks.BumpOnReuse(n.lock)
		n.count = 0
		n.next = nil
		n.seqRun, n.seqNext = false, 0
		return n
	}
	n := makeLeaf(t.class, t.fanout)
	n.lock = t.scheme.NewLeaf()
	n.leaf = true
	return n
}

// newInner returns an empty inner node, reusing a recycled one when
// available. Leaves and inner nodes recycle through separate lists:
// a node's role (and hence which inline arrays exist) is fixed for its
// entire lifetime, which is what lets traversal code trust a racily
// read n.leaf flag. Recycled prefix metadata (pshift/pfx) is stale
// until the first refreshInnerMeta, but count is zero so childIndex
// degenerates to slot 0 regardless.
func (t *Tree) newInner(c *locks.Ctx) *node {
	if x := t.innerFree.Get(c); x != nil {
		n := x.(*node)
		locks.BumpOnReuse(n.lock)
		n.count = 0
		n.seqRun, n.seqNext = false, 0
		return n
	}
	n := makeInner(t.class, t.fanout)
	n.lock = t.scheme.NewInner()
	return n
}

// freeNode recycles a node emptied by a merge or root collapse. The
// caller guarantees the node is unreachable from the structure and its
// exclusive lock has been released (the release bumped the version, so
// every in-flight optimistic reader that could still reach it fails
// validation). Child pointers are cleared so the free list never pins
// live subtrees; in-flight readers that race onto the cleared slots
// see nil, take the retry path, and restart.
func (t *Tree) freeNode(c *locks.Ctx, n *node) {
	n.count = 0
	if n.leaf {
		n.next = nil
		t.leafFree.Put(c, n)
		return
	}
	for i := range n.children {
		n.children[i] = nil
	}
	t.innerFree.Put(c, n)
}
