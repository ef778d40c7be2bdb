// Package torntest holds the tornread golden cases: the clamp and
// validation idioms the tree relies on (non-flagging) next to the
// torn-read hazards the analyzer must catch. The node/leaf shapes
// mirror internal/art and internal/btree: a lock-guarded node struct
// whose counts, prefixes and child pointers may be read while a
// concurrent writer mutates them.
package torntest

import (
	"sync/atomic"

	"vettest/locks"
)

type node struct {
	lock        locks.OptLock
	seq         atomic.Uint64
	numChildren int
	prefixLen   int
	prefix      [8]byte
	keys        [16]byte
	children    [16]*node
	leaf        *leaf
}

type leaf struct {
	key   uint64
	value uint64
}

// ---- Direct hazards inside an optimistic section ----

// flagLoopBound loops to a bound loaded from the optimistically-held
// node: a torn prefixLen makes the index run past the array.
func flagLoopBound(n *node, c *locks.Ctx) int {
	tok, ok := n.lock.AcquireSh(c)
	if !ok {
		return -1
	}
	sum := 0
	for i := 0; i < n.prefixLen; i++ { // want "loop bound derives from an optimistic read"
		sum += int(n.prefix[i&7])
	}
	if !n.lock.ReleaseSh(c, tok) {
		return -1
	}
	return sum
}

// flagIndex indexes a child array by a raw racy count.
func flagIndex(n *node, c *locks.Ctx) *node {
	tok, ok := n.lock.AcquireSh(c)
	if !ok {
		return nil
	}
	i := n.numChildren - 1
	ch := n.children[i] // want "optimistically-read value used as index"
	if !n.lock.ReleaseSh(c, tok) {
		return nil
	}
	return ch
}

// flagMake sizes an allocation by a raw racy count before validating.
func flagMake(n *node, c *locks.Ctx) []byte {
	tok, ok := n.lock.AcquireSh(c)
	if !ok {
		return nil
	}
	buf := make([]byte, n.numChildren) // want "optimistically-read value used as allocation size"
	if !n.lock.ReleaseSh(c, tok) {
		return nil
	}
	return buf
}

// flagDeref dereferences a child pointer loaded from node memory
// without a nil check: a concurrent writer may have unlinked it.
func flagDeref(n *node, c *locks.Ctx) uint64 {
	tok, ok := n.lock.AcquireSh(c)
	if !ok {
		return 0
	}
	l := n.leaf
	v := l.value // want "racy pointer dereference"
	if !n.lock.ReleaseSh(c, tok) {
		return 0
	}
	return v
}

// ---- Sanitizers (non-flagging) ----

// goodClampedIndex bounds the index before using it: the idiom of
// clampedCount/clampedChildren.
func goodClampedIndex(n *node, c *locks.Ctx) *node {
	tok, ok := n.lock.AcquireSh(c)
	if !ok {
		return nil
	}
	i := n.numChildren - 1
	if i < 0 || i >= len(n.children) {
		return nil
	}
	ch := n.children[i]
	_ = tok
	return ch
}

// goodMaskedIndex bounds the index with a mask.
func goodMaskedIndex(n *node, c *locks.Ctx) byte {
	tok, ok := n.lock.AcquireSh(c)
	if !ok {
		return 0
	}
	i := n.numChildren & 15
	b := n.keys[i]
	_ = tok
	return b
}

// goodMinClamp bounds a racy count with min against a constant.
func goodMinClamp(n *node, c *locks.Ctx) int {
	tok, ok := n.lock.AcquireSh(c)
	if !ok {
		return 0
	}
	lim := min(n.prefixLen, len(n.prefix))
	sum := 0
	for i := 0; i < lim; i++ {
		sum += int(n.prefix[i&7])
	}
	_ = tok
	return sum
}

// goodValidated uses the count only after a successful validation
// dominates the use: the value is retroactively consistent.
func goodValidated(n *node, c *locks.Ctx) []int {
	tok, ok := n.lock.AcquireSh(c)
	if !ok {
		return nil
	}
	cnt := n.numChildren
	if !n.lock.ReleaseSh(c, tok) {
		return nil
	}
	return make([]int, cnt)
}

// goodNamedValidation branches on a named validation result.
func goodNamedValidation(n *node, c *locks.Ctx) []int {
	tok, ok := n.lock.AcquireSh(c)
	if !ok {
		return nil
	}
	cnt := n.numChildren
	valid := n.lock.ReleaseSh(c, tok)
	if !valid {
		return nil
	}
	return make([]int, cnt)
}

// goodUpgrade trusts everything read before a successful upgrade: the
// version did not move, and the hold is now exclusive.
func goodUpgrade(n *node, c *locks.Ctx) []int {
	tok, ok := n.lock.AcquireSh(c)
	if !ok {
		return nil
	}
	cnt := n.numChildren
	if tok, ok = n.lock.Upgrade(c, tok); !ok {
		return nil
	}
	buf := make([]int, cnt)
	n.lock.ReleaseEx(c, tok)
	return buf
}

// goodExclusive reads under an exclusive hold: nothing is torn.
func goodExclusive(n *node, c *locks.Ctx) *node {
	tok := n.lock.AcquireEx(c)
	ch := n.children[n.numChildren-1]
	n.lock.ReleaseEx(c, tok)
	return ch
}

// goodNilCheckedDeref promotes a racy child pointer with a nil check;
// the pointed-to values stay tainted but the deref itself is safe
// (node memory is type-stable under the recycler).
func goodNilCheckedDeref(n *node, c *locks.Ctx) uint64 {
	tok, ok := n.lock.AcquireSh(c)
	if !ok {
		return 0
	}
	l := n.leaf
	if l == nil {
		return 0
	}
	v := l.value
	if !n.lock.ReleaseSh(c, tok) {
		return 0
	}
	return v
}

// goodByteIndex relies on the intrinsic uint8 bound: a torn byte still
// lands inside a 256-entry table.
func goodByteIndex(n *node, c *locks.Ctx, table *[256]int) int {
	tok, ok := n.lock.AcquireSh(c)
	if !ok {
		return 0
	}
	v := table[n.keys[0]]
	_ = tok
	return v
}

// goodAtomicField reads an atomic cell through the optimistic hold:
// untorn by contract, so it is clean.
func goodAtomicField(n *node, c *locks.Ctx) []int {
	tok, ok := n.lock.AcquireSh(c)
	if !ok {
		return nil
	}
	cnt := int(n.seq.Load() & 255)
	_ = tok
	return make([]int, cnt)
}

// ---- Interprocedural: helper summaries flag at call sites ----

// checkPrefixRaw mirrors the art.checkPrefix bug shape: the loop bound
// and returned count load through the parameter. The helper itself is
// fine — obligations transfer to the call sites.
func checkPrefixRaw(n *node, k uint64, level int) int {
	for i := 0; i < n.prefixLen; i++ {
		if level+i >= 8 || n.prefix[i&7] != byte(k>>uint(56-8*(level+i))) {
			return i
		}
	}
	return n.prefixLen
}

// checkPrefixBounded is the fixed shape: one conjunct of the loop
// bound is clean, so no obligation escapes.
func checkPrefixBounded(n *node, k uint64, level int) int {
	for i := 0; i < n.prefixLen && i < len(n.prefix); i++ {
		if level+i >= 8 || n.prefix[i] != byte(k>>uint(56-8*(level+i))) {
			return i
		}
	}
	return n.prefixLen
}

// flagPrefixCaller passes an optimistically-held node to the raw
// helper: the summary's load-sink obligation fires here.
func flagPrefixCaller(n *node, c *locks.Ctx, k uint64) bool {
	tok, ok := n.lock.AcquireSh(c)
	if !ok {
		return false
	}
	off := checkPrefixRaw(n, k, 0) // want "checkPrefixRaw indexes by a value it loads from this optimistically-held node"
	_ = tok
	return off == 0
}

// goodPrefixCallerBounded: the bounded helper carries no obligation.
func goodPrefixCallerBounded(n *node, c *locks.Ctx, k uint64) bool {
	tok, ok := n.lock.AcquireSh(c)
	if !ok {
		return false
	}
	off := checkPrefixBounded(n, k, 0)
	_ = tok
	return off == 0
}

// goodPrefixCallerExclusive: the raw helper is fine under an exclusive
// hold — exactly why the obligation is call-site conditional.
func goodPrefixCallerExclusive(n *node, c *locks.Ctx, k uint64) bool {
	tok := n.lock.AcquireEx(c)
	off := checkPrefixRaw(n, k, 0)
	n.lock.ReleaseEx(c, tok)
	return off == 0
}

// rawIndex indexes by its value parameter: a sinkVal obligation.
func rawIndex(n *node, i int) *node { return n.children[i] }

// flagValueSink passes a tainted count into the indexing helper.
func flagValueSink(n *node, c *locks.Ctx) *node {
	tok, ok := n.lock.AcquireSh(c)
	if !ok {
		return nil
	}
	ch := rawIndex(n, n.numChildren-1) // want "optimistically-read value passed to rawIndex reaches an index"
	_ = tok
	return ch
}

// goodValueSinkClamped clamps before the call.
func goodValueSinkClamped(n *node, c *locks.Ctx) *node {
	tok, ok := n.lock.AcquireSh(c)
	if !ok {
		return nil
	}
	ch := rawIndex(n, n.numChildren&15)
	_ = tok
	return ch
}

// readLeaf dereferences its parameter unchecked: a deref obligation.
func readLeaf(l *leaf) uint64 { return l.value }

// flagDerefHelper hands a racy-loaded pointer to a helper that
// dereferences it.
func flagDerefHelper(n *node, c *locks.Ctx) uint64 {
	tok, ok := n.lock.AcquireSh(c)
	if !ok {
		return 0
	}
	v := readLeaf(n.leaf) // want "readLeaf dereferences this pointer, which was loaded from node memory"
	_ = tok
	return v
}

// goodDerefHelperChecked nil-checks before the call.
func goodDerefHelperChecked(n *node, c *locks.Ctx) uint64 {
	tok, ok := n.lock.AcquireSh(c)
	if !ok {
		return 0
	}
	l := n.leaf
	if l == nil {
		return 0
	}
	v := readLeaf(l)
	_ = tok
	return v
}

// loadCount returns a racy load: the taint arrives with the return
// value at optimistic call sites.
func loadCount(n *node) int { return n.numChildren }

// flagSummaryReturn sinks a helper's tainted return value.
func flagSummaryReturn(n *node, c *locks.Ctx) []int {
	tok, ok := n.lock.AcquireSh(c)
	if !ok {
		return nil
	}
	cnt := loadCount(n)
	_ = tok
	return make([]int, cnt) // want "optimistically-read value used as allocation size"
}

// goodSummaryReturnValidated validates before sinking the return.
func goodSummaryReturnValidated(n *node, c *locks.Ctx) []int {
	tok, ok := n.lock.AcquireSh(c)
	if !ok {
		return nil
	}
	cnt := loadCount(n)
	if !n.lock.ReleaseSh(c, tok) {
		return nil
	}
	return make([]int, cnt)
}

// ---- Suppression ----

// suppressed documents a deliberate raw read; the directive absorbs
// the diagnostic and counts as used.
func suppressed(n *node, c *locks.Ctx) []int {
	tok, ok := n.lock.AcquireSh(c)
	if !ok {
		return nil
	}
	//optiqlvet:ignore tornread golden case for the suppression path
	buf := make([]int, n.numChildren)
	_ = tok
	return buf
}
