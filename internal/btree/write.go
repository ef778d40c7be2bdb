package btree

import (
	"optiql/internal/locks"
	"optiql/internal/obs"
)

// Update sets the value of an existing key, returning whether the key
// was found. It implements Algorithm 4: optimistic traversal, then the
// leaf lock is taken exclusively *directly* (queueing under OptiQL
// instead of upgrade-retrying), and only then is the parent validated.
// Under the AOR scheme the opportunistic read window stays open through
// the leaf search and closes just before the value write.
func (t *Tree) Update(c *locks.Ctx, k, v uint64) bool {
	// retry counts a restart before re-entering; the first attempt
	// skips it (same pattern throughout the traversals).
	goto first
retry:
	c.Counters().Inc(obs.EvOpRestart)
	c.TraceRestart(k)
first:
	n := t.root.Load()
	if n.leaf {
		// Single-node tree: lock the root leaf directly.
		wtok := n.lock.AcquireEx(c)
		if n != t.root.Load() {
			n.lock.ReleaseEx(c, wtok)
			goto retry
		}
		ok := t.updateLocked(n, wtok, k, v)
		n.lock.ReleaseEx(c, wtok)
		return ok
	}
	tok, ok := n.lock.AcquireSh(c)
	if !ok {
		goto retry
	}
	if n != t.root.Load() {
		n.lock.ReleaseSh(c, tok)
		goto retry
	}
	for {
		child := n.children[n.childIndex(k)]
		if child == nil {
			n.lock.ReleaseSh(c, tok)
			goto retry
		}
		if child.leaf {
			// Lock the leaf directly (Alg 4 line 17), then validate
			// the parent (lines 21-23).
			wtok := child.lock.AcquireEx(c)
			if !n.lock.ReleaseSh(c, tok) {
				child.lock.ReleaseEx(c, wtok)
				goto retry
			}
			ok := t.updateLocked(child, wtok, k, v)
			child.lock.ReleaseEx(c, wtok)
			return ok
		}
		ctok, cok := child.lock.AcquireSh(c)
		if !cok {
			goto retry
		}
		if !n.lock.ReleaseSh(c, tok) {
			child.lock.ReleaseSh(c, ctok)
			goto retry
		}
		n, tok = child, ctok
	}
}

// updateLocked performs the in-leaf search and write while the leaf is
// exclusively held. The opportunistic read window (AOR) remains open
// during the search and is closed before the first modification.
func (t *Tree) updateLocked(n *node, wtok locks.Token, k, v uint64) bool {
	i, found := n.leafFind(k)
	n.lock.CloseWindow(wtok)
	if found {
		n.values[i] = v
	}
	return found
}

// Insert stores (k, v), returning true if the key was newly inserted
// and false if an existing key's value was overwritten. The fast path
// mirrors Update; when the target leaf is full the operation restarts
// in pessimistic mode, exclusively coupling down the tree and splitting
// bottom-up.
func (t *Tree) Insert(c *locks.Ctx, k, v uint64) bool {
	goto first
retry:
	c.Counters().Inc(obs.EvOpRestart)
	c.TraceRestart(k)
first:
	n := t.root.Load()
	if n.leaf {
		wtok := n.lock.AcquireEx(c)
		if n != t.root.Load() {
			n.lock.ReleaseEx(c, wtok)
			goto retry
		}
		if n.full() {
			if _, found := n.leafFind(k); !found {
				n.lock.ReleaseEx(c, wtok)
				return t.insertPessimistic(c, k, v)
			}
		}
		ins := t.insertLocked(n, wtok, k, v)
		n.lock.ReleaseEx(c, wtok)
		return ins
	}
	tok, ok := n.lock.AcquireSh(c)
	if !ok {
		goto retry
	}
	if n != t.root.Load() {
		n.lock.ReleaseSh(c, tok)
		goto retry
	}
	for {
		child := n.children[n.childIndex(k)]
		if child == nil {
			n.lock.ReleaseSh(c, tok)
			goto retry
		}
		if child.leaf {
			wtok := child.lock.AcquireEx(c)
			if !n.lock.ReleaseSh(c, tok) {
				child.lock.ReleaseEx(c, wtok)
				goto retry
			}
			if child.full() {
				if _, found := child.leafFind(k); !found {
					// Needs a split: fall back to pessimistic insert.
					child.lock.ReleaseEx(c, wtok)
					return t.insertPessimistic(c, k, v)
				}
			}
			ins := t.insertLocked(child, wtok, k, v)
			child.lock.ReleaseEx(c, wtok)
			return ins
		}
		ctok, cok := child.lock.AcquireSh(c)
		if !cok {
			goto retry
		}
		if !n.lock.ReleaseSh(c, tok) {
			child.lock.ReleaseSh(c, ctok)
			goto retry
		}
		n, tok = child, ctok
	}
}

// insertLocked inserts into a leaf known to have room (or updates in
// place), while the leaf is exclusively held.
func (t *Tree) insertLocked(n *node, wtok locks.Token, k, v uint64) bool {
	i, found := n.leafFind(k)
	n.lock.CloseWindow(wtok)
	if found {
		n.values[i] = v
		return false
	}
	t.insertIntoLeaf(n, i, k, v)
	t.size.Add(1)
	return true
}

// held tracks an exclusively locked node during pessimistic descent.
type held struct {
	n   *node
	tok locks.Token
}

// insertPessimistic exclusively couples from the root to the target
// leaf, keeping locks on the chain of full ("unsafe") nodes that a
// split may propagate into, then inserts and splits bottom-up. This is
// the classic SMO path of pessimistic lock coupling, used by all
// schemes once the optimistic fast path has detected a full leaf. The
// fast path released that leaf first, so k may have been inserted by
// another thread since: the result is Insert's (false on overwrite).
func (t *Tree) insertPessimistic(c *locks.Ctx, k, v uint64) bool {
	goto first
retry:
	c.Counters().Inc(obs.EvOpRestart)
	c.TraceRestart(k)
first:
	n := t.root.Load()
	tok := n.lock.AcquireEx(c)
	if n != t.root.Load() {
		n.lock.ReleaseEx(c, tok)
		goto retry
	}
	stack := make([]held, 0, 8)
	stack = append(stack, held{n, tok})
	for !n.leaf {
		child := n.children[n.childIndex(k)]
		ctok := child.lock.AcquireEx(c)
		child.lock.CloseWindow(ctok)
		if !child.full() {
			// Child is safe: no split can propagate above it, so
			// release every ancestor.
			for _, h := range stack {
				h.n.lock.ReleaseEx(c, h.tok)
			}
			stack = stack[:0]
		}
		stack = append(stack, held{child, ctok})
		n = child
	}
	// The root lock (or a safe ancestor) pins the structure; close any
	// AOR windows on the chain before modifying.
	for _, h := range stack {
		h.n.lock.CloseWindow(h.tok)
	}
	ins := t.insertAndSplit(c, stack, k, v)
	for _, h := range stack {
		h.n.lock.ReleaseEx(c, h.tok)
	}
	return ins
}

// insertAndSplit inserts (k, v) into the leaf at the top of the locked
// stack, splitting upward through the locked ancestors as needed. It
// returns whether k was new.
func (t *Tree) insertAndSplit(c *locks.Ctx, stack []held, k, v uint64) bool {
	leaf := stack[len(stack)-1].n
	i, found := leaf.leafFind(k)
	if found {
		leaf.values[i] = v
		return false
	}
	t.size.Add(1)
	if !leaf.full() {
		t.insertIntoLeaf(leaf, i, k, v)
		return true
	}
	// Split point: the middle, unless k continues an ascending run
	// into this leaf (the last two inserts each landed in the slot
	// after the one before, and so does k). Then the split falls at k,
	// so a sequential load leaves full leaves behind, not half-empty
	// ones. At the leaf's end that keeps the leaf whole and k starts
	// the sibling; mid-leaf it parts the run from some other stream's
	// larger keys, and k stays left as the last key below the
	// separator, as a key landing exactly at a middle split always has.
	mid := leaf.count / 2
	if leaf.seqRun && i == int(leaf.seqNext) {
		mid = i
	}
	// The new key goes into its half (the sibling, too, when the cut
	// leaves that empty) before the right sibling is published anywhere
	// (sibling pointer or parent slot), so no traversal can observe the
	// sibling mid-modification.
	toRight := i > mid || mid == leaf.count
	right := t.splitLeaf(c, leaf, mid)
	c.Counters().Inc(obs.EvBTreeSplit)
	if toRight {
		t.insertIntoLeaf(right, i-mid, k, v)
	} else {
		t.insertIntoLeaf(leaf, i, k, v)
	}
	right.next = leaf.next
	leaf.next = right
	t.propagateSplit(c, stack, len(stack)-2, right.keys[0], right)
	return true
}

// propagateSplit inserts separator sep and new right node into the
// ancestor at stack[idx], splitting it as needed. idx == -1 means the
// split reached the root (stack[0]), which grows the tree by one level.
func (t *Tree) propagateSplit(c *locks.Ctx, stack []held, idx int, sep uint64, right *node) {
	if idx < 0 {
		// stack[0] is the root and it just split (or it is a leaf that
		// split): grow a new root.
		old := stack[0].n
		newRoot := t.newInner(c)
		newRoot.keys[0] = sep
		newRoot.children[0] = old
		newRoot.children[1] = right
		newRoot.count = 1
		newRoot.refreshInnerMeta()
		t.root.Store(newRoot)
		return
	}
	parent := stack[idx].n
	if !parent.full() {
		t.insertIntoInner(parent, sep, right)
		return
	}
	// Same choice one level up, where the key at the split point moves
	// up: within one slot of the end the point steps back, so that the
	// sibling is left a separator (or gets sep).
	mid := parent.count / 2
	if i := parent.lowerBound(sep); parent.seqRun && i == int(parent.seqNext) {
		mid = i
		if i >= parent.count-1 {
			mid = i - 1
		}
	}
	psep, pright := t.splitInner(c, parent, mid)
	c.Counters().Inc(obs.EvBTreeSplit)
	if sep >= psep {
		t.insertIntoInner(pright, sep, right)
	} else {
		t.insertIntoInner(parent, sep, right)
	}
	t.propagateSplit(c, stack, idx-1, psep, pright)
}

// splitLeaf moves n's keys from slot mid up (possibly none) into a
// fresh right sibling and returns it. The caller holds the leaf
// exclusively and is responsible for linking the sibling chain after
// the pending insert, which also gives an empty sibling its first key.
func (t *Tree) splitLeaf(c *locks.Ctx, n *node, mid int) *node {
	right := t.newLeaf(c)
	copy(right.keys, n.keys[mid:n.count])
	copy(right.values, n.values[mid:n.count])
	copy(right.fps, n.fps[mid:n.count])
	right.count = n.count - mid
	n.count = mid
	n.seqRun = false // until the next insert into n says otherwise
	return right
}

// splitInner moves the separators above slot mid into a fresh right
// sibling, returning the separator pushed up (keys[mid]) and the
// sibling.
func (t *Tree) splitInner(c *locks.Ctx, n *node, mid int) (uint64, *node) {
	right := t.newInner(c)
	sep := n.keys[mid]
	copy(right.keys, n.keys[mid+1:n.count])
	copy(right.children, n.children[mid+1:n.count+1])
	right.count = n.count - mid - 1
	n.count = mid
	n.seqRun = false
	n.refreshInnerMeta()
	right.refreshInnerMeta()
	return sep, right
}

// noteInsert records an insert at slot i in the split-point hint: the
// slot after it, and whether it was itself the slot after the last.
func (n *node) noteInsert(i int) {
	n.seqRun = i == int(n.seqNext)
	n.seqNext = uint16(i + 1)
}

// insertIntoLeaf places (k, v) at slot i of a leaf with room. The
// caller holds the leaf exclusively.
func (t *Tree) insertIntoLeaf(n *node, i int, k, v uint64) {
	copy(n.keys[i+1:n.count+1], n.keys[i:n.count])
	copy(n.values[i+1:n.count+1], n.values[i:n.count])
	n.fpInsert(i, n.count, k)
	n.keys[i] = k
	n.values[i] = v
	n.noteInsert(i)
	n.count++
}

func (t *Tree) insertIntoInner(n *node, sep uint64, right *node) {
	i := n.lowerBound(sep)
	copy(n.keys[i+1:n.count+1], n.keys[i:n.count])
	copy(n.children[i+2:n.count+2], n.children[i+1:n.count+1])
	n.keys[i] = sep
	n.children[i+1] = right
	n.noteInsert(i)
	n.count++
	n.refreshInnerMeta()
}

// Delete removes k, returning whether it was present. The fast path
// removes in place under the leaf's exclusive lock (Algorithm-4 style:
// lock the leaf directly, then validate the parent); when the removal
// would underflow the leaf, the operation restarts pessimistically and
// rebalances by borrowing from or merging with a sibling (delete.go).
func (t *Tree) Delete(c *locks.Ctx, k uint64) bool {
	goto first
retry:
	c.Counters().Inc(obs.EvOpRestart)
	c.TraceRestart(k)
first:
	n := t.root.Load()
	if n.leaf {
		wtok := n.lock.AcquireEx(c)
		if n != t.root.Load() {
			n.lock.ReleaseEx(c, wtok)
			goto retry
		}
		ok := t.deleteLocked(n, wtok, k)
		n.lock.ReleaseEx(c, wtok)
		return ok
	}
	tok, ok := n.lock.AcquireSh(c)
	if !ok {
		goto retry
	}
	if n != t.root.Load() {
		n.lock.ReleaseSh(c, tok)
		goto retry
	}
	for {
		child := n.children[n.childIndex(k)]
		if child == nil {
			n.lock.ReleaseSh(c, tok)
			goto retry
		}
		if child.leaf {
			wtok := child.lock.AcquireEx(c)
			if !n.lock.ReleaseSh(c, tok) {
				child.lock.ReleaseEx(c, wtok)
				goto retry
			}
			if _, found := child.leafFind(k); found && child.count-1 < t.minKeys() {
				// Removal would underflow the leaf: rebalance through
				// the pessimistic SMO path instead.
				child.lock.ReleaseEx(c, wtok)
				return t.deletePessimistic(c, k)
			}
			ok := t.deleteLocked(child, wtok, k)
			child.lock.ReleaseEx(c, wtok)
			return ok
		}
		ctok, cok := child.lock.AcquireSh(c)
		if !cok {
			goto retry
		}
		if !n.lock.ReleaseSh(c, tok) {
			child.lock.ReleaseSh(c, ctok)
			goto retry
		}
		n, tok = child, ctok
	}
}

func (t *Tree) deleteLocked(n *node, wtok locks.Token, k uint64) bool {
	i, found := n.leafFind(k)
	n.lock.CloseWindow(wtok)
	if !found {
		return false
	}
	copy(n.keys[i:n.count-1], n.keys[i+1:n.count])
	copy(n.values[i:n.count-1], n.values[i+1:n.count])
	n.fpDelete(i, n.count)
	n.count--
	t.size.Add(-1)
	return true
}
