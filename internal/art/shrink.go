package art

import "optiql/internal/locks"

// Structural cleanup after deletions. Removal itself happens in-place
// under the owner node's exclusive lock (write.go); when it leaves the
// node markedly under-populated, the deleter opportunistically tightens
// the structure, holding the parent and node (and, for path merges,
// the single remaining child) via upgrades:
//
//   - a node whose population drops below the capacity of the
//     next-smaller kind shrinks to it (Node256 -> Node48 -> Node16 ->
//     Node4), replacing the node and marking the original obsolete,
//     exactly like grow in reverse;
//   - a Node4 left with a single child re-applies path compression:
//     the parent slot is pointed at the child directly — a leaf as-is
//     (it carries its full key), an inner node as a copy whose prefix
//     absorbs the vanished node's prefix and branch byte.
//
// All of this is best-effort: any failed upgrade simply leaves the
// (correct, just unshrunk) structure for a later deleter, so the
// paths stay cheap under contention. Unlinked nodes are handed back to
// the caller for recycling once their locks are released.

// shrinkThreshold reports whether a node with n children of kind k is
// worth shrinking. Hysteresis (strictly below the smaller capacity)
// avoids flapping with concurrent inserts.
func shrinkWorthy(k kind, n int) bool {
	switch k {
	case kind16:
		return n <= 3
	case kind48:
		return n <= 12
	case kind256:
		return n <= 36
	case kind4:
		return n == 1
	}
	return false
}

// shrinkLocked replaces n (at pn.children[pb]) with a tighter
// representation; the caller holds both pn and n exclusively. The
// upgrade of pn is a non-blocking try even though n is already held,
// so there is no lock-order deadlock risk on this path. fn, when
// non-nil, is n itself, unlinked and to be recycled by the caller
// after releasing its lock; fc is a merged-away child whose lock has
// already been released.
func (t *Tree) shrinkLocked(c *locks.Ctx, pn *node, pb byte, n *node) (fn, fc *node) {
	if !shrinkWorthy(n.kind, n.numChildren) {
		return nil, nil
	}
	if n.kind == kind4 && n.numChildren == 1 {
		return t.compressPath(c, pn, pb, n)
	}
	if n.numChildren == 0 {
		// Fully emptied: clear the parent slot.
		pn.removeChild(pb)
		n.obsolete.Store(true)
		return n, nil
	}
	small := t.shrunk(c, n)
	pn.replaceChild(pb, ref{n: small})
	small.obsolete.Store(false)
	n.obsolete.Store(true)
	return n, nil
}

// shrunk builds the next-smaller-kind copy of n. Caller holds n
// exclusively.
func (t *Tree) shrunk(c *locks.Ctx, n *node) *node {
	var small *node
	switch n.kind {
	case kind16:
		small = t.newNode(c, kind4)
	case kind48:
		small = t.newNode(c, kind16)
	case kind256:
		small = t.newNode(c, kind48)
	default:
		panic("art: shrunk of Node4")
	}
	small.level = n.level
	small.prefixLen = n.prefixLen
	small.prefix = n.prefix
	switch n.kind {
	case kind16:
		for i := 0; i < n.numChildren; i++ {
			small.addChild(n.keys[i], n.children[i])
		}
	case kind48:
		for b := 0; b < 256; b++ {
			if idx := n.keys[b]; idx != 0 {
				small.addChild(byte(b), n.children[idx-1])
			}
		}
	case kind256:
		for b := 0; b < 256; b++ {
			if !n.children[b].empty() {
				small.addChild(byte(b), n.children[b])
			}
		}
	}
	return small
}

// compressPath folds a single-child Node4 out of the tree. The parent
// and n are exclusively held; an inner-node child is additionally
// locked (upgrade from a fresh read) while its extended-prefix copy is
// made, then marked obsolete and released. Returns the unlinked nodes
// for the caller to recycle (n after its lock is released; the child's
// lock is released here).
func (t *Tree) compressPath(c *locks.Ctx, pn *node, pb byte, n *node) (fn, fc *node) {
	// Locate the single child and its branch byte.
	var cb byte
	var r ref
	switch {
	case n.numChildren != 1:
		return nil, nil
	default:
		cb = n.keys[0]
		r = n.children[0]
	}
	if r.l != nil {
		// Leaves carry their full key: the parent can point at the
		// leaf directly.
		pn.replaceChild(pb, r)
		n.obsolete.Store(true)
		return n, nil
	}
	child := r.n
	ctok, ok := child.lock.AcquireSh(c)
	if !ok {
		return nil, nil
	}
	if ctok, ok = child.lock.Upgrade(c, ctok); !ok {
		return nil, nil
	}
	// New prefix: n's prefix + the branch byte + child's prefix. The
	// total path of 8-byte keys never exceeds the prefix capacity.
	merged := t.newNode(c, child.kind)
	merged.level = n.level
	merged.prefixLen = n.prefixLen + 1 + child.prefixLen
	copy(merged.prefix[:], n.prefix[:n.prefixLen])
	merged.prefix[n.prefixLen] = cb
	copy(merged.prefix[n.prefixLen+1:], child.prefix[:child.prefixLen])
	merged.numChildren = child.numChildren
	copy(merged.keys, child.keys)
	copy(merged.children, child.children)
	pn.replaceChild(pb, ref{n: merged})
	merged.obsolete.Store(false)
	n.obsolete.Store(true)
	child.obsolete.Store(true)
	child.lock.ReleaseEx(c, ctok)
	return n, child
}
