package art

import (
	"optiql/internal/locks"
	"optiql/internal/obs"
)

// Update sets the value of an existing key, returning whether it was
// found. This is the operation Section 6.2 adapts most heavily:
//
//   - Under centralized optimistic locks the updater upgrades the leaf's
//     owner node and restarts from the root on failure — the behaviour
//     that collapses under contention.
//   - Under OptiQL the updater also upgrades (retaining the writer
//     queue on the lock word), but at a last-level node — one whose
//     children are all leaves at the final key byte — it blocks directly
//     on the lock, joining the FIFO queue instead of retrying. Sampled
//     upgrade failures feed the node's contention counter; past the
//     threshold the lazily-expanded path is materialized (contention
//     expansion) so future updaters find a last-level node to queue on.
//   - Under pessimistic schemes the updater releases its shared hold
//     and blocks for the exclusive lock, revalidating under it.
func (t *Tree) Update(c *locks.Ctx, k, v uint64) bool {
	goto first
retry:
	c.Counters().Inc(obs.EvOpRestart)
	c.TraceRestart(k)
first:
	n := t.root
	level := 0
	tok, ok := n.lock.AcquireSh(c)
	if !ok {
		goto retry
	}
	for {
		if checkPrefix(n, k, level) < n.prefixLen {
			if !n.lock.ReleaseSh(c, tok) {
				goto retry
			}
			return false // definitive miss
		}
		pos := level + n.prefixLen
		if pos >= 8 {
			n.lock.ReleaseSh(c, tok)
			goto retry
		}
		b := keyByte(k, pos)
		r := n.findChild(b)
		if r.empty() {
			if !n.lock.ReleaseSh(c, tok) {
				goto retry
			}
			return false
		}
		if r.l != nil {
			// A key mismatch is a miss without taking any lock (subject
			// to validation, which also proves the leaf was live).
			if r.l.key != k {
				if !n.lock.ReleaseSh(c, tok) {
					goto retry
				}
				return false
			}
			// Found the owner node of the target slot.
			if !t.scheme.Optimistic || (t.scheme.QueueWriters && pos == 7) {
				found, done := t.updateDirect(c, n, tok, k, v)
				if done {
					return found
				}
				goto retry
			}
			if tok, ok = n.lock.Upgrade(c, tok); ok {
				r.l.value = v
				n.lock.ReleaseEx(c, tok)
				return true
			}
			if t.scheme.QueueWriters {
				t.noteContention(c, n, k)
			}
			goto retry
		}
		child := r.n
		ctok, cok := child.lock.AcquireSh(c)
		if !cok {
			goto retry
		}
		if !n.lock.ReleaseSh(c, tok) {
			child.lock.ReleaseSh(c, ctok)
			goto retry
		}
		n, tok = child, ctok
		level = pos + 1
	}
}

// updateDirect blocks for the node's exclusive lock and revalidates
// under it. With node recycling the blocking acquisition needs care:
// the node can be freed and reused for a different position while we
// wait, so traversal-time evidence ("n is on k's search path") only
// holds if the node's life did not change. sameLife captures that: the
// generation is read before validating the shared snapshot — a passing
// validation pins the generation to the life the traversal saw — and
// compared again under the exclusive lock. A definitive miss is
// reported only when sameLife holds; a found leaf with key k is always
// safe to write (a live node holding k's leaf owns the key's current
// slot, whatever life it is). Returns (found, done); done=false asks
// the caller to restart the traversal. The opportunistic read window
// (AOR) stays open through the revalidation and closes just before the
// value write.
func (t *Tree) updateDirect(c *locks.Ctx, n *node, tok locks.Token, k, v uint64) (bool, bool) {
	// Pessimistic schemes hold a real shared lock; drop it before
	// blocking for the exclusive one. For optimistic schemes this is a
	// validation — Algorithm 4 locks first and validates afterwards.
	gen := n.gen.Load()
	sameLife := n.lock.ReleaseSh(c, tok)
	wtok := n.lock.AcquireEx(c)
	if n.obsolete.Load() {
		n.lock.ReleaseEx(c, wtok)
		return false, false
	}
	sameLife = sameLife && n.gen.Load() == gen
	// n.level (immutable per life) replaces the traversal level, which
	// may belong to a previous life of the node.
	if checkPrefix(n, k, n.level) < n.prefixLen {
		n.lock.ReleaseEx(c, wtok)
		return false, sameLife
	}
	pos := n.level + n.prefixLen
	if pos >= 8 {
		n.lock.ReleaseEx(c, wtok)
		return false, false
	}
	r := n.findChild(keyByte(k, pos))
	switch {
	case r.l != nil && r.l.key == k:
		n.lock.CloseWindow(wtok)
		r.l.value = v
		n.lock.ReleaseEx(c, wtok)
		return true, true
	case r.n != nil:
		// The slot was expanded into a subtree while we blocked.
		n.lock.ReleaseEx(c, wtok)
		return false, false
	default:
		n.lock.ReleaseEx(c, wtok)
		return false, sameLife // miss, definitive only in the same life
	}
}

// noteContention records a sampled upgrade failure on n and triggers
// contention expansion once the threshold is crossed (Section 6.2).
func (t *Tree) noteContention(c *locks.Ctx, n *node, k uint64) {
	if !t.expand {
		return
	}
	if t.sampleInv > 1 && c.Rand()%uint64(t.sampleInv) != 0 {
		return
	}
	if n.contention.Add(1) < t.threshold {
		return
	}
	t.tryExpand(c, n, k)
}

// tryExpand materializes the lazily-expanded path under n's slot for k
// down to the last key-byte level, so that subsequent updaters can
// block on a last-level node instead of upgrade-retrying. No-op if the
// structure changed in the meantime. Like the direct paths it uses
// n.level, not the traversal level: once the obsolete check passes, the
// node is live, and expanding whatever leaf hangs at its slot is a
// sound transformation even if the node was recycled since traversal.
func (t *Tree) tryExpand(c *locks.Ctx, n *node, k uint64) {
	wtok := n.lock.AcquireEx(c)
	defer n.lock.ReleaseEx(c, wtok)
	if n.obsolete.Load() {
		return
	}
	if checkPrefix(n, k, n.level) < n.prefixLen {
		return
	}
	pos := n.level + n.prefixLen
	if pos >= 7 {
		return // already last level
	}
	b := keyByte(k, pos)
	r := n.findChild(b)
	if r.l == nil {
		return // already expanded, or slot emptied
	}
	l := r.l
	n.lock.CloseWindow(wtok)
	// Build a last-level node whose prefix absorbs the remaining bytes
	// of the leaf's key, then swing the slot to it.
	last := t.newNode(c, kind4)
	last.level = pos + 1
	last.prefixLen = 6 - pos
	for i := 0; i < last.prefixLen; i++ {
		last.prefix[i] = keyByte(l.key, pos+1+i)
	}
	last.addChild(keyByte(l.key, 7), ref{l: l})
	n.replaceChild(b, ref{n: last})
	last.obsolete.Store(false)
	n.contention.Store(0)
	t.expansions.Add(1)
	c.Counters().Inc(obs.EvARTExpand)
}

// Insert stores (k, v), returning true if the key was newly inserted
// and false if an existing key's value was overwritten.
func (t *Tree) Insert(c *locks.Ctx, k, v uint64) bool {
	if t.scheme.Optimistic {
		return t.insertOptimistic(c, k, v)
	}
	return t.insertPessimistic(c, k, v)
}

// insertOptimistic is the OLC-ART insert: traverse optimistically while
// remembering the parent's version token, then upgrade exactly the
// nodes a given case needs (parent+node for growth and prefix splits,
// node alone otherwise). Any upgrade failure restarts from the root.
// Replaced nodes are marked obsolete under their lock and recycled
// after the release (the release's version bump is what invalidates
// every reader that could still hold a stale pointer).
func (t *Tree) insertOptimistic(c *locks.Ctx, k, v uint64) bool {
	goto first
retry:
	c.Counters().Inc(obs.EvOpRestart)
	c.TraceRestart(k)
first:
	var (
		pn   *node
		ptok locks.Token
		pb   byte
	)
	n := t.root
	level := 0
	tok, ok := n.lock.AcquireSh(c)
	if !ok {
		goto retry
	}
	for {
		off := checkPrefix(n, k, level)
		if off < n.prefixLen {
			// Prefix split: replace n (in pn's slot pb) with a new
			// Node4 branching between n's trimmed copy and the new
			// leaf. The root has no prefix, so pn exists.
			if ptok, ok = pn.lock.Upgrade(c, ptok); !ok {
				goto retry
			}
			if tok, ok = n.lock.Upgrade(c, tok); !ok {
				pn.lock.ReleaseEx(c, ptok)
				goto retry
			}
			np := t.newNode(c, kind4)
			np.level = n.level
			np.prefixLen = off
			copy(np.prefix[:], n.prefix[:off])
			trimmed := t.cloneTrimmed(c, n, off)
			np.addChild(n.prefix[off], ref{n: trimmed})
			np.addChild(keyByte(k, level+off), ref{l: t.newLeaf(c, k, v)})
			pn.replaceChild(pb, ref{n: np})
			np.obsolete.Store(false)
			trimmed.obsolete.Store(false)
			n.obsolete.Store(true)
			n.lock.ReleaseEx(c, tok)
			pn.lock.ReleaseEx(c, ptok)
			t.freeNode(c, n)
			t.size.Add(1)
			return true
		}
		pos := level + n.prefixLen
		if pos >= 8 {
			n.lock.ReleaseSh(c, tok)
			goto retry
		}
		b := keyByte(k, pos)
		r := n.findChild(b)
		if r.empty() {
			if n.full() {
				// Grow n into the next kind; needs the parent to swing
				// its slot. The root (Node256) is never full.
				if ptok, ok = pn.lock.Upgrade(c, ptok); !ok {
					goto retry
				}
				if tok, ok = n.lock.Upgrade(c, tok); !ok {
					pn.lock.ReleaseEx(c, ptok)
					goto retry
				}
				big := t.grow(c, n)
				big.addChild(b, ref{l: t.newLeaf(c, k, v)})
				pn.replaceChild(pb, ref{n: big})
				big.obsolete.Store(false)
				n.obsolete.Store(true)
				n.lock.ReleaseEx(c, tok)
				pn.lock.ReleaseEx(c, ptok)
				t.freeNode(c, n)
				t.size.Add(1)
				return true
			}
			if tok, ok = n.lock.Upgrade(c, tok); !ok {
				goto retry
			}
			n.addChild(b, ref{l: t.newLeaf(c, k, v)})
			n.lock.ReleaseEx(c, tok)
			t.size.Add(1)
			return true
		}
		if r.l != nil {
			if r.l.key == k {
				// Upsert of an existing key.
				if tok, ok = n.lock.Upgrade(c, tok); !ok {
					goto retry
				}
				r.l.value = v
				n.lock.ReleaseEx(c, tok)
				return false
			}
			// Lazy-expansion split: both keys share the path to pos;
			// branch them at their first diverging byte.
			if tok, ok = n.lock.Upgrade(c, tok); !ok {
				goto retry
			}
			nn := t.lazySplit(c, r.l, k, v, pos)
			n.replaceChild(b, ref{n: nn})
			nn.obsolete.Store(false)
			n.lock.ReleaseEx(c, tok)
			t.size.Add(1)
			return true
		}
		child := r.n
		ctok, cok := child.lock.AcquireSh(c)
		if !cok {
			goto retry
		}
		// Validate n but keep its token: it becomes the remembered
		// parent version for upgrades one level down.
		if !n.lock.ReleaseSh(c, tok) {
			child.lock.ReleaseSh(c, ctok)
			goto retry
		}
		pn, ptok, pb = n, tok, b
		n, tok = child, ctok
		level = pos + 1
	}
}

// insertPessimistic couples exclusive locks down the tree, holding the
// parent until the child is known not to need a parent-slot change.
func (t *Tree) insertPessimistic(c *locks.Ctx, k, v uint64) bool {
	var (
		pn   *node
		ptok locks.Token
		pb   byte
	)
	releaseParent := func() {
		if pn != nil {
			pn.lock.ReleaseEx(c, ptok)
			pn = nil
		}
	}
	n := t.root
	level := 0
	tok := n.lock.AcquireEx(c)
	for {
		off := checkPrefix(n, k, level)
		if off < n.prefixLen {
			np := t.newNode(c, kind4)
			np.level = n.level
			np.prefixLen = off
			copy(np.prefix[:], n.prefix[:off])
			trimmed := t.cloneTrimmed(c, n, off)
			np.addChild(n.prefix[off], ref{n: trimmed})
			np.addChild(keyByte(k, level+off), ref{l: t.newLeaf(c, k, v)})
			pn.replaceChild(pb, ref{n: np})
			np.obsolete.Store(false)
			trimmed.obsolete.Store(false)
			n.obsolete.Store(true)
			n.lock.ReleaseEx(c, tok)
			releaseParent()
			t.freeNode(c, n)
			t.size.Add(1)
			return true
		}
		pos := level + n.prefixLen
		b := keyByte(k, pos)
		r := n.findChild(b)
		if r.empty() {
			if n.full() {
				big := t.grow(c, n)
				big.addChild(b, ref{l: t.newLeaf(c, k, v)})
				pn.replaceChild(pb, ref{n: big})
				big.obsolete.Store(false)
				n.obsolete.Store(true)
				n.lock.ReleaseEx(c, tok)
				releaseParent()
				t.freeNode(c, n)
				t.size.Add(1)
				return true
			}
			n.addChild(b, ref{l: t.newLeaf(c, k, v)})
			n.lock.ReleaseEx(c, tok)
			releaseParent()
			t.size.Add(1)
			return true
		}
		if r.l != nil {
			inserted := true
			if r.l.key == k {
				r.l.value = v
				inserted = false
			} else {
				nn := t.lazySplit(c, r.l, k, v, pos)
				n.replaceChild(b, ref{n: nn})
				nn.obsolete.Store(false)
				t.size.Add(1)
			}
			n.lock.ReleaseEx(c, tok)
			releaseParent()
			return inserted
		}
		child := r.n
		ctok := child.lock.AcquireEx(c)
		releaseParent()
		pn, ptok, pb = n, tok, b
		n, tok = child, ctok
		level = pos + 1
	}
}

// cloneTrimmed copies n with its prefix cut after position off (the
// diverging byte n.prefix[off] becomes the branch byte in the new
// parent). Caller holds n exclusively; the copy sits one branch byte
// plus off levels deeper than n.
func (t *Tree) cloneTrimmed(c *locks.Ctx, n *node, off int) *node {
	cp := t.newNode(c, n.kind)
	cp.level = n.level + off + 1
	cp.prefixLen = n.prefixLen - off - 1
	copy(cp.prefix[:], n.prefix[off+1:n.prefixLen])
	cp.numChildren = n.numChildren
	copy(cp.keys, n.keys)
	copy(cp.children, n.children)
	return cp
}

// lazySplit builds the Node4 that separates existing leaf l from new
// key k; both agree on all bytes through pos and diverge at some later
// byte d <= 7.
func (t *Tree) lazySplit(c *locks.Ctx, l *leaf, k, v uint64, pos int) *node {
	d := pos + 1
	for keyByte(l.key, d) == keyByte(k, d) {
		d++
	}
	nn := t.newNode(c, kind4)
	nn.level = pos + 1
	nn.prefixLen = d - pos - 1
	for i := 0; i < nn.prefixLen; i++ {
		nn.prefix[i] = keyByte(k, pos+1+i)
	}
	nn.addChild(keyByte(l.key, d), ref{l: l})
	nn.addChild(keyByte(k, d), ref{l: t.newLeaf(c, k, v)})
	return nn
}

// Delete removes k, returning whether it was present. The entry is
// removed from its owner node in place; when the removal leaves the
// node markedly under-populated, the deleter opportunistically shrinks
// it to a smaller kind or re-applies path compression (shrink.go),
// using the remembered parent version exactly like insert's structural
// cases. Structural cleanup is skipped under pessimistic schemes
// (which cannot upgrade); their structure stays correct, just looser.
func (t *Tree) Delete(c *locks.Ctx, k uint64) bool {
	goto first
retry:
	c.Counters().Inc(obs.EvOpRestart)
	c.TraceRestart(k)
first:
	var (
		pn   *node
		ptok locks.Token
		pb   byte
	)
	n := t.root
	level := 0
	tok, ok := n.lock.AcquireSh(c)
	if !ok {
		goto retry
	}
	for {
		if checkPrefix(n, k, level) < n.prefixLen {
			if !n.lock.ReleaseSh(c, tok) {
				goto retry
			}
			return false
		}
		pos := level + n.prefixLen
		if pos >= 8 {
			n.lock.ReleaseSh(c, tok)
			goto retry
		}
		b := keyByte(k, pos)
		r := n.findChild(b)
		if r.empty() {
			if !n.lock.ReleaseSh(c, tok) {
				goto retry
			}
			return false
		}
		if r.l != nil {
			if r.l.key != k {
				if !n.lock.ReleaseSh(c, tok) {
					goto retry
				}
				return false
			}
			if t.scheme.Optimistic {
				if tok, ok = n.lock.Upgrade(c, tok); !ok {
					goto retry
				}
				l := r.l
				n.removeChild(b)
				t.size.Add(-1)
				var fn, fc *node
				if pn != nil && shrinkWorthy(n.kind, n.numChildren) {
					if ptok, ok = pn.lock.Upgrade(c, ptok); ok {
						fn, fc = t.shrinkLocked(c, pn, pb, n)
						pn.lock.ReleaseEx(c, ptok)
					}
				}
				n.lock.ReleaseEx(c, tok)
				// All locks are dropped: recycle the removed leaf and
				// whatever the shrink unlinked (fn's lock was released
				// just above; fc's inside shrinkLocked).
				t.freeLeaf(c, l)
				if fn != nil {
					t.freeNode(c, fn)
				}
				if fc != nil {
					t.freeNode(c, fc)
				}
				return true
			}
			removed, done := t.deleteDirect(c, n, tok, k)
			if done {
				return removed
			}
			goto retry
		}
		child := r.n
		ctok, cok := child.lock.AcquireSh(c)
		if !cok {
			goto retry
		}
		if !n.lock.ReleaseSh(c, tok) {
			child.lock.ReleaseSh(c, ctok)
			goto retry
		}
		pn, ptok, pb = n, tok, b
		n, tok = child, ctok
		level = pos + 1
	}
}

// deleteDirect is updateDirect's counterpart for pessimistic removal;
// the same life-tracking discipline applies (see updateDirect).
func (t *Tree) deleteDirect(c *locks.Ctx, n *node, tok locks.Token, k uint64) (bool, bool) {
	gen := n.gen.Load()
	sameLife := n.lock.ReleaseSh(c, tok)
	wtok := n.lock.AcquireEx(c)
	if n.obsolete.Load() {
		n.lock.ReleaseEx(c, wtok)
		return false, false
	}
	sameLife = sameLife && n.gen.Load() == gen
	if checkPrefix(n, k, n.level) < n.prefixLen {
		n.lock.ReleaseEx(c, wtok)
		return false, sameLife
	}
	pos := n.level + n.prefixLen
	if pos >= 8 {
		n.lock.ReleaseEx(c, wtok)
		return false, false
	}
	b := keyByte(k, pos)
	r := n.findChild(b)
	switch {
	case r.l != nil && r.l.key == k:
		l := r.l
		n.removeChild(b)
		n.lock.ReleaseEx(c, wtok)
		t.freeLeaf(c, l)
		t.size.Add(-1)
		return true, true
	case r.n != nil:
		n.lock.ReleaseEx(c, wtok)
		return false, false
	default:
		n.lock.ReleaseEx(c, wtok)
		return false, sameLife
	}
}
