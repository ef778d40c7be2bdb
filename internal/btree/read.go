package btree

import (
	"unsafe"

	"optiql/internal/kv"
	"optiql/internal/locks"
	"optiql/internal/obs"
	"optiql/internal/simd"
)

// prefetchNode requests every cache line of n after the first, up to
// the tree's span, at fixed offsets from n's own address. The read
// descent calls it on the chosen child before acquiring the child's
// lock and validating the parent, so all of the child's misses are in
// flight together while that happens; line 0 is left to the acquire.
// It reads no field of n: a load that waited on n's header would put
// that miss back in front of the others. n was read racily, but node
// memory is type-stable per size class and the span fits either
// role's struct (prefetchSpan), so every offset stays inside n's
// allocation.
//
// Heap-class nodes are the exception: their arrays are separate
// allocations that only the header reaches, so for them it warms the
// first key line through n.keys, bounds-checked because the header may
// be half-written.
//
//optiql:noalloc
func (t *Tree) prefetchNode(n *node) {
	if t.class == classHeap {
		if ks := n.keys; len(ks) > 0 {
			simd.Prefetch(unsafe.Pointer(&ks[0]))
		}
		return
	}
	p, span := unsafe.Pointer(n), t.span
	for off := uintptr(64); off < span; off += 64 {
		simd.Prefetch(unsafe.Add(p, off))
	}
}

// Lookup returns the value stored under k. The traversal is optimistic
// lock coupling: each node's version is validated after the child has
// been reached, and the whole operation restarts on any validation
// failure. Under pessimistic schemes the same code degrades gracefully
// to shared lock coupling (acquisitions block, validation always
// passes).
//
//optiql:noalloc
func (t *Tree) Lookup(c *locks.Ctx, k uint64) (uint64, bool) {
	// The first attempt enters at first; every failed validation or
	// structural recheck jumps to retry, which counts the restart and
	// falls through — so the happy path costs nothing.
	goto first
retry:
	c.Counters().Inc(obs.EvOpRestart)
	c.TraceRestart(k)
first:
	n := t.root.Load()
	tok, ok := n.lock.AcquireSh(c)
	if !ok {
		goto retry
	}
	if n != t.root.Load() {
		n.lock.ReleaseSh(c, tok)
		goto retry
	}
	for !n.leaf {
		child := n.children[n.childIndex(k)]
		if child == nil {
			n.lock.ReleaseSh(c, tok)
			goto retry
		}
		t.prefetchNode(child)
		ctok, cok := child.lock.AcquireSh(c)
		if !cok {
			// Optimistic only: nothing is held, so just retry.
			goto retry
		}
		if !n.lock.ReleaseSh(c, tok) {
			child.lock.ReleaseSh(c, ctok)
			goto retry
		}
		n, tok = child, ctok
	}
	v, found := n.leafGet(k)
	if !n.lock.ReleaseSh(c, tok) {
		goto retry
	}
	return v, found
}

// KV is a key/value pair returned by Scan. It aliases the repo-wide
// pair type so server scan buffers pass through without conversion.
type KV = kv.KV

// Scan appends up to max pairs with keys >= start in ascending order
// to out and returns the extended slice; any pairs already in out are
// left alone and do not count against max. It descends to the first
// relevant leaf and then walks the sibling chain with coupled per-leaf
// validation: a failed validation discards the current leaf's batch
// and restarts the scan from the first uncollected key.
//
//optiql:noalloc
func (t *Tree) Scan(c *locks.Ctx, start uint64, max int, out []KV) []KV {
	if max <= 0 {
		return out
	}
	limit := len(out) + max
	resume := start
	// Per-leaf staging buffer: stack storage for the common fanouts;
	// larger fanouts stage in the worker's Ctx scratch, which is lazily
	// grown once and reused, so steady-state scans are allocation-free
	// at any fanout.
	var tmpa [64]KV
	tmp := tmpa[:0]
	if t.fanout > len(tmpa) {
		tmp = c.ScanStage(t.fanout)
	}
	goto first
retry:
	c.Counters().Inc(obs.EvOpRestart)
	c.TraceRestart(resume)
first:
	if len(out) >= limit {
		return out
	}
	// Descend to the leaf covering resume.
	n := t.root.Load()
	tok, ok := n.lock.AcquireSh(c)
	if !ok {
		goto retry
	}
	if n != t.root.Load() {
		n.lock.ReleaseSh(c, tok)
		goto retry
	}
	for !n.leaf {
		child := n.children[n.childIndex(resume)]
		if child == nil {
			n.lock.ReleaseSh(c, tok)
			goto retry
		}
		t.prefetchNode(child)
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
	// Walk the sibling chain.
	for {
		tmp = tmp[:0]
		cnt := n.clampedCount()
		for i := n.lowerBound(resume); i < cnt && len(out)+len(tmp) < limit; i++ {
			tmp = append(tmp, KV{Key: n.keys[i], Value: n.values[i]})
		}
		nxt := n.next
		var ntok locks.Token
		if nxt != nil {
			// Warm the next leaf while this one's batch is validated
			// and committed.
			t.prefetchNode(nxt)
		}
		if nxt != nil && len(out)+len(tmp) < limit {
			var nok bool
			ntok, nok = nxt.lock.AcquireSh(c)
			if !nok {
				n.lock.ReleaseSh(c, tok)
				goto retry
			}
		} else {
			nxt = nil
		}
		if !n.lock.ReleaseSh(c, tok) {
			if nxt != nil {
				nxt.lock.ReleaseSh(c, ntok)
			}
			goto retry
		}
		// This leaf's batch is now validated: commit it.
		out = append(out, tmp...)
		if len(tmp) > 0 {
			last := tmp[len(tmp)-1].Key
			if last == ^uint64(0) {
				if nxt != nil {
					//optiqlvet:ignore shcheck nothing was read under ntok yet; the token is dropped unused, so there is no value to validate
					nxt.lock.ReleaseSh(c, ntok)
				}
				return out
			}
			resume = last + 1
		}
		if nxt == nil {
			return out
		}
		n, tok = nxt, ntok
	}
}
