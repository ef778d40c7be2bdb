package locks

import (
	"sync/atomic"

	"optiql/internal/core"
	"optiql/internal/obs"
)

// clhNode is a CLH queue node: requesters spin on their *predecessor's*
// node rather than their own, so nodes migrate between threads and are
// recycled through a per-lock freelist instead of the caller's Ctx.
type clhNode struct {
	locked atomic.Uint32
	_      [60]byte
}

// CLH is the Craig / Landin-Hagersten queue lock [9, 35], the other
// classic queue-based mutual-exclusion design the paper's related work
// discusses (OptiQL chose MCS; adapting CLH with optimistic reads is
// left as future work there). Included as an exclusive-only reference
// point alongside MCS.
type CLH struct {
	tail atomic.Pointer[clhNode]
	free atomic.Pointer[clhFree]
}

type clhFree struct {
	n    *clhNode
	next *clhFree
}

// AcquireSh is unsupported: CLH is a mutual-exclusion lock.
func (l *CLH) AcquireSh(_ *Ctx) (Token, bool) {
	panic("locks: CLH does not support shared mode")
}

// ReleaseSh is unsupported.
func (l *CLH) ReleaseSh(_ *Ctx, _ Token) bool {
	panic("locks: CLH does not support shared mode")
}

// AcquireEx enqueues a locked node and spins on the predecessor's.
// The token's Version smuggles the predecessor node through to
// ReleaseEx via the freelist (the caller releases with its own node
// becoming the successor's predecessor).
func (l *CLH) AcquireEx(c *Ctx) Token {
	n := l.getNode()
	n.locked.Store(1)
	pred := l.tail.Swap(n)
	if pred != nil {
		var s core.Spinner
		for pred.locked.Load() != 0 {
			s.Spin()
		}
		l.putNode(pred) // predecessor's node is now ours to recycle
		c.Counters().Inc(obs.EvExHandover)
	} else {
		c.Counters().Inc(obs.EvExFree)
	}
	return Token{clh: n}
}

// ReleaseEx clears this holder's node, granting the successor (which
// spins on it). The node itself is recycled by the successor.
func (l *CLH) ReleaseEx(_ *Ctx, t Token) {
	n := t.clh
	// If nobody queued behind us, try to reset the tail and reclaim the
	// node immediately.
	if l.tail.CompareAndSwap(n, nil) {
		l.putNode(n)
		return
	}
	n.locked.Store(0)
}

func (l *CLH) getNode() *clhNode {
	for {
		head := l.free.Load()
		if head == nil {
			return new(clhNode)
		}
		if l.free.CompareAndSwap(head, head.next) {
			return head.n
		}
	}
}

func (l *CLH) putNode(n *clhNode) {
	for {
		head := l.free.Load()
		f := &clhFree{n: n, next: head}
		if l.free.CompareAndSwap(head, f) {
			return
		}
	}
}

// Upgrade is unsupported.
func (l *CLH) Upgrade(_ *Ctx, t Token) (Token, bool) { return t, false }

// CloseWindow is a no-op.
func (l *CLH) CloseWindow(Token) {}

// Pessimistic reports true.
func (l *CLH) Pessimistic() bool { return true }
