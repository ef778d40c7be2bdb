package locks

import (
	"sync/atomic"

	"optiql/internal/core"
	"optiql/internal/obs"
)

// MCS is the Mellor-Crummey–Scott queue lock of Algorithm 1:
// exclusive-only, fair (FIFO), robust under contention thanks to local
// spinning. The 8-byte lock word is the queue tail pointer. It is the
// base design OptiQL extends, included as a reference point in the
// microbenchmarks. It shares the rwNode queue-node type with MCS-RW;
// the class field is simply unused.
type MCS struct {
	tail atomic.Pointer[rwNode]
}

// AcquireSh is unsupported: MCS is a mutual-exclusion lock.
func (l *MCS) AcquireSh(_ *Ctx) (Token, bool) {
	panic("locks: MCS does not support shared mode")
}

// ReleaseSh is unsupported.
func (l *MCS) ReleaseSh(_ *Ctx, _ Token) bool {
	panic("locks: MCS does not support shared mode")
}

// AcquireEx joins the FIFO queue with an atomic swap on the tail and
// spins locally on its own node until the predecessor grants the lock.
func (l *MCS) AcquireEx(c *Ctx) Token {
	n := c.getRW()
	n.reset(classWriter)
	prev := l.tail.Swap(n)
	if prev != nil {
		prev.next.Store(n)
		var s core.Spinner
		for n.granted.Load() == 0 {
			s.Spin()
		}
		c.Counters().Inc(obs.EvExHandover)
	} else {
		c.Counters().Inc(obs.EvExFree)
	}
	return Token{rw: n}
}

// ReleaseEx hands the lock to the successor, or resets the tail when
// the queue is empty.
func (l *MCS) ReleaseEx(c *Ctx, t Token) {
	n := t.rw
	if n.next.Load() == nil && l.tail.CompareAndSwap(n, nil) {
		c.putRW(n)
		return
	}
	var s core.Spinner
	for n.next.Load() == nil {
		s.Spin()
	}
	n.next.Load().granted.Store(1)
	c.putRW(n)
}

// Upgrade is unsupported.
func (l *MCS) Upgrade(_ *Ctx, t Token) (Token, bool) { return t, false }

// CloseWindow is a no-op.
func (l *MCS) CloseWindow(Token) {}

// Pessimistic reports true.
func (l *MCS) Pessimistic() bool { return true }
