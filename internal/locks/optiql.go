package locks

import (
	"unsafe"

	"optiql/internal/core"
	"optiql/internal/obs"
	"optiql/internal/obs/trace"
)

// orMode selects how an OptiQLLock drives the opportunistic read
// window, covering the three variants evaluated in the paper.
type orMode uint8

const (
	// orOn is standard OptiQL: the window opens at writer-to-writer
	// handover and the incoming writer closes it as it is granted.
	orOn orMode = iota
	// orOff is OptiQL-NOR: the window never opens; readers succeed only
	// while the writer queue is completely empty.
	orOff
	// orAdjustable is OptiQL-AOR: the incoming writer leaves the window
	// open and the caller closes it (CloseWindow) just before its first
	// modification, admitting more readers during read-only preparation
	// such as the leaf search in a B+-tree update.
	orAdjustable
)

// OptiQLLock adapts core.OptiQL to the uniform Lock interface. Use
// NewOptiQL, NewOptiQLNOR or NewOptiQLAOR to pick the variant.
type OptiQLLock struct {
	l    core.OptiQL
	mode orMode
}

// NewOptiQL returns a standard OptiQL lock (opportunistic read on).
func NewOptiQL() *OptiQLLock { return &OptiQLLock{mode: orOn} }

// NewOptiQLNOR returns the no-opportunistic-read variant.
func NewOptiQLNOR() *OptiQLLock { return &OptiQLLock{mode: orOff} }

// NewOptiQLAOR returns the adjustable-opportunistic-read variant; the
// caller must invoke CloseWindow between AcquireEx and the first write
// to the protected data.
func NewOptiQLAOR() *OptiQLLock { return &OptiQLLock{mode: orAdjustable} }

// Core exposes the underlying core lock (diagnostics and tests).
func (l *OptiQLLock) Core() *core.OptiQL { return &l.l }

// AcquireSh begins an optimistic read: one load, no shared-memory
// writes, regardless of variant.
//
//optiql:noalloc
func (l *OptiQLLock) AcquireSh(c *Ctx) (Token, bool) {
	v, ok := l.l.AcquireSh()
	if !ok {
		c.Counters().Inc(obs.EvShAcquireFail)
	} else if v&core.StatusMask == core.LockedBit|core.OpReadBit {
		// Admitted through an open opportunistic read window — a read
		// only the OR/AOR protocol admits while a writer holds the lock.
		c.Counters().Inc(obs.EvShOpportunistic)
		if tb := c.tr; tb.Sample() {
			tb.Event(trace.KindLockOpportunistic, 0, lockID(unsafe.Pointer(l)))
		}
	}
	return Token{Version: v}, ok
}

// ReleaseSh validates the optimistic read.
//
//optiql:noalloc
func (l *OptiQLLock) ReleaseSh(c *Ctx, t Token) bool {
	ok := l.l.ReleaseSh(t.Version)
	if !ok {
		c.Counters().Inc(obs.EvShValidateFail)
		if tb := c.tr; tb.Sample() {
			id := lockID(unsafe.Pointer(l))
			tb.Event(trace.KindLockReadFail, 0, id)
			tb.NoteNode(id)
		}
	}
	return ok
}

// AcquireEx joins the writer queue with a queue node drawn from the
// Ctx and blocks until granted.
//
//optiql:noalloc
func (l *OptiQLLock) AcquireEx(c *Ctx) Token {
	q := c.getQ()
	// The sampling decision and clock read happen outside the lock's
	// word operations: a sampled acquire reads the clock twice; an
	// unsampled one pays one counter increment.
	tb := c.tr
	sampled := tb.Sample()
	var t0 int64
	if sampled {
		t0 = tb.Now()
	}
	var handover bool
	if l.mode == orAdjustable {
		handover = l.l.AcquireExAOR(q)
	} else {
		handover = l.l.AcquireEx(q)
	}
	if handover {
		c.Counters().Inc(obs.EvExHandover)
	} else {
		c.Counters().Inc(obs.EvExFree)
	}
	if sampled {
		var fl uint8
		if handover {
			fl = trace.FlagHandover
		}
		tb.LockWait(t0, tb.Now()-t0, fl, lockID(unsafe.Pointer(l)))
	}
	return Token{q: q}
}

// ReleaseEx releases the exclusive hold, opening the opportunistic
// window for the successor unless the variant is NOR.
//
//optiql:noalloc
func (l *OptiQLLock) ReleaseEx(c *Ctx, t Token) {
	if l.mode == orAdjustable {
		// The release protocol requires the window to be closed; make
		// that unconditional (idempotent) rather than deadlock if a
		// caller path skipped CloseWindow.
		l.l.CloseWindow()
	}
	var fan int
	if l.mode == orOff {
		fan = l.l.ReleaseExNoOR(t.q)
	} else {
		fan = l.l.ReleaseEx(t.q)
	}
	countFanout(c, fan)
	c.putQ(t.q)
}

// AcquireShQueued joins the writer queue as a pessimistic shared
// requester (SharedQueuer): instead of optimistic snapshot/validate, the
// reader takes a queue node and is granted — together with all
// compatible neighbours, by one batch grant — in FIFO order. Intended
// for contention fallback: an optimistic reader stuck in a restart
// storm can queue once and is then immune to further validation
// failures during its read.
//
//optiql:noalloc
func (l *OptiQLLock) AcquireShQueued(c *Ctx) Token {
	q := c.getQ()
	tb := c.tr
	sampled := tb.Sample()
	var t0 int64
	if sampled {
		t0 = tb.Now()
	}
	handover := l.l.AcquireShQueued(q, l.mode != orOff)
	if sampled {
		var fl uint8
		if handover {
			fl = trace.FlagHandover
		}
		tb.LockWait(t0, tb.Now()-t0, fl, lockID(unsafe.Pointer(l)))
	}
	return Token{q: q}
}

// ReleaseShQueued ends a queued-shared hold; the group's last member
// hands over to the next compatible prefix (counted as a batch grant
// when the fanout exceeds one).
//
//optiql:noalloc
func (l *OptiQLLock) ReleaseShQueued(c *Ctx, t Token) {
	fan := l.l.ReleaseShQueued(t.q, l.mode != orOff)
	countFanout(c, fan)
	c.putQ(t.q)
}

// Upgrade converts a validated optimistic read into an exclusive hold
// while keeping the queueing behaviour for subsequent writers
// (Section 6.2, added for ART).
//
//optiql:noalloc
func (l *OptiQLLock) Upgrade(c *Ctx, t Token) (Token, bool) {
	q := c.getQ()
	if !l.l.Upgrade(t.Version, q) {
		c.putQ(q)
		c.Counters().Inc(obs.EvUpgradeFail)
		if tb := c.tr; tb.Sample() {
			id := lockID(unsafe.Pointer(l))
			tb.Event(trace.KindLockUpgradeFail, 0, id)
			tb.NoteNode(id)
		}
		return t, false
	}
	t.q = q
	c.Counters().Inc(obs.EvUpgradeOK)
	return t, true
}

// CloseWindow closes the deferred opportunistic window of the AOR
// variant; a no-op for the others (their window is already closed by
// the time AcquireEx returns).
//
//optiql:noalloc
func (l *OptiQLLock) CloseWindow(Token) {
	if l.mode == orAdjustable {
		l.l.CloseWindow()
	}
}

// Pessimistic reports false: readers are optimistic.
func (l *OptiQLLock) Pessimistic() bool { return false }

// BumpVersion advances the version of an unlocked word (node
// recycling; see recycle.go and core.OptiQL.BumpVersion).
//
//optiql:noalloc
func (l *OptiQLLock) BumpVersion() { l.l.BumpVersion() }
