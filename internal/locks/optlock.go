package locks

import (
	"sync/atomic"
	"unsafe"

	"optiql/internal/core"
	"optiql/internal/obs"
	"optiql/internal/obs/trace"
)

// optLockedBit is the most significant bit of the OptLock word, exactly
// as in Figure 2(b) of the paper.
const optLockedBit = uint64(1) << 63

// OptLock is the centralized optimistic lock used by BTreeOLC, ART and
// other memory-optimized indexes: a TTS-style spinlock whose 8-byte
// word also carries a version counter incremented on every release.
// Readers snapshot the word and validate it; writers CAS the locked bit
// and retry centrally — the behaviour that collapses under contention
// and that OptiQL is designed to fix.
//
// The zero value is an unlocked lock at version zero.
type OptLock struct {
	word atomic.Uint64
}

// Word returns the raw lock word (diagnostics and tests).
func (l *OptLock) Word() uint64 { return l.word.Load() }

// AcquireSh snapshots the word; the read may proceed iff the locked bit
// is clear.
//
//optiql:noalloc
func (l *OptLock) AcquireSh(c *Ctx) (Token, bool) {
	v := l.word.Load()
	ok := v&optLockedBit == 0
	if !ok {
		c.Counters().Inc(obs.EvShAcquireFail)
	}
	return Token{Version: v}, ok
}

// ReleaseSh validates that the word is unchanged since AcquireSh.
//
//optiql:noalloc
func (l *OptLock) ReleaseSh(c *Ctx, t Token) bool {
	ok := l.word.Load() == t.Version
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

// AcquireEx spins until it CASes the locked bit on, TTS style: it only
// attempts the CAS after observing an unlocked word, but under
// contention many threads still retry the CAS on the same cacheline.
// Centralized locks have no handover path, so every grant counts as a
// free-word acquisition.
//
//optiql:noalloc
func (l *OptLock) AcquireEx(c *Ctx) Token {
	tb := c.tr
	sampled := tb.Sample()
	var t0 int64
	if sampled {
		t0 = tb.Now()
	}
	var s core.Spinner
	for {
		v := l.word.Load()
		if v&optLockedBit == 0 && l.word.CompareAndSwap(v, v|optLockedBit) {
			c.Counters().Inc(obs.EvExFree)
			if sampled {
				// Centralized locks never hand over; the wait span is
				// pure CAS-retry spinning.
				tb.LockWait(t0, tb.Now()-t0, 0, lockID(unsafe.Pointer(l)))
			}
			return Token{Version: v}
		}
		s.Spin()
	}
}

// ReleaseEx increments the version and clears the locked bit in one
// plain store (the holder is the only writer).
//
//optiql:noalloc
func (l *OptLock) ReleaseEx(_ *Ctx, _ Token) {
	l.word.Store((l.word.Load() + 1) &^ optLockedBit)
}

// Upgrade converts a validated read into an exclusive hold by CASing
// from the snapshot to the locked word, the standard OLC "upgrade".
//
//optiql:noalloc
func (l *OptLock) Upgrade(c *Ctx, t Token) (Token, bool) {
	if t.Version&optLockedBit == 0 && l.word.CompareAndSwap(t.Version, t.Version|optLockedBit) {
		c.Counters().Inc(obs.EvUpgradeOK)
		return t, true
	}
	c.Counters().Inc(obs.EvUpgradeFail)
	if tb := c.tr; tb.Sample() {
		id := lockID(unsafe.Pointer(l))
		tb.Event(trace.KindLockUpgradeFail, 0, id)
		tb.NoteNode(id)
	}
	return t, false
}

// CloseWindow is a no-op: centralized optimistic locks have no
// opportunistic read window.
//
//optiql:noalloc
func (l *OptLock) CloseWindow(Token) {}

// BumpVersion advances the version of an unlocked word so readers
// holding older snapshots fail validation (node recycling; see
// recycle.go). If the lock is held, the holder's own release will bump
// the version, so the CAS is simply skipped.
//
//optiql:noalloc
func (l *OptLock) BumpVersion() {
	for {
		v := l.word.Load()
		if v&optLockedBit != 0 {
			return
		}
		if l.word.CompareAndSwap(v, v+1) {
			return
		}
	}
}

// Pessimistic reports false: readers validate instead of blocking.
func (l *OptLock) Pessimistic() bool { return false }
