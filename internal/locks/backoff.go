package locks

import (
	"sync/atomic"

	"optiql/internal/core"
	"optiql/internal/obs"
)

// OptLockBackoff is the centralized optimistic lock with truncated
// exponential backoff on CAS failure — the classic mitigation the
// paper's introduction discusses (Section 1.1): it eases cacheline
// contention but trades away fairness, making "lucky" threads far more
// likely to reacquire the lock. The fairness experiment quantifies
// that with per-thread acquisition counts.
type OptLockBackoff struct {
	word atomic.Uint64
	// rng state is per-acquisition (seeded from the word), keeping the
	// lock itself 8 bytes + this auxiliary field.
	seed atomic.Uint64
}

const (
	backoffMin = 1 << 4
	backoffMax = 1 << 14
)

// AcquireSh snapshots the word, as OptLock.
func (l *OptLockBackoff) AcquireSh(c *Ctx) (Token, bool) {
	v := l.word.Load()
	ok := v&optLockedBit == 0
	if !ok {
		c.Counters().Inc(obs.EvShAcquireFail)
	}
	return Token{Version: v}, ok
}

// ReleaseSh validates the snapshot.
func (l *OptLockBackoff) ReleaseSh(c *Ctx, t Token) bool {
	ok := l.word.Load() == t.Version
	if !ok {
		c.Counters().Inc(obs.EvShValidateFail)
	}
	return ok
}

// AcquireEx spins with truncated exponential backoff between attempts.
func (l *OptLockBackoff) AcquireEx(c *Ctx) Token {
	limit := backoffMin
	var s core.Spinner
	for {
		v := l.word.Load()
		if v&optLockedBit == 0 && l.word.CompareAndSwap(v, v|optLockedBit) {
			c.Counters().Inc(obs.EvExFree)
			return Token{Version: v}
		}
		// Back off for a pseudo-random delay under the current limit,
		// then double the limit (truncated).
		delay := int(l.nextRand()) & (limit - 1)
		for i := 0; i < delay; i++ {
			s.Spin()
		}
		if limit < backoffMax {
			limit <<= 1
		}
	}
}

func (l *OptLockBackoff) nextRand() uint64 {
	x := l.seed.Add(0x9E3779B97F4A7C15)
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	return x ^ (x >> 29)
}

// ReleaseEx bumps the version and clears the lock bit.
func (l *OptLockBackoff) ReleaseEx(_ *Ctx, _ Token) {
	l.word.Store((l.word.Load() + 1) &^ optLockedBit)
}

// Upgrade converts a validated read into an exclusive hold.
func (l *OptLockBackoff) Upgrade(c *Ctx, t Token) (Token, bool) {
	if t.Version&optLockedBit == 0 && l.word.CompareAndSwap(t.Version, t.Version|optLockedBit) {
		c.Counters().Inc(obs.EvUpgradeOK)
		return t, true
	}
	c.Counters().Inc(obs.EvUpgradeFail)
	return t, false
}

// CloseWindow is a no-op.
func (l *OptLockBackoff) CloseWindow(Token) {}

// BumpVersion advances an unlocked word's version (node recycling);
// skipped while held, when the holder's release bumps it instead.
func (l *OptLockBackoff) BumpVersion() {
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

// Pessimistic reports false.
func (l *OptLockBackoff) Pessimistic() bool { return false }
