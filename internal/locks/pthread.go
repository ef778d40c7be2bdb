package locks

import (
	"sync"

	"optiql/internal/obs"
)

// Pthread wraps the platform's blocking reader-writer lock
// (sync.RWMutex), playing the role of pthread_rwlock_t in the paper's
// comparison: pessimistic, larger than 8 bytes, and queue/futex-backed
// under contention.
type Pthread struct {
	mu sync.RWMutex
}

// AcquireSh blocks until the read lock is held; it always succeeds.
func (l *Pthread) AcquireSh(_ *Ctx) (Token, bool) {
	l.mu.RLock()
	return Token{}, true
}

// ReleaseSh drops the read lock; validation trivially succeeds.
func (l *Pthread) ReleaseSh(_ *Ctx, _ Token) bool {
	l.mu.RUnlock()
	return true
}

// AcquireEx blocks until the write lock is held. The futex-backed lock
// exposes no handover/free distinction, so every grant counts as free.
func (l *Pthread) AcquireEx(c *Ctx) Token {
	l.mu.Lock()
	c.Counters().Inc(obs.EvExFree)
	return Token{}
}

// ReleaseEx drops the write lock.
func (l *Pthread) ReleaseEx(_ *Ctx, _ Token) {
	l.mu.Unlock()
}

// Upgrade is unsupported (pthread rwlocks cannot upgrade atomically).
func (l *Pthread) Upgrade(_ *Ctx, t Token) (Token, bool) { return t, false }

// CloseWindow is a no-op.
func (l *Pthread) CloseWindow(Token) {}

// Pessimistic reports true.
func (l *Pthread) Pessimistic() bool { return true }
