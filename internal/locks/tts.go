package locks

import (
	"sync/atomic"

	"optiql/internal/core"
	"optiql/internal/obs"
)

// TTS is the classic test-and-test-and-set spinlock of Figure 2(a):
// exclusive-only, centralized, no reader support. It is included as a
// reference point for writer performance, as in the paper's Figure 6.
type TTS struct {
	word atomic.Uint64
}

// AcquireSh is unsupported: TTS has no shared mode.
func (l *TTS) AcquireSh(_ *Ctx) (Token, bool) {
	panic("locks: TTS does not support shared mode")
}

// ReleaseSh is unsupported: TTS has no shared mode.
func (l *TTS) ReleaseSh(_ *Ctx, _ Token) bool {
	panic("locks: TTS does not support shared mode")
}

// AcquireEx spins until the lock is taken: test (plain load), then
// test-and-set (CAS) only when the lock looks free. Centralized, so
// every grant is a free-word acquisition.
func (l *TTS) AcquireEx(c *Ctx) Token {
	var s core.Spinner
	for {
		if l.word.Load() == 0 && l.word.CompareAndSwap(0, 1) {
			c.Counters().Inc(obs.EvExFree)
			return Token{}
		}
		s.Spin()
	}
}

// ReleaseEx clears the lock word.
func (l *TTS) ReleaseEx(_ *Ctx, _ Token) {
	l.word.Store(0)
}

// Upgrade is unsupported.
func (l *TTS) Upgrade(_ *Ctx, t Token) (Token, bool) { return t, false }

// CloseWindow is a no-op.
func (l *TTS) CloseWindow(Token) {}

// Pessimistic reports true: there are no optimistic readers.
func (l *TTS) Pessimistic() bool { return true }
