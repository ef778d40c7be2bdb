package locks

import (
	"testing"

	"optiql/internal/core"
)

// TestSchemeCapabilityMethods pins the trivial capability methods of
// every lock variant.
func TestSchemeCapabilityMethods(t *testing.T) {
	pess := map[string]bool{
		"OptLock": false, "OptiQL": false, "OptiQL-NOR": false,
		"OptiQL-AOR": false, "OptLock-Backoff": false,
		"pthread": true, "MCS-RW": true, "TTS": true, "MCS": true, "CLH": true,
	}
	for name, want := range pess {
		l := MustByName(name).NewLock()
		if got := l.Pessimistic(); got != want {
			t.Errorf("%s.Pessimistic() = %v, want %v", name, got, want)
		}
		// CloseWindow must be callable with a zero token on every
		// variant without side effects on an unheld lock.
		l.CloseWindow(Token{})
	}
}

// TestQueuedHandoverPaths deterministically drives the contended
// acquire/release branches of the queue-based locks: one holder, one
// queued waiter, explicit handover.
func TestQueuedHandoverPaths(t *testing.T) {
	for _, name := range []string{"MCS", "CLH", "MCS-RW", "OptiQL", "OptiQL-NOR", "OptiQL-AOR"} {
		t.Run(name, func(t *testing.T) {
			pool := core.NewPool(16)
			l := MustByName(name).NewLock()
			c1 := NewCtx(pool, 4)
			defer c1.Close()

			tok := l.AcquireEx(c1)
			granted := make(chan struct{})
			done := make(chan struct{})
			go func() {
				c2 := NewCtx(pool, 4)
				defer c2.Close()
				tok2 := l.AcquireEx(c2) // must queue behind the holder
				close(granted)
				l.CloseWindow(tok2)
				l.ReleaseEx(c2, tok2)
				close(done)
			}()
			// Give the waiter time to enqueue; on one CPU a Gosched
			// storm inside AcquireEx guarantees it runs.
			for i := 0; i < 1000; i++ {
				select {
				case <-granted:
					t.Fatal("waiter granted while lock held")
				default:
				}
			}
			l.CloseWindow(tok)
			l.ReleaseEx(c1, tok) // handover path
			<-granted
			<-done
			// And the uncontended re-acquire still works.
			tok3 := l.AcquireEx(c1)
			l.ReleaseEx(c1, tok3)
		})
	}
}

// TestBackoffContended drives the backoff branch (CAS failure + delay).
func TestBackoffContended(t *testing.T) {
	pool := core.NewPool(8)
	l := new(OptLockBackoff)
	c1 := NewCtx(pool, 2)
	defer c1.Close()
	tok := l.AcquireEx(c1)
	acquired := make(chan struct{})
	go func() {
		c2 := NewCtx(pool, 2)
		defer c2.Close()
		t2 := l.AcquireEx(c2) // spins through the backoff path
		l.ReleaseEx(c2, t2)
		close(acquired)
	}()
	// Hold long enough that the waiter backs off at least once.
	for i := 0; i < 100000; i++ {
		_ = i
	}
	l.ReleaseEx(c1, tok)
	<-acquired
}

// TestTokenAccessors covers the public token/ctx helpers.
func TestTokenAccessors(t *testing.T) {
	pool := core.NewPool(8)
	c := NewCtx(pool, 2)
	defer c.Close()
	l := NewOptiQL()
	tok := l.AcquireEx(c)
	if tok.QNode() == nil {
		t.Fatal("exclusive OptiQL token has no queue node")
	}
	l.ReleaseEx(c, tok)
	if a, b := c.Rand(), c.Rand(); a == b {
		t.Fatal("Ctx.Rand repeated")
	}
}

// TestMCSRWReleaseShNonCloser covers the non-group-tail reader release:
// two readers overlap, the first to be granted extends the group, and
// the non-tail one releases without structural work.
func TestMCSRWReleaseShNonCloser(t *testing.T) {
	pool := core.NewPool(16)
	l := new(MCSRW)
	c1 := NewCtx(pool, 4)
	defer c1.Close()

	// Block the lock with a writer so two readers queue back to back.
	wtok := l.AcquireEx(c1)
	var t1, t2 Token
	r1in := make(chan struct{})
	r2in := make(chan struct{})
	release := make(chan struct{})
	go func() {
		c := NewCtx(pool, 4)
		defer c.Close()
		t1, _ = l.AcquireSh(c)
		close(r1in)
		<-release
		l.ReleaseSh(c, t1)
	}()
	// Wait for each reader to be queued behind the writer before going
	// on (the tail moves off the node in front): a reader that arrives
	// after the handover instead queues behind a granted r1, which is
	// waiting for it.
	var spin core.Spinner
	for l.tail.Load() == wtok.rw {
		spin.Spin()
	}
	r1node := l.tail.Load()
	go func() {
		c := NewCtx(pool, 4)
		defer c.Close()
		t2, _ = l.AcquireSh(c)
		close(r2in)
		l.ReleaseSh(c, t2) // r2 may or may not be the group tail
	}()
	for l.tail.Load() == r1node {
		spin.Spin()
	}
	l.ReleaseEx(c1, wtok)
	<-r1in
	<-r2in
	close(release)
	// Lock must end fully free.
	var s core.Spinner
	for {
		tok := l.AcquireEx(c1)
		l.ReleaseEx(c1, tok)
		break
	}
	_ = s
}
