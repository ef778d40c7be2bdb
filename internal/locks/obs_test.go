package locks

import (
	"testing"

	"optiql/internal/core"
	"optiql/internal/obs"
)

// newObsCtx returns a Ctx wired to a fresh counter set from reg.
func newObsCtx(t *testing.T, pool *core.Pool, reg *obs.Registry) *Ctx {
	t.Helper()
	c := NewCtx(pool, 4)
	c.SetCounters(reg.NewCounters())
	t.Cleanup(c.Close)
	return c
}

// TestOptLockCounters drives OptLock through a known single-threaded
// operation sequence and asserts the exact counter values it produces.
func TestOptLockCounters(t *testing.T) {
	pool := core.NewPool(8)
	reg := obs.NewRegistry()
	c := newObsCtx(t, pool, reg)
	l := new(OptLock)

	// A clean read counts nothing.
	tok, ok := l.AcquireSh(c)
	if !ok || !l.ReleaseSh(c, tok) {
		t.Fatal("read on free lock must succeed")
	}

	// 3 shared acquires while the lock is held: 3 acquire failures.
	w := l.AcquireEx(c) // +1 ex_acquire_free
	for i := 0; i < 3; i++ {
		if _, ok := l.AcquireSh(c); ok {
			t.Fatal("read while locked must fail")
		}
	}
	l.ReleaseEx(c, w)

	// 2 reads invalidated by an intervening writer: 2 validation
	// failures (and 2 more free exclusive acquisitions).
	for i := 0; i < 2; i++ {
		tok, ok := l.AcquireSh(c)
		if !ok {
			t.Fatal("read on free lock must succeed")
		}
		w := l.AcquireEx(c) // +1 ex_acquire_free
		l.ReleaseEx(c, w)
		if l.ReleaseSh(c, tok) {
			t.Fatal("validation after a write must fail")
		}
	}

	// One successful upgrade, then one failed (stale snapshot).
	tok, _ = l.AcquireSh(c)
	if tok, ok = l.Upgrade(c, tok); !ok {
		t.Fatal("upgrade from clean snapshot must succeed")
	}
	l.ReleaseEx(c, tok)
	tok, _ = l.AcquireSh(c)
	w = l.AcquireEx(c) // +1 ex_acquire_free
	l.ReleaseEx(c, w)
	if _, ok = l.Upgrade(c, tok); ok {
		t.Fatal("upgrade from stale snapshot must fail")
	}

	want := map[obs.Event]uint64{
		obs.EvShAcquireFail:  3,
		obs.EvShValidateFail: 2,
		obs.EvExFree:         4,
		obs.EvExHandover:     0,
		obs.EvUpgradeOK:      1,
		obs.EvUpgradeFail:    1,
	}
	snap := reg.Snapshot()
	for e, n := range want {
		if got := snap.Get(e); got != n {
			t.Errorf("%s = %d, want %d", e.Name(), got, n)
		}
	}
}

// TestOptiQLCountersHandover forces a deterministic writer-to-writer
// queue handover on the AOR variant and checks the free/handover split,
// the opportunistic-read admission count, and window-close effects.
func TestOptiQLCountersHandover(t *testing.T) {
	pool := core.NewPool(16)
	reg := obs.NewRegistry()
	ca := newObsCtx(t, pool, reg) // writer A (main goroutine)
	cr := newObsCtx(t, pool, reg) // reader (main goroutine)
	l := NewOptiQLAOR()

	tokA := l.AcquireEx(ca) // free acquisition: +1 ex_acquire_free on ca
	held := l.Core().Word()

	// Writer B queues behind A in its own goroutine (its Ctx is used
	// only there until the channel send synchronizes).
	cb := NewCtx(pool, 4)
	cb.SetCounters(reg.NewCounters())
	defer cb.Close()
	tokB := make(chan Token)
	go func() {
		tokB <- l.AcquireEx(cb) // handover: +1 ex_acquire_handover on cb
	}()

	// Wait until B has swapped itself onto the lock word, then release:
	// the release protocol opens the opportunistic window and hands the
	// lock to B; being AOR, B leaves the window open.
	var s core.Spinner
	for l.Core().Word() == held {
		s.Spin()
	}
	l.ReleaseEx(ca, tokA)
	b := <-tokB

	// B holds the lock with the window open: the reader is admitted
	// opportunistically and validates (the word is stable until B
	// closes the window).
	rt, ok := l.AcquireSh(cr)
	if !ok {
		t.Fatal("reader must be admitted through the open window")
	}
	if !l.ReleaseSh(cr, rt) {
		t.Fatal("validation must succeed while the window stays open")
	}

	// Closing the window flips the word: a fresh shared acquire now
	// fails up front, and the pre-close snapshot no longer validates.
	l.CloseWindow(b)
	if _, ok := l.AcquireSh(cr); ok {
		t.Fatal("reader must be rejected after the window closes")
	}
	if l.ReleaseSh(cr, rt) {
		t.Fatal("pre-close snapshot must fail validation")
	}
	l.ReleaseEx(cb, b)

	snap := reg.Snapshot()
	want := map[obs.Event]uint64{
		obs.EvShOpportunistic: 1,
		obs.EvShAcquireFail:   1,
		obs.EvShValidateFail:  1,
		obs.EvExFree:          1,
		obs.EvExHandover:      1,
	}
	for e, n := range want {
		if got := snap.Get(e); got != n {
			t.Errorf("%s = %d, want %d", e.Name(), got, n)
		}
	}
}

// TestOptiQLUpgradeCounters checks the upgrade success/failure counts
// on the OptiQL adapter (the ART try-lock path).
func TestOptiQLUpgradeCounters(t *testing.T) {
	pool := core.NewPool(8)
	reg := obs.NewRegistry()
	c := newObsCtx(t, pool, reg)
	l := NewOptiQL()

	tok, ok := l.AcquireSh(c)
	if tok, ok = l.Upgrade(c, tok); !ok {
		t.Fatal("upgrade from clean snapshot must succeed")
	}
	l.ReleaseEx(c, tok)

	tok, _ = l.AcquireSh(c)
	w := l.AcquireEx(c)
	l.ReleaseEx(c, w)
	if _, ok = l.Upgrade(c, tok); ok {
		t.Fatal("upgrade from stale snapshot must fail")
	}

	snap := reg.Snapshot()
	if got := snap.Get(obs.EvUpgradeOK); got != 1 {
		t.Errorf("upgrade_ok = %d, want 1", got)
	}
	if got := snap.Get(obs.EvUpgradeFail); got != 1 {
		t.Errorf("upgrade_fail = %d, want 1", got)
	}
}

// TestQueueLockHandoverCounters checks the free/handover split on the
// exclusive-only queue locks (MCS, CLH) and MCS-RW.
func TestQueueLockHandoverCounters(t *testing.T) {
	for _, name := range []string{"MCS", "CLH", "MCS-RW"} {
		t.Run(name, func(t *testing.T) {
			pool := core.NewPool(16)
			reg := obs.NewRegistry()
			ca := newObsCtx(t, pool, reg)
			l := MustByName(name).NewLock()

			tokA := l.AcquireEx(ca) // +1 ex_acquire_free

			cb := NewCtx(pool, 4)
			cb.SetCounters(reg.NewCounters())
			defer cb.Close()
			done := make(chan struct{})
			go func() {
				tokB := l.AcquireEx(cb) // +1 ex_acquire_handover
				l.ReleaseEx(cb, tokB)
				close(done)
			}()
			// B is parked behind A (or yet to arrive — the handover CAS
			// in A's release resolves either way); release and wait.
			l.ReleaseEx(ca, tokA)
			<-done

			snap := reg.Snapshot()
			free, hand := snap.Get(obs.EvExFree), snap.Get(obs.EvExHandover)
			if free+hand != 2 || free < 1 {
				t.Fatalf("free=%d handover=%d, want 2 acquisitions with >=1 free", free, hand)
			}
		})
	}
}

// TestCountersDisabledByDefault verifies a Ctx without SetCounters is a
// no-op (nil-safe) on every adapter path rather than a panic.
func TestCountersDisabledByDefault(t *testing.T) {
	pool := core.NewPool(8)
	c := NewCtx(pool, 4)
	defer c.Close()
	if c.Counters() != nil {
		t.Fatal("fresh Ctx must have nil counters")
	}
	for _, name := range ExtendedNames() {
		s := MustByName(name)
		l := s.NewLock()
		tok := l.AcquireEx(c)
		l.ReleaseEx(c, tok)
		if s.SharedMode {
			tok, ok := l.AcquireSh(c)
			if ok {
				l.ReleaseSh(c, tok)
			}
		}
	}
}
