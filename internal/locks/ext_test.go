package locks

import (
	"sync"
	"testing"

	"optiql/internal/core"
)

// TestExtensionSchemesRegistered covers the schemes beyond the paper's
// Figure 6 lineup.
func TestExtensionSchemesRegistered(t *testing.T) {
	ext := ExtendedNames()
	if len(ext) != len(AllNames())+2 {
		t.Fatalf("ExtendedNames = %v", ext)
	}
	bo := MustByName("OptLock-Backoff")
	if !bo.Optimistic || !bo.SharedMode || bo.QueueWriters {
		t.Fatalf("OptLock-Backoff capabilities wrong: %+v", bo)
	}
	clh := MustByName("CLH")
	if clh.Optimistic || clh.SharedMode {
		t.Fatalf("CLH capabilities wrong: %+v", clh)
	}
}

func TestCLHNoSharedMode(t *testing.T) {
	pool := core.NewPool(8)
	c := NewCtx(pool, 2)
	defer c.Close()
	l := MustByName("CLH").NewLock()
	defer func() {
		if recover() == nil {
			t.Fatal("CLH AcquireSh did not panic")
		}
	}()
	l.AcquireSh(c)
}

// TestCLHNodeRecycling drives enough handovers through a CLH lock that
// the freelist paths (immediate reclaim and successor reclaim) are
// both exercised, then re-checks mutual exclusion.
func TestCLHNodeRecycling(t *testing.T) {
	pool := core.NewPool(16)
	l := new(CLH)
	// Uncontended: immediate reclaim path.
	c := NewCtx(pool, 2)
	defer c.Close()
	for i := 0; i < 100; i++ {
		tok := l.AcquireEx(c)
		l.ReleaseEx(c, tok)
	}
	// Contended: successor-reclaim path.
	const goroutines, iters = 6, 2000
	counter := 0
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wc := NewCtx(pool, 2)
			defer wc.Close()
			for i := 0; i < iters; i++ {
				tok := l.AcquireEx(wc)
				counter++
				l.ReleaseEx(wc, tok)
			}
		}()
	}
	wg.Wait()
	if counter != goroutines*iters {
		t.Fatalf("counter = %d, want %d", counter, goroutines*iters)
	}
}

// TestBackoffOptimisticSemantics checks the backoff variant preserves
// OptLock's reader/upgrade semantics.
func TestBackoffOptimisticSemantics(t *testing.T) {
	pool := core.NewPool(8)
	c := NewCtx(pool, 2)
	defer c.Close()
	l := new(OptLockBackoff)

	tok, ok := l.AcquireSh(c)
	if !ok {
		t.Fatal("read rejected on fresh lock")
	}
	w := l.AcquireEx(c)
	if _, ok := l.AcquireSh(c); ok {
		t.Fatal("read admitted while locked")
	}
	l.ReleaseEx(c, w)
	if l.ReleaseSh(c, tok) {
		t.Fatal("stale validation passed")
	}
}
