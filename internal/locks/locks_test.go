package locks

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"optiql/internal/core"
)

func newCtx(t testing.TB, pool *core.Pool) *Ctx {
	t.Helper()
	c := NewCtx(pool, 4)
	t.Cleanup(c.Close)
	return c
}

// exclusiveSchemes lists every scheme, all of which support AcquireEx.
func exclusiveSchemes() []string { return ExtendedNames() }

func TestSchemeRegistry(t *testing.T) {
	for _, name := range AllNames() {
		s, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if s.Name != name {
			t.Fatalf("scheme %q reports name %q", name, s.Name)
		}
		if s.NewLock() == nil || s.NewInner() == nil || s.NewLeaf() == nil {
			t.Fatalf("scheme %q returned a nil lock", name)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Fatal("ByName accepted an unknown scheme")
	}
	for _, name := range ReaderCapableNames() {
		if !MustByName(name).SharedMode {
			t.Fatalf("reader-capable scheme %q reports no shared mode", name)
		}
	}
	for _, name := range []string{"TTS", "MCS"} {
		if MustByName(name).SharedMode {
			t.Fatalf("scheme %q should not report shared mode", name)
		}
	}
}

// TestMutualExclusionAllSchemes checks the non-atomic counter invariant
// for the exclusive path of every lock variant.
func TestMutualExclusionAllSchemes(t *testing.T) {
	const goroutines, iters = 8, 1500
	for _, name := range exclusiveSchemes() {
		t.Run(name, func(t *testing.T) {
			scheme := MustByName(name)
			pool := core.NewPool(goroutines * 4)
			l := scheme.NewLock()
			counter := 0
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c := NewCtx(pool, 4)
					defer c.Close()
					for i := 0; i < iters; i++ {
						tok := l.AcquireEx(c)
						counter++
						l.CloseWindow(tok)
						l.ReleaseEx(c, tok)
					}
				}()
			}
			wg.Wait()
			if counter != goroutines*iters {
				t.Fatalf("counter = %d, want %d", counter, goroutines*iters)
			}
		})
	}
}

// TestReadersObserveConsistentState drives mixed readers and writers on
// every reader-capable scheme: a validated (or pessimistic) read must
// never observe the two halves of the invariant out of sync.
func TestReadersObserveConsistentState(t *testing.T) {
	const writers, readers, iters = 4, 4, 1500
	for _, name := range ReaderCapableNames() {
		t.Run(name, func(t *testing.T) {
			scheme := MustByName(name)
			pool := core.NewPool((writers + readers) * 4) // every Ctx of both roles reserves 4
			l := scheme.NewLock()
			var a, b atomic.Uint64

			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c := NewCtx(pool, 4)
					defer c.Close()
					for i := 0; i < iters; i++ {
						tok := l.AcquireEx(c)
						l.CloseWindow(tok)
						a.Add(1)
						b.Add(1)
						l.ReleaseEx(c, tok)
					}
				}()
			}
			var torn, ok atomic.Uint64
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c := NewCtx(pool, 4)
					defer c.Close()
					for i := 0; i < iters; i++ {
						tok, admitted := l.AcquireSh(c)
						if !admitted {
							continue
						}
						av := a.Load()
						bv := b.Load()
						if l.ReleaseSh(c, tok) {
							ok.Add(1)
							if av != bv {
								torn.Add(1)
							}
						}
					}
				}()
			}
			wg.Wait()
			if torn.Load() != 0 {
				t.Fatalf("%d reads observed torn state", torn.Load())
			}
			if !scheme.Optimistic && ok.Load() != readers*iters {
				t.Fatalf("pessimistic scheme failed reads: %d/%d", ok.Load(), readers*iters)
			}
		})
	}
}

// TestUpgrade pins Upgrade's contract on every scheme: the token goes
// in and comes out by value. A failed upgrade returns its input bit for
// bit and leaves the Ctx's queue-node reserve as it found it (OptiQL
// takes a qnode before its CAS and must put it back); a successful one
// returns the token ReleaseEx accepts; schemes that cannot upgrade
// return (t, false).
func TestUpgrade(t *testing.T) {
	for _, name := range ExtendedNames() {
		t.Run(name, func(t *testing.T) {
			pool := core.NewPool(8)
			c := newCtx(t, pool)
			scheme := MustByName(name)
			l := scheme.NewLock()
			type reserve struct{ q, rw int }
			held := func() reserve { return reserve{len(c.q), len(c.rw)} }
			mustFail := func(what string, in Token) {
				t.Helper()
				before := held()
				out, ok := l.Upgrade(c, in)
				if ok {
					t.Fatalf("%s: upgrade succeeded", what)
				}
				if out != in {
					t.Fatalf("%s: failed upgrade changed the token: %+v -> %+v", what, in, out)
				}
				if got := held(); got != before {
					t.Fatalf("%s: failed upgrade moved the Ctx reserve: %+v -> %+v", what, before, got)
				}
			}

			if !scheme.Optimistic {
				mustFail("pessimistic scheme", Token{Version: 0x1234})
				return
			}

			idle := held()
			tok, ok := l.AcquireSh(c)
			if !ok {
				t.Fatal("read rejected on fresh lock")
			}
			up, ok := l.Upgrade(c, tok)
			if !ok {
				t.Fatal("upgrade failed on quiescent lock")
			}
			// The lock is held: a snapshot taken now, admitted or not,
			// must not upgrade.
			locked, _ := l.AcquireSh(c)
			mustFail("snapshot of a held lock", locked)
			l.CloseWindow(up)
			l.ReleaseEx(c, up)
			if got := held(); got != idle {
				t.Fatalf("upgrade + ReleaseEx moved the Ctx reserve: %+v -> %+v", idle, got)
			}
			// Both snapshots predate that release and are stale now.
			mustFail("stale snapshot", tok)
			mustFail("stale locked snapshot", locked)
			// The lock must still work afterwards.
			w := l.AcquireEx(c)
			l.ReleaseEx(c, w)
		})
	}
}

// TestMCSRWFairnessFIFO checks that a writer queued behind readers is
// granted before readers that arrive after it (no reader barging).
func TestMCSRWFairnessFIFO(t *testing.T) {
	pool := core.NewPool(32)
	l := new(MCSRW)
	c0 := newCtx(t, pool)

	// Hold the lock with a reader group of one.
	rt, _ := l.AcquireSh(c0)

	writerGranted := make(chan struct{})
	go func() {
		c := NewCtx(pool, 4)
		defer c.Close()
		tok := l.AcquireEx(c)
		close(writerGranted)
		l.ReleaseEx(c, tok)
	}()

	// Wait for the writer to be queued (tail is no longer the reader).
	var s core.Spinner
	for l.tail.Load() == rt.rw {
		s.Spin()
	}

	// A late reader must now queue behind the writer, not join the
	// active group.
	lateAdmitted := make(chan struct{})
	go func() {
		c := NewCtx(pool, 4)
		defer c.Close()
		tok, _ := l.AcquireSh(c)
		close(lateAdmitted)
		l.ReleaseSh(c, tok)
	}()

	select {
	case <-lateAdmitted:
		t.Fatal("late reader barged past a queued writer")
	case <-writerGranted:
		t.Fatal("writer granted while reader group active")
	default:
	}

	l.ReleaseSh(c0, rt)
	<-writerGranted
	<-lateAdmitted
}

// TestMCSRWConcurrentReaders checks that a group of readers holds the
// lock simultaneously (readers do not serialize).
func TestMCSRWConcurrentReaders(t *testing.T) {
	pool := core.NewPool(32)
	l := new(MCSRW)
	const n = 4
	var inside atomic.Int64
	var peak atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewCtx(pool, 4)
			defer c.Close()
			<-start
			tok, _ := l.AcquireSh(c)
			cur := inside.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			// Linger so the group can assemble.
			for j := 0; j < 10000; j++ {
				_ = j
			}
			inside.Add(-1)
			l.ReleaseSh(c, tok)
		}()
	}
	close(start)
	wg.Wait()
	if peak.Load() < 2 {
		t.Logf("note: reader concurrency peak = %d (timing-dependent on 1 CPU)", peak.Load())
	}
	// The lock must be fully released afterwards: a writer acquires
	// immediately.
	c := newCtx(t, pool)
	tok := l.AcquireEx(c)
	l.ReleaseEx(c, tok)
}

// TestMCSRWStress mixes readers and writers heavily, verifying the
// writer-exclusivity invariant with an inside-writers counter.
func TestMCSRWStress(t *testing.T) {
	const goroutines, iters = 8, 1200
	pool := core.NewPool(goroutines * 4)
	l := new(MCSRW)
	var writersIn, readersIn atomic.Int64
	var violations atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewCtx(pool, 4)
			defer c.Close()
			for i := 0; i < iters; i++ {
				if (g+i)%3 == 0 { // writer
					tok := l.AcquireEx(c)
					if writersIn.Add(1) != 1 || readersIn.Load() != 0 {
						violations.Add(1)
					}
					writersIn.Add(-1)
					l.ReleaseEx(c, tok)
				} else { // reader
					tok, _ := l.AcquireSh(c)
					readersIn.Add(1)
					if writersIn.Load() != 0 {
						violations.Add(1)
					}
					readersIn.Add(-1)
					l.ReleaseSh(c, tok)
				}
			}
		}()
	}
	wg.Wait()
	if violations.Load() != 0 {
		t.Fatalf("%d exclusivity violations", violations.Load())
	}
}

// TestOptLockVersionAdvances mirrors the core test for the centralized
// variant: every release bumps the version, and stale reads fail.
func TestOptLockVersionAdvances(t *testing.T) {
	pool := core.NewPool(8)
	c := newCtx(t, pool)
	l := new(OptLock)
	tok, _ := l.AcquireSh(c)
	for i := 1; i <= 3; i++ {
		w := l.AcquireEx(c)
		l.ReleaseEx(c, w)
		if got := l.Word(); got != uint64(i) {
			t.Fatalf("word after %d cycles = %d", i, got)
		}
	}
	if l.ReleaseSh(c, tok) {
		t.Fatal("stale read validated")
	}
}

// Property test: an OptLock upgrade succeeds iff no writer intervened
// since the snapshot.
func TestOptLockUpgradeProperty(t *testing.T) {
	pool := core.NewPool(8)
	c := newCtx(t, pool)
	f := func(intervene bool) bool {
		l := new(OptLock)
		tok, _ := l.AcquireSh(c)
		if intervene {
			w := l.AcquireEx(c)
			l.ReleaseEx(c, w)
		}
		tok, got := l.Upgrade(c, tok)
		if got {
			l.ReleaseEx(c, tok)
		}
		return got == !intervene
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCtxExhaustion pins the queue-node budget contract: a Ctx's
// reserve grows from the pool when it runs dry, keeps what it took
// until Close, and only an exhausted pool panics.
func TestCtxExhaustion(t *testing.T) {
	pool := core.NewPool(3)
	if c := NewCtx(pool, 0); len(c.q) != 0 {
		t.Fatalf("NewCtx(pool, 0) reserved %d queue nodes, want none", len(c.q))
	}
	c := NewCtx(pool, 1)
	ls := []*OptiQLLock{NewOptiQL(), NewOptiQL(), NewOptiQL()}
	var toks []Token
	for _, l := range ls { // one node from the reserve, two from the pool
		toks = append(toks, l.AcquireEx(c))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a queue-based acquire on an exhausted pool did not panic")
			}
		}()
		NewOptiQL().AcquireEx(c)
	}()
	for i, l := range ls {
		l.ReleaseEx(c, toks[i])
	}
	if len(c.q) != 3 {
		t.Fatalf("reserve holds %d queue nodes after release, want the 3 it used", len(c.q))
	}
	if _, ok := pool.TryGet(); ok {
		t.Fatal("released queue nodes went back to the pool before Close")
	}
	// A reserve that has grown serves later acquires without the pool.
	for _, l := range ls {
		l.ReleaseEx(c, l.AcquireEx(c))
	}
	c.Close()
	for i := 0; i < 3; i++ {
		if _, ok := pool.TryGet(); !ok {
			t.Fatalf("Close returned %d queue nodes to the pool, want 3", i)
		}
	}
}

// TestTTSAndMCSNoSharedMode confirms the exclusive-only locks reject
// shared usage loudly rather than misbehaving.
func TestTTSAndMCSNoSharedMode(t *testing.T) {
	pool := core.NewPool(4)
	c := newCtx(t, pool)
	for _, name := range []string{"TTS", "MCS"} {
		l := MustByName(name).NewLock()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s AcquireSh did not panic", name)
				}
			}()
			l.AcquireSh(c)
		}()
	}
}

// TestOptiQLFIFOOrder verifies writers are granted in the order they
// joined the queue, by serializing arrivals and recording grant order.
func TestOptiQLFIFOOrder(t *testing.T) {
	const n = 6
	pool := core.NewPool(n + 2)
	l := NewOptiQL()
	hold := NewCtx(pool, 2)
	defer hold.Close()
	tok := l.AcquireEx(hold) // hold the lock so everyone else queues

	qidShift := bits.TrailingZeros64(core.QIDMask)
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	ctxs := make([]*Ctx, n)
	for i := 0; i < n; i++ {
		ctxs[i] = NewCtx(pool, 1)
		defer ctxs[i].Close()
	}
	for i := 0; i < n; i++ {
		i := i
		// The Ctx holds exactly one queue node, so we know which node
		// the goroutine will enqueue and can wait for its arrival
		// before starting the next, making arrival order deterministic.
		qid := uint64(ctxs[i].q[len(ctxs[i].q)-1].ID())
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := l.AcquireEx(ctxs[i])
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			l.ReleaseEx(ctxs[i], w)
		}()
		var s core.Spinner
		for (l.Core().Word()&core.QIDMask)>>qidShift != qid {
			s.Spin()
		}
	}
	l.ReleaseEx(hold, tok)
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("grant order %v violates FIFO arrival order", order)
		}
	}
}
