package locks

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"optiql/internal/core"
	"optiql/internal/obs"
)

// TestMCSRWBatchGrantReaderGroup pins the MCS-RW analogue: a writer's
// release facing [R R R W] admits the whole reader group in one batch
// grant (fanout 3), all three readers overlap, and the group's closer
// hands over to the writer without re-waking anyone.
func TestMCSRWBatchGrantReaderGroup(t *testing.T) {
	pool := core.NewPool(16)
	reg := obs.NewRegistry()
	var l MCSRW

	holder := newCtx(t, pool)
	holder.SetCounters(reg.NewCounters())
	htok := l.AcquireEx(holder)

	const nReaders = 3
	var (
		inside   atomic.Int32
		maxIn    atomic.Int32
		wWoke    atomic.Int32
		wg       sync.WaitGroup
		hold     = make(chan struct{})
		allIn    = make(chan struct{})
		allInOnc sync.Once
	)
	startWaiter := func(reader bool) {
		prev := l.tail.Load()
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewCtx(pool, 2)
			defer c.Close()
			c.SetCounters(reg.NewCounters())
			if reader {
				tok, _ := l.AcquireSh(c)
				n := inside.Add(1)
				for {
					m := maxIn.Load()
					if n <= m || maxIn.CompareAndSwap(m, n) {
						break
					}
				}
				if n == nReaders {
					allInOnc.Do(func() { close(allIn) })
				}
				<-hold
				inside.Add(-1)
				l.ReleaseSh(c, tok)
			} else {
				tok := l.AcquireEx(c)
				wWoke.Add(1)
				l.ReleaseEx(c, tok)
			}
		}()
		// Queue order: wait for this waiter's tail swap before starting
		// the next.
		deadline := time.Now().Add(5 * time.Second)
		for l.tail.Load() == prev {
			if time.Now().After(deadline) {
				t.Fatal("waiter never swapped into the queue")
			}
		}
	}
	for i := 0; i < nReaders; i++ {
		startWaiter(true)
	}
	startWaiter(false)

	l.ReleaseEx(holder, htok)
	select {
	case <-allIn:
	case <-time.After(5 * time.Second):
		t.Fatalf("reader group never fully admitted: %d inside", inside.Load())
	}
	if wWoke.Load() != 0 {
		t.Fatal("writer granted while the reader group holds")
	}
	close(hold)
	wg.Wait()

	if got := maxIn.Load(); got != nReaders {
		t.Fatalf("max concurrent readers = %d, want %d", got, nReaders)
	}
	snap := reg.Snapshot()
	if got := snap.Get(obs.EvBatchGrant); got != 1 {
		t.Fatalf("batch_grant = %d, want 1", got)
	}
	if got := snap.Get(obs.EvGrantFanout); got != uint64(nReaders) {
		t.Fatalf("grant_fanout = %d, want %d", got, nReaders)
	}
}
