package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

func TestQNodeStaysOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(QNode{}); got != 64 {
		t.Fatalf("QNode is %d bytes, want exactly one 64-byte cache line", got)
	}
}

// qid extracts the queue-node ID field from a raw lock word.
func qid(w uint64) uint32 { return uint32((w & QIDMask) >> qidShift) }

// waitQID spins until the lock word carries the given queue-node ID,
// i.e. until that node's owner has executed its tail Swap. This is how
// the tests build queues with a deterministic waiter order.
func waitQID(t *testing.T, l *OptiQL, id uint32) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for qid(l.Word()) != id {
		if time.Now().After(deadline) {
			t.Fatalf("lock word never carried qid %d (word=%#x)", id, l.Word())
		}
	}
}

func TestSharedQueuedFreeAcquireOR(t *testing.T) {
	pool := NewPool(8)
	var l OptiQL

	// Advance the version so "carried unchanged" is distinguishable
	// from zero.
	w := pool.Get()
	l.AcquireEx(w)
	l.ReleaseEx(w)
	pool.Put(w)
	v0 := l.Version()
	if v0 != 1 {
		t.Fatalf("setup version = %d, want 1", v0)
	}

	q := pool.Get()
	if h := l.AcquireShQueued(q, true); h {
		t.Fatal("free acquire reported handover")
	}
	// Opportunistic window re-opened: lock-free readers are admitted
	// alongside the queued-shared holder, and their snapshots validate.
	snap, ok := l.AcquireSh()
	if !ok {
		t.Fatal("optimistic reader rejected during opportunistic shared hold")
	}
	if !l.ReleaseSh(snap) {
		t.Fatal("optimistic snapshot failed validation with no writer about")
	}
	if fan := l.ReleaseShQueued(q, true); fan != 0 {
		t.Fatalf("uncontended shared release fanout = %d, want 0", fan)
	}
	pool.Put(q)
	if l.IsLocked() {
		t.Fatal("lock still locked after shared release")
	}
	if got := l.Version(); got != v0 {
		t.Fatalf("shared hold changed the version: %d -> %d", v0, got)
	}
}

func TestSharedQueuedFreeAcquireNOR(t *testing.T) {
	pool := NewPool(8)
	var l OptiQL
	q := pool.Get()
	l.AcquireShQueued(q, false)
	if _, ok := l.AcquireSh(); ok {
		t.Fatal("optimistic reader admitted during NOR shared hold")
	}
	if fan := l.ReleaseShQueued(q, false); fan != 0 {
		t.Fatalf("uncontended NOR shared release fanout = %d, want 0", fan)
	}
	pool.Put(q)
	if l.IsLocked() {
		t.Fatal("lock still locked after NOR shared release")
	}
}

// TestBatchGrantSharedPrefix builds the queue W0 | S1 S2 W1 S3 with a
// deterministic order and pins the release-to-many contract: W0's
// single release grants exactly the compatible prefix {S1, S2} (fanout
// 2, both awake concurrently, each exactly once), never past the
// incompatible W1; the group's drain hands W1 the lock (fanout 1); W1's
// release grants S3. Version discipline: shared groups carry the
// version unchanged, writers increment it.
func TestBatchGrantSharedPrefix(t *testing.T) {
	pool := NewPool(8)
	var l OptiQL

	w0 := pool.Get()
	l.AcquireEx(w0) // W0 holds; its release publishes version 1.

	type waiter struct {
		q       *QNode
		granted atomic.Int32 // times the acquire returned
		release chan struct{}
		done    chan int // fanout of this waiter's own release
		shared  bool
	}
	mk := func(shared bool) *waiter {
		return &waiter{q: pool.Get(), release: make(chan struct{}), done: make(chan int, 1), shared: shared}
	}
	s1, s2, wx, s3 := mk(true), mk(true), mk(false), mk(true)

	var wg sync.WaitGroup
	start := func(w *waiter) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w.shared {
				l.AcquireShQueued(w.q, true)
				w.granted.Add(1)
				<-w.release
				w.done <- l.ReleaseShQueued(w.q, true)
			} else {
				l.AcquireEx(w.q)
				w.granted.Add(1)
				<-w.release
				w.done <- l.ReleaseEx(w.q)
			}
		}()
		waitQID(t, &l, w.q.id) // the waiter has swapped in; queue order fixed
	}
	start(s1)
	start(s2)
	start(wx)
	start(s3)

	if fan := l.ReleaseEx(w0); fan != 2 {
		t.Fatalf("W0 release fanout = %d, want 2 (batch grant of S1+S2)", fan)
	}
	pool.Put(w0)

	// Both shared waiters must be awake concurrently, before either
	// releases; the exclusive waiter and the reader behind it must not.
	deadline := time.Now().Add(5 * time.Second)
	for s1.granted.Load() != 1 || s2.granted.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("batch grant incomplete: s1=%d s2=%d", s1.granted.Load(), s2.granted.Load())
		}
	}
	time.Sleep(10 * time.Millisecond)
	if g := wx.granted.Load(); g != 0 {
		t.Fatalf("exclusive waiter granted (%d times) past an incompatible boundary", g)
	}
	if g := s3.granted.Load(); g != 0 {
		t.Fatalf("shared waiter behind a writer granted (%d times) too early", g)
	}

	// Non-tail member release is local; the tail drains the group and
	// hands over to W1.
	close(s1.release)
	if fan := <-s1.done; fan != 0 {
		t.Fatalf("non-tail member release fanout = %d, want 0", fan)
	}
	close(s2.release)
	if fan := <-s2.done; fan != 1 {
		t.Fatalf("group-tail release fanout = %d, want 1 (handover to W1)", fan)
	}

	for wx.granted.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("W1 never granted after group drain")
		}
	}
	if g := s3.granted.Load(); g != 0 {
		t.Fatal("S3 granted while W1 holds")
	}
	close(wx.release)
	if fan := <-wx.done; fan != 1 {
		t.Fatalf("W1 release fanout = %d, want 1 (handover to S3)", fan)
	}
	close(s3.release)
	if fan := <-s3.done; fan != 0 {
		t.Fatalf("tail-of-queue shared release fanout = %d, want 0", fan)
	}
	wg.Wait()

	for _, w := range []*waiter{s1, s2, wx, s3} {
		if g := w.granted.Load(); g != 1 {
			t.Fatalf("a waiter woke %d times, want exactly once", g)
		}
		pool.Put(w.q)
	}
	if l.IsLocked() {
		t.Fatal("lock still locked after full drain")
	}
	// W0 published 1, the group carried it, W1 published 2, S3 carried it.
	if got := l.Version(); got != 2 {
		t.Fatalf("final version = %d, want 2", got)
	}
}

// TestQueuedSharedReleaseWordWithoutWindow pins the release of a
// shared holder that is the latest requester and whose word carries no
// window bits: S queued behind a shared holder R, so S's Swap wiped the
// OpRead|version R had published and R's handover (unlike a writer's)
// publishes none. S must still return the word to the unlocked state;
// with nobody left to queue behind it, waiting for a successor instead
// is a hang (it was the one in TestQueuedSharedMutualExclusion).
func TestQueuedSharedReleaseWordWithoutWindow(t *testing.T) {
	for _, opportunistic := range []bool{true, false} {
		pool := NewPool(2)
		var l OptiQL
		r, s := pool.Get(), pool.Get()
		l.AcquireShQueued(r, opportunistic)
		done := make(chan struct{})
		go func() {
			defer close(done)
			l.AcquireShQueued(s, opportunistic)
			l.ReleaseShQueued(s, opportunistic)
		}()
		for r.next.Load() == nil { // until S has queued behind R
			runtime.Gosched()
		}
		if fan := l.ReleaseShQueued(r, opportunistic); fan != 1 {
			t.Fatalf("opportunistic=%v: R's release fanout = %d, want 1 (handover to S)", opportunistic, fan)
		}
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("opportunistic=%v: S never finished releasing; lock word %#x", opportunistic, l.word.Load())
		}
		if l.IsLocked() || l.Version() != 0 {
			t.Fatalf("opportunistic=%v: word %#x after both releases, want unlocked at version 0", opportunistic, l.word.Load())
		}
	}
}

// TestQueuedSharedMutualExclusion stresses random mixes of queued
// writers and queued-shared readers and asserts the invariants the
// batch grant must preserve: no reader overlaps a writer, writers never
// overlap each other, and readers genuinely run concurrently (a batch
// grant admits more than one at once somewhere in the run).
func TestQueuedSharedMutualExclusion(t *testing.T) {
	const (
		workers = 8
		iters   = 2000
	)
	pool := NewPool(workers)
	var l OptiQL
	var writers, readers atomic.Int32
	var maxReaders atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			q := pool.Get()
			defer pool.Put(q)
			rng := seed*0x9e3779b97f4a7c15 + 1
			for i := 0; i < iters; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				if rng&3 == 0 { // 25% writers
					l.AcquireEx(q)
					if writers.Add(1) != 1 || readers.Load() != 0 {
						t.Error("writer overlapped another holder")
					}
					writers.Add(-1)
					l.ReleaseEx(q)
				} else {
					l.AcquireShQueued(q, true)
					if writers.Load() != 0 {
						t.Error("reader overlapped a writer")
					}
					r := readers.Add(1)
					for {
						m := maxReaders.Load()
						if r <= m || maxReaders.CompareAndSwap(m, r) {
							break
						}
					}
					readers.Add(-1)
					l.ReleaseShQueued(q, true)
				}
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	if l.IsLocked() {
		t.Fatal("lock still locked after stress")
	}
	if maxReaders.Load() < 2 {
		t.Logf("note: readers never overlapped (max concurrency %d); batch grants untested by this run", maxReaders.Load())
	}
}
