package wal

import (
	"errors"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// The syncer-protocol tests set Interval to an hour, so the tick never
// fires and only wakes can drive progress: a lost wake-up is a hung
// ack, not a slow one. The fsync is a hook that blocks until the test
// lets it return, which puts every interleaving of interest (a commit
// during an fsync, a release during a callback) under the test's
// control.

// gatedSync is a SyncFile hook that reports each fsync on entered and
// returns what the test sends on permit. After open it passes through,
// so Close's sealing fsync needs no partner; while fail holds an error
// it returns that at once.
type gatedSync struct {
	entered chan struct{}
	permit  chan error
	calls   atomic.Int64
	open    atomic.Bool
	fail    atomic.Pointer[error]
}

func (g *gatedSync) hook(*os.File) error {
	if err := g.fail.Load(); err != nil {
		return *err
	}
	if g.open.Load() {
		return nil
	}
	g.calls.Add(1)
	g.entered <- struct{}{}
	return <-g.permit
}

func (g *gatedSync) waitEntered(t *testing.T) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("syncer never started the fsync: lost wake-up")
	}
}

// openGated opens an interval-policy log whose only clock is the wake.
func openGated(t *testing.T, cfg Config) (*Log, *gatedSync) {
	t.Helper()
	g := &gatedSync{entered: make(chan struct{}, 1), permit: make(chan error)}
	cfg.Policy = SyncInterval
	cfg.Interval = time.Hour
	cfg.SyncFile = g.hook
	l, _ := mustOpen(t, t.TempDir(), cfg, nil)
	t.Cleanup(func() {
		g.open.Store(true)
		l.Close()
	})
	return l, g
}

// seqAck is an ack that also counts its calls and checks, at the moment
// of the ack, that the durable watermark covers its sequence.
type seqAck struct {
	*ack
	l     *Log
	seq   uint64
	calls atomic.Int32
	early atomic.Bool
}

func (a *seqAck) Committed(err error) {
	a.calls.Add(1)
	if err == nil && a.l.durable.Load() < a.seq {
		a.early.Store(true)
	}
	a.ack.Committed(err)
}

func (a *seqAck) pending() bool { return a.calls.Load() == 0 }

// appendOne appends one small batch and returns the ack to Commit for it.
func appendOne(t *testing.T, l *Log) *seqAck {
	t.Helper()
	seq, err := l.Append(putBatch(0, 2))
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	return &seqAck{ack: newAck(), l: l, seq: seq}
}

// commitOne appends one small batch and registers its ack, as a
// writing connection does.
func commitOne(t *testing.T, l *Log) *seqAck {
	t.Helper()
	a := appendOne(t, l)
	l.Commit(a.seq, 2, a)
	return a
}

// checkOnce asserts every ack was delivered exactly once, with err, and
// not before its sequence was durable.
func checkOnce(t *testing.T, acks []*seqAck, err error) {
	t.Helper()
	for _, a := range acks {
		if got := a.wait(t); !errors.Is(got, err) {
			t.Fatalf("seq %d acked with %v, want %v", a.seq, got, err)
		}
	}
	for _, a := range acks {
		if n := a.calls.Load(); n != 1 {
			t.Fatalf("seq %d: Committed called %d times", a.seq, n)
		}
		if a.early.Load() {
			t.Fatalf("seq %d acked before the durable watermark reached it", a.seq)
		}
	}
}

// testNoLostWakeup: commits racing the return of an in-flight fsync are
// all acked. Each round releases the fsync while the committer is still
// appending, so the wakes land before, during and after the syncer's
// read of the watermarks.
func testNoLostWakeup(t *testing.T) {
	l, g := openGated(t, Config{})
	rounds, burst := 200, 8
	if testing.Short() {
		rounds = 50
	}
	for r := 0; r < rounds; r++ {
		acks := []*seqAck{commitOne(t, l)}
		g.waitEntered(t)
		released := make(chan struct{})
		go func() {
			g.permit <- nil
			close(released)
		}()
		for i := 0; i < burst; i++ {
			acks = append(acks, commitOne(t, l))
		}
		<-released
		// The burst needs at most two more fsyncs: one that was already
		// flushed when a late commit appended, and the one after it.
		done, stopped := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(stopped)
			for {
				select {
				case <-g.entered:
					g.permit <- nil
				case <-done:
					return
				}
			}
		}()
		checkOnce(t, acks, nil)
		close(done)
		<-stopped
	}
	if p := l.pendingOps.Load(); p != 0 {
		t.Fatalf("pendingOps %d after all acks, want 0", p)
	}
}

// testAckAfterCoveringFsync: a batch appended while an fsync is in
// flight is not covered by it, and its ack waits for the next one to
// return.
func testAckAfterCoveringFsync(t *testing.T) {
	l, g := openGated(t, Config{})
	a1 := commitOne(t, l)
	g.waitEntered(t) // fsync 1 flushed batch 1 and is blocked
	a2 := commitOne(t, l)
	if !a1.pending() || !a2.pending() {
		t.Fatal("ack delivered while the first fsync was still in flight")
	}
	g.permit <- nil
	checkOnce(t, []*seqAck{a1}, nil)
	g.waitEntered(t) // fsync 2 is in flight; the release after fsync 1 has run
	if !a2.pending() {
		t.Fatal("batch appended during fsync 1 was acked before fsync 2 returned")
	}
	g.permit <- nil
	checkOnce(t, []*seqAck{a2}, nil)
}

// testBurstCoveredByNextFsync: commits that arrive during an fsync are
// covered by exactly the next one: two fsyncs in all, however many
// wakes the burst sent.
func testBurstCoveredByNextFsync(t *testing.T) {
	l, g := openGated(t, Config{})
	acks := []*seqAck{commitOne(t, l)}
	g.waitEntered(t)
	for i := 0; i < 64; i++ {
		acks = append(acks, commitOne(t, l))
	}
	g.permit <- nil
	g.waitEntered(t)
	g.permit <- nil
	checkOnce(t, acks, nil)
	// A leftover token may send the syncer round once more, but every
	// append is durable now, so it finds nothing to sync (a third fsync
	// would park in the hook and hang Close).
	if n := g.calls.Load(); n != 2 {
		t.Fatalf("%d fsyncs for one commit plus one burst, want 2", n)
	}
}

// testFailedFsyncReleasesAll: a failing fsync poisons the log and every
// queued ticket, covered by it or not, is released with the error.
func testFailedFsyncReleasesAll(t *testing.T) {
	l, g := openGated(t, Config{})
	boom := errors.New("injected fsync failure")
	acks := []*seqAck{commitOne(t, l)}
	g.waitEntered(t)
	for i := 0; i < 16; i++ {
		acks = append(acks, commitOne(t, l))
	}
	g.permit <- boom
	checkOnce(t, acks, boom)
	if err := l.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err() = %v, want the injected failure", err)
	}
	if _, err := l.Append(putBatch(0, 1)); !errors.Is(err, boom) {
		t.Fatalf("append after poison = %v, want the injected failure", err)
	}
	if n := g.calls.Load(); n != 1 {
		t.Fatalf("%d fsyncs, want 1: a poisoned log must not sync again", n)
	}
	if p := l.pendingOps.Load(); p != 0 {
		t.Fatalf("pendingOps %d after the failure released everything, want 0", p)
	}
}

// blockingAck is a Committer whose callback parks until the test lets it
// go, to hold the releaser inside its callback loop.
type blockingAck struct {
	*seqAck
	inside chan struct{}
	resume chan struct{}
}

func (b blockingAck) Committed(err error) {
	close(b.inside)
	<-b.resume
	b.seqAck.Committed(err)
}

// testReleaseOverlap is the regression test for the shared release
// scratch. The syncer is parked inside the first callback of a
// two-ticket release; meanwhile the appending goroutine queues two more
// tickets and then fails a segment seal, which poisons the log from its
// side. When release ran on both goroutines the second pop overwrote
// the array the first was still walking: the last new ticket was acked
// twice and the second old one never. With one releaser the failure
// only wakes the syncer.
func testReleaseOverlap(t *testing.T) {
	l, g := openGated(t, Config{SegmentBytes: 4096})
	a, b := appendOne(t, l), appendOne(t, l)
	ba := blockingAck{a, make(chan struct{}), make(chan struct{})}
	l.Commit(a.seq, 2, ba)
	g.waitEntered(t) // the fsync flushed a and b and is blocked
	l.Commit(b.seq, 2, b)
	g.permit <- nil
	<-ba.inside // the syncer popped [a, b] and is inside a's callback

	c, d := commitOne(t, l), commitOne(t, l)
	boom := errors.New("injected seal failure")
	g.fail.Store(&boom)
	if _, err := l.Append(putBatch(0, 400)); !errors.Is(err, boom) { // > SegmentBytes: seals
		t.Fatalf("append across the failing seal = %v, want the injected failure", err)
	}
	close(ba.resume)

	checkOnce(t, []*seqAck{a, b}, nil)
	checkOnce(t, []*seqAck{c, d}, boom)
}

func TestSyncerProtocol(t *testing.T) {
	cases := []struct {
		name string
		run  func(*testing.T)
	}{
		{"NoLostWakeup", testNoLostWakeup},
		{"AckAfterCoveringFsync", testAckAfterCoveringFsync},
		{"BurstCoveredByNextFsync", testBurstCoveredByNextFsync},
		{"FailedFsyncReleasesAll", testFailedFsyncReleasesAll},
		{"ReleaseOverlap", testReleaseOverlap},
	}
	for _, procs := range []int{0, 1} {
		name := "procs=default"
		if procs == 1 {
			// One processor: the syncer's yield and every hand-off between
			// it and the committer go through the run queue.
			name = "procs=1"
		}
		t.Run(name, func(t *testing.T) {
			if procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			}
			for _, c := range cases {
				t.Run(c.name, c.run)
			}
		})
	}
}
