package server

import (
	"context"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"optiql/internal/faults"
	"optiql/internal/server/wire"
	"optiql/internal/wal"
)

// walConfig is the base durability config the tests share: tiny
// segments and an aggressive checkpoint trigger so rotation, reclaim
// and checkpointing all fire within a few hundred writes.
func walConfig(dir, kind, policy string) Config {
	return Config{
		Index:              kind,
		Shards:             2,
		WALDir:             dir,
		Fsync:              policy,
		FsyncInterval:      time.Millisecond,
		WALSegmentBytes:    4 << 10,
		WALCheckpointBytes: 16 << 10,
	}
}

// TestWALDurableRestart writes through the wire protocol, shuts down
// gracefully, restarts a fresh server on the same WAL dir and asserts
// every acked write (including deletes) is observable — for both index
// kinds and all three fsync policies.
func TestWALDurableRestart(t *testing.T) {
	for _, kind := range []string{"btree", "art"} {
		for _, policy := range []string{wal.SyncAlways, wal.SyncInterval, wal.SyncOff} {
			t.Run(kind+"/"+policy, func(t *testing.T) {
				if kind == "art" && testing.Short() {
					t.Skip("short: btree covers the art-independent wal path")
				}
				dir := t.TempDir()
				srv, addr := startServer(t, walConfig(dir, kind, policy))
				cl, err := wire.Dial(addr)
				if err != nil {
					t.Fatal(err)
				}
				const n = 500
				for i := uint64(1); i <= n; i++ {
					r, err := cl.Do(wire.Put(i, i*7))
					if err != nil || r.Status != wire.StatusOK {
						t.Fatalf("put %d: %+v %v", i, r, err)
					}
				}
				for i := uint64(1); i <= n; i += 5 {
					r, err := cl.Do(wire.Del(i))
					if err != nil || r.Status != wire.StatusOK {
						t.Fatalf("delete %d: %+v %v", i, r, err)
					}
				}
				cl.Close()
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				if err := srv.Shutdown(ctx); err != nil {
					t.Fatalf("shutdown: %v", err)
				}

				srv2, addr2 := startServer(t, walConfig(dir, kind, policy))
				for _, rec := range srv2.WALRecovery() {
					if rec.TornRecords != 0 || rec.TornBytes != 0 {
						t.Fatalf("graceful shutdown left a torn tail: %+v", rec)
					}
				}
				cl2, err := wire.Dial(addr2)
				if err != nil {
					t.Fatal(err)
				}
				defer cl2.Close()
				for i := uint64(1); i <= n; i++ {
					r, err := cl2.Do(wire.Get(i))
					if err != nil {
						t.Fatalf("get %d: %v", i, err)
					}
					if i%5 == 1 {
						if r.Status != wire.StatusNotFound {
							t.Fatalf("deleted key %d resurrected: %+v", i, r)
						}
						continue
					}
					if r.Status != wire.StatusOK || r.Value != i*7 {
						t.Fatalf("key %d lost or wrong after restart: %+v", i, r)
					}
				}
				rep := srv2.WALReport()
				if rep == nil || !rep.Enabled {
					t.Fatal("WALReport disabled on a WAL-backed server")
				}
				if rep.ReplayedOps == 0 && rep.CheckpointPairs == 0 {
					t.Fatalf("restart replayed nothing: %+v", rep)
				}
			})
		}
	}
}

// TestWALCheckpointUnderLoad drives enough writes through tiny
// segments that size-triggered background checkpoints and segment
// reclaim fire while serving, then restarts and verifies the state.
func TestWALCheckpointUnderLoad(t *testing.T) {
	dir := t.TempDir()
	cfg := walConfig(dir, "btree", wal.SyncOff)
	srv, addr := startServer(t, cfg)
	cl, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4000
	for i := uint64(0); i < n; i++ {
		// Overwrite a small key space so checkpoints stay small while the
		// log grows.
		r, err := cl.Do(wire.Put(i%512, i))
		if err != nil || r.Status != wire.StatusOK {
			t.Fatalf("put: %+v %v", r, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		rep := srv.WALReport()
		if rep.Checkpoints > 0 && rep.SegmentsReclaimed > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no background checkpoint/reclaim: %+v", rep)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	srv2, addr2 := startServer(t, cfg)
	var replayBounded bool
	for _, rec := range srv2.WALRecovery() {
		if rec.CheckpointSeq > 0 {
			replayBounded = true
		}
	}
	if !replayBounded {
		t.Fatal("restart found no checkpoint to bound replay")
	}
	cl2, err := wire.Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	for k := uint64(0); k < 512; k++ {
		want := (n-1-k)/512*512 + k // last i < n with i%512 == k
		r, err := cl2.Do(wire.Get(k))
		if err != nil || r.Status != wire.StatusOK || r.Value != want {
			t.Fatalf("key %d = %+v %v, want value %d", k, r, err, want)
		}
	}
}

// TestWALRecoveryKeepsDensity checks that recovery rebuilds trees as
// dense as a preload leaves them: a checkpoint is applied in key
// order, so each shard sees one ascending run and its leaves come back
// packed, not half empty.
func TestWALRecoveryKeepsDensity(t *testing.T) {
	dir := t.TempDir()
	cfg := walConfig(dir, "btree", wal.SyncOff)
	cfg.WALSegmentBytes, cfg.WALCheckpointBytes = 0, 0 // defaults: only the forced checkpoint runs
	srv, addr := startServer(t, cfg)
	cl, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	const n, window = 50_000, 250
	for base := uint64(1); base <= n; base += window {
		for k := base; k < base+window; k++ {
			if err := cl.Send(wire.Put(k, k)); err != nil {
				t.Fatal(err)
			}
		}
		if err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
		for k := base; k < base+window; k++ {
			if r, err := cl.Recv(); err != nil || r.Status != wire.StatusOK {
				t.Fatalf("put %d: %+v %v", k, r, err)
			}
		}
	}
	cl.Close()
	shapes := func(s *Server) (keys int, minFill float64) {
		minFill = 1
		for _, sh := range s.shards {
			tr := sh.idx.(btreeIndex).t
			shape := tr.Shape()
			keys += shape.Keys
			minFill = min(minFill, float64(shape.Keys)/float64(shape.Leaves*tr.Fanout()))
		}
		return keys, minFill
	}
	if keys, fill := shapes(srv); keys != n || fill < 0.95 {
		t.Fatalf("loaded %d keys at leaf fill %.3f, want %d at >= 0.95", keys, fill, n)
	}
	for _, sh := range srv.shards {
		if err := sh.wal.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	srv2, _ := startServer(t, cfg)
	var fromCheckpoint uint64
	for _, rec := range srv2.WALRecovery() {
		fromCheckpoint += rec.CheckpointPairs
	}
	if fromCheckpoint != n {
		t.Fatalf("recovery applied %d checkpoint pairs, want %d", fromCheckpoint, n)
	}
	if keys, fill := shapes(srv2); keys != n || srv2.Len() != n || fill < 0.95 {
		t.Fatalf("recovered %d keys (Len %d) at leaf fill %.3f, want %d at >= 0.95", keys, srv2.Len(), fill, n)
	}
}

// TestWALLagShedsOverloaded gates fsync shut so group-commit debt
// piles up past SyncQueueMax, asserts new writes are answered
// StatusOverloaded while the queued ones are merely delayed, then
// opens the gate and asserts both the delayed acks and new writes
// come back StatusOK.
func TestWALLagShedsOverloaded(t *testing.T) {
	dir := t.TempDir()
	cfg := walConfig(dir, "btree", wal.SyncInterval)
	cfg.WALSyncQueueMax = 4
	cfg.WALSegmentBytes = 1 << 20 // no rotation: its seal fsync would hit the gate
	cfg.WALCheckpointBytes = 0    // no background checkpoints for the same reason
	var stall atomic.Bool
	release := make(chan struct{})
	var once sync.Once
	open := func() { once.Do(func() { close(release) }) }
	defer open() // Shutdown's final seal must not hang on the gate
	cfg.WALSyncFile = func(f *os.File) error {
		if stall.Load() {
			<-release
		}
		return f.Sync()
	}
	srv, addr := startServer(t, cfg)
	clA, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer clA.Close()
	clA.SetTimeout(20 * time.Second)

	stall.Store(true)
	// Pipeline a burst whose acks are stuck behind the gated fsync.
	const burst = 64
	for i := uint64(0); i < burst; i++ {
		if err := clA.Send(wire.Put(i, i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := clA.Flush(); err != nil {
		t.Fatal(err)
	}
	// Wait until every shard's fsync debt has reached the budget
	// (wal.Log.Lagging's own comparison: the burst's tail is shed from
	// there on, so the debt may stop exactly at it).
	deadline := time.Now().Add(5 * time.Second)
	for {
		rep := srv.WALReport()
		over := len(rep.PendingOps) > 0
		for _, p := range rep.PendingOps {
			if p < int64(cfg.WALSyncQueueMax) {
				over = false
			}
		}
		if over {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fsync debt never crossed the budget: %+v", rep)
		}
		time.Sleep(time.Millisecond)
	}
	// A second connection's writes now shed deterministically.
	clB, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer clB.Close()
	for i := uint64(0); i < 8; i++ {
		r, err := clB.Do(wire.Put(100+i, i))
		if err != nil {
			t.Fatalf("put during lag: %v", err)
		}
		if r.Status != wire.StatusOverloaded {
			t.Fatalf("put during lag = %+v, want StatusOverloaded", r)
		}
	}
	if rep := srv.WALReport(); rep.LagSheds == 0 {
		t.Fatalf("shed writes not counted in report: %+v", rep)
	}
	// Open the gate: every burst write that was queued commits and acks
	// OK. The reader screens each frame against the debt the executor
	// has built from the frames before it, and with the gate shut a
	// shard's debt only grows, so per shard the burst is answered OK for
	// a prefix of at least WALSyncQueueMax writes and Overloaded for the
	// rest, never OK again after a shed.
	open()
	admitted := make([]int, len(srv.shards))
	shedFrom := make([]int, len(srv.shards))
	var burstShed [burst]bool
	sheds := uint64(8) // clB's
	for i := 0; i < burst; i++ {
		r, err := clA.Recv()
		if err != nil {
			t.Fatalf("queued write %d after gate opened: %v", i, err)
		}
		si := srv.shardIdx(uint64(i))
		switch {
		case r.Status == wire.StatusOK && shedFrom[si] == 0:
			admitted[si]++
		case r.Status == wire.StatusOverloaded && admitted[si] >= cfg.WALSyncQueueMax:
			shedFrom[si] = i + 1
			burstShed[i] = true
			sheds++
		default:
			t.Fatalf("queued write %d (shard %d: %d admitted, shedding since write %d) = %+v, want OK then Overloaded",
				i, si, admitted[si], shedFrom[si]-1, r)
		}
	}
	if rep := srv.WALReport(); rep.LagSheds != sheds {
		t.Fatalf("report counts %d lag sheds, clients saw %d Overloaded", rep.LagSheds, sheds)
	}
	// And new writes succeed again.
	r, err := clB.Do(wire.Put(200, 1))
	if err != nil || r.Status != wire.StatusOK {
		t.Fatalf("put after recovery = %+v %v", r, err)
	}
	// An OK'd write was applied, a shed one was not.
	for i := uint64(0); i < burst+8; i++ {
		k, want := i, wire.Response{Status: wire.StatusOK, Value: i + 1}
		if i >= burst {
			k = 100 + i - burst
		}
		if i >= burst || burstShed[i] {
			want = wire.Response{Status: wire.StatusNotFound}
		}
		if r, err := clB.Do(wire.Get(k)); err != nil || r.Status != want.Status || r.Value != want.Value {
			t.Fatalf("get %d after recovery = %+v %v, want %+v", k, r, err, want)
		}
	}
}

// TestWALFsyncFailurePoisons kills the disk mid-run
// (faults.FailSyncAfter) and asserts the poisoned log sheds all
// writes with StatusErr while reads keep serving what was applied.
func TestWALFsyncFailurePoisons(t *testing.T) {
	dir := t.TempDir()
	cfg := walConfig(dir, "btree", wal.SyncAlways)
	cfg.WALCheckpointBytes = 0 // keep the sync budget for the append path
	cfg.WALSyncFile = faults.FailSyncAfter(8)
	srv, addr := startServer(t, cfg)
	cl, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var acked []uint64
	deadline := time.Now().Add(10 * time.Second)
	for i := uint64(1); ; i++ {
		if time.Now().After(deadline) {
			t.Fatal("fsync budget never exhausted")
		}
		r, err := cl.Do(wire.Put(i, i))
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		if r.Status == wire.StatusOK {
			acked = append(acked, i)
			continue
		}
		if r.Status != wire.StatusErr || !strings.Contains(r.Err, "fsync failure") {
			t.Fatalf("put %d = %+v, want wal fsync error", i, r)
		}
		break
	}
	if len(acked) == 0 {
		t.Fatal("no write committed before the disk died")
	}
	// Poison is sticky: every further write is refused up front...
	for i := 0; i < 4; i++ {
		r, err := cl.Do(wire.Put(9999, 1))
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != wire.StatusErr {
			t.Fatalf("write on poisoned log = %+v, want StatusErr", r)
		}
	}
	// ...but reads keep serving every previously acked write.
	for _, k := range acked {
		r, err := cl.Do(wire.Get(k))
		if err != nil || r.Status != wire.StatusOK || r.Value != k {
			t.Fatalf("read %d on poisoned log = %+v %v", k, r, err)
		}
	}
	if err := srv.shards[0].wal.Err(); err == nil && srv.shards[1].wal.Err() == nil {
		t.Fatal("no shard log reports the sticky error")
	}
}

// TestWALShardMismatchRefused: reopening a WAL dir with a different
// shard count must fail loudly, not misroute replay.
func TestWALShardMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	cfg := walConfig(dir, "btree", wal.SyncOff)
	srv, _ := startServer(t, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Shards = 3
	bad.Scheme = testScheme()
	bad.Addr = "127.0.0.1:0"
	if _, err := New(bad); err == nil || !strings.Contains(err.Error(), "refusing to misroute") {
		t.Fatalf("New with mismatched shard count = %v, want misroute refusal", err)
	}
}

// TestWALReadYourWrites: a GET after a logged PUT on the same
// connection observes it even though the ack was fsync-deferred.
func TestWALReadYourWrites(t *testing.T) {
	dir := t.TempDir()
	_, addr := startServer(t, walConfig(dir, "btree", wal.SyncInterval))
	cl, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := uint64(0); i < 200; i++ {
		if err := cl.Send(wire.Put(i, i+1)); err != nil {
			t.Fatal(err)
		}
		if err := cl.Send(wire.Get(i)); err != nil {
			t.Fatal(err)
		}
		if err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
		pr, err := cl.Recv()
		if err != nil || pr.Status != wire.StatusOK {
			t.Fatalf("put %d: %+v %v", i, pr, err)
		}
		gr, err := cl.Recv()
		if err != nil || gr.Status != wire.StatusOK || gr.Value != i+1 {
			t.Fatalf("get %d after put = %+v %v", i, gr, err)
		}
	}
}
