package server

import (
	"context"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
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
				if rec := srv2.WALRecovery(); rec.TornRecords != 0 || rec.TornBytes != 0 {
					t.Fatalf("graceful shutdown left a torn tail: %+v", rec)
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
	if srv2.WALRecovery().CheckpointSeq == 0 {
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
// order, so the tree sees one ascending run and its leaves come back
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
	shape := func(s *Server) (keys int, fill float64) {
		tr := s.idx.(btreeIndex).t
		sh := tr.Shape()
		return sh.Keys, float64(sh.Keys) / float64(sh.Leaves*tr.Fanout())
	}
	if keys, fill := shape(srv); keys != n || fill < 0.95 {
		t.Fatalf("loaded %d keys at leaf fill %.3f, want %d at >= 0.95", keys, fill, n)
	}
	if err := srv.wal.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	srv2, _ := startServer(t, cfg)
	if fromCheckpoint := srv2.WALRecovery().CheckpointPairs; fromCheckpoint != n {
		t.Fatalf("recovery applied %d checkpoint pairs, want %d", fromCheckpoint, n)
	}
	if keys, fill := shape(srv2); keys != n || srv2.Len() != n || fill < 0.95 {
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
	// Wait until the fsync debt has reached the budget
	// (wal.Log.Lagging's own comparison: the burst's tail is shed from
	// there on, so the debt may stop exactly at it).
	deadline := time.Now().Add(5 * time.Second)
	for {
		rep := srv.WALReport()
		if rep.PendingOps >= int64(cfg.WALSyncQueueMax) {
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
	// OK. The reader screens each frame against the debt the connection
	// has built from the frames before it, and with the gate shut the
	// debt only grows, so the burst is answered OK for a prefix of at
	// least WALSyncQueueMax writes and Overloaded for the rest, never OK
	// again after a shed.
	open()
	admitted, shedFrom := 0, 0
	var burstShed [burst]bool
	sheds := uint64(8) // clB's
	for i := 0; i < burst; i++ {
		r, err := clA.Recv()
		if err != nil {
			t.Fatalf("queued write %d after gate opened: %v", i, err)
		}
		switch {
		case r.Status == wire.StatusOK && shedFrom == 0:
			admitted++
		case r.Status == wire.StatusOverloaded && admitted >= cfg.WALSyncQueueMax:
			if shedFrom == 0 {
				shedFrom = i + 1
			}
			burstShed[i] = true
			sheds++
		default:
			t.Fatalf("queued write %d (%d admitted, shedding since write %d) = %+v, want OK then Overloaded",
				i, admitted, shedFrom-1, r)
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
	if srv.wal.Err() == nil {
		t.Fatal("the log does not report the sticky error")
	}
}

// TestWALRefusesShardedLayout: a WAL root in the old sharded layout (a
// v1 META beside shard-NNN directories of per-shard logs) is refused at
// New with an error naming that layout, and nothing in it is modified:
// replaying it as one log, or starting empty beside it, would lose
// acknowledged writes. A META this server cannot read is refused the
// same way.
func TestWALRefusesShardedLayout(t *testing.T) {
	// shardLog writes one real record into dir/shard-000, as a sharded
	// server did.
	shardLog := func(t *testing.T, dir string) {
		l, _, err := wal.Open(filepath.Join(dir, "shard-000"), wal.Config{Policy: wal.SyncOff}, func(uint64, []wal.Op) {})
		if err != nil {
			t.Fatal(err)
		}
		seq, err := l.Append([]wal.Op{{Op: wal.OpPut, Key: 1, Val: 7}})
		if err != nil {
			t.Fatal(err)
		}
		l.NoteApplied(seq)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name, meta string
		shardDir   bool
		want       string
	}{
		{"v1", "optiql-wal v1\nshards=2\n", true, "old sharded layout"},
		{"shard-dir-without-meta", "", true, "old sharded layout"},
		{"unreadable-meta", "optiql-wal v9\n", false, "unreadable META"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if tc.shardDir {
				shardLog(t, dir)
			}
			if tc.meta != "" {
				if err := os.WriteFile(filepath.Join(dir, walMetaName), []byte(tc.meta), 0o666); err != nil {
					t.Fatal(err)
				}
			}
			before := readTree(t, dir)
			cfg := walConfig(dir, "btree", wal.SyncOff)
			cfg.Scheme = testScheme()
			if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New on a %s root = %v, want an error naming %q", tc.name, err, tc.want)
			}
			if after := readTree(t, dir); !maps.Equal(before, after) {
				t.Fatalf("the refused root changed:\nbefore %q\nafter  %q", before, after)
			}
		})
	}
}

// readTree maps every path under dir to its content ("/" for a
// directory).
func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	tree := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == dir {
			return err
		}
		if d.IsDir() {
			tree[path] = "/"
			return nil
		}
		b, err := os.ReadFile(path)
		tree[path] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
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

// TestWALWritePanicKeepsLoggedWrites: with a WAL, a request's writes
// are in the log before any of them applies, so a panic in
// one apply must not skip the others — the index keeps every logged
// write. The panicking write is answered StatusErr, its neighbours
// OK, and the connection closes.
func TestWALWritePanicKeepsLoggedWrites(t *testing.T) {
	const boom = uint64(0xDEAD)
	srv, addr := startServer(t, walConfig(t.TempDir(), "btree", wal.SyncInterval))
	srv.panicKey.Store(boom)
	cl, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	b, err := cl.Do(wire.Batch(wire.Put(1, 10), wire.Put(boom, 1), wire.Put(2, 20)))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Sub) != 3 || b.Sub[0].Status != wire.StatusOK ||
		b.Sub[1].Status != wire.StatusErr || b.Sub[2].Status != wire.StatusOK {
		t.Fatalf("batch subs = %+v", b.Sub)
	}
	if _, err = cl.Do(wire.Get(1)); err == nil {
		t.Fatal("connection stayed open after a write panic")
	}
	srv.panicKey.Store(0)
	cl2, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	for _, k := range []uint64{1, 2} {
		if resp, err := cl2.Do(wire.Get(k)); err != nil || resp.Value != k*10 {
			t.Fatalf("get(%d) = %+v, %v", k, resp, err)
		}
	}
	if st := srv.Stats(); st.Panics != 1 {
		t.Fatalf("panics = %d, want 1", st.Panics)
	}
}

// TestWALBatchOneRecord: a request's writes are one log record, so a
// BATCH of 1024 PUTs appends exactly one.
func TestWALBatchOneRecord(t *testing.T) {
	srv, addr := startServer(t, walConfig(t.TempDir(), "btree", wal.SyncInterval))
	cl, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	sub := make([]wire.Request, 1024)
	for i := range sub {
		sub[i] = wire.Put(uint64(i+1), uint64(i))
	}
	before := srv.WALReport().AppendedRecords
	b, err := cl.Do(wire.Batch(sub...))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range b.Sub {
		if r.Status != wire.StatusOK || !r.Inserted {
			t.Fatalf("sub %d = %+v", i, r)
		}
	}
	rep := srv.WALReport()
	if got := rep.AppendedRecords - before; got != 1 {
		t.Fatalf("one 1024-PUT batch appended %d records, want 1", got)
	}
	if rep.AppendedOps != 1024 {
		t.Fatalf("appended ops = %d, want 1024", rep.AppendedOps)
	}
}
