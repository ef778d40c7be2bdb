package server

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"optiql/internal/indextest"
	"optiql/internal/locks"
	"optiql/internal/server/wire"
	"optiql/internal/workload"
)

// These tests hold the shard executor's FIFO apply loop to a serial map
// oracle:
//
//   - TestDeterministicSchedule replays fixed seeded schedules
//     (indextest.SchedProgram) through the real applyBatch and asserts
//     per-op response equality, per-connection read-your-writes between
//     batches and the final tree state — over both indexes and every
//     lock scheme.
//   - TestExecutorApplyVsOracle submits random programs through the
//     live executor channel, so batch boundaries are nondeterministic,
//     with concurrent readers hammering the hot keys; responses must
//     still match the serial oracle exactly.
//   - TestApplyBatchAllocs pins the apply loop at zero allocations per
//     batch.

// newShardServer builds a single-shard server that never listens: the
// tests drive its executor directly (applyBatch is synchronous) or
// through its channel. One shard makes routing deterministic — every
// key lands on executor 0.
func newShardServer(t testing.TB, index, scheme string) *Server {
	t.Helper()
	s, err := New(Config{Index: index, Scheme: scheme, Shards: 1})
	if err != nil {
		t.Skipf("scheme unsupported by substrate: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// schedOps converts one schedule batch into executor writeOps, each
// with its own single-op pending, exactly as conn.go would submit them.
func schedOps(batch []indextest.SchedOp) []writeOp {
	ops := make([]writeOp, len(batch))
	for i, op := range batch {
		p := &pending{ready: make(chan struct{})}
		p.remaining.Store(1)
		o := byte(wire.OpPut)
		if op.Op == indextest.SchedDelete {
			o = wire.OpDelete
		}
		ops[i] = writeOp{op: o, key: op.Key, val: op.Val, p: p, slot: &p.resp}
	}
	return ops
}

// wantResp is the serial-oracle response for one schedule op.
func wantResp(op indextest.SchedOp, inserted, found bool) wire.Response {
	r := wire.Response{Status: wire.StatusOK}
	if op.Op == indextest.SchedPut {
		r.Inserted = inserted
	} else if !found {
		r.Status = wire.StatusNotFound
	}
	return r
}

// checkFinalState asserts that the shard's full scan is exactly the
// oracle's contents.
func checkFinalState(t *testing.T, s *Server, c *locks.Ctx, oracle *indextest.SchedOracle) {
	t.Helper()
	got := s.shards[0].idx.Scan(c, 0, 1<<20, nil)
	if len(got) != oracle.Len() {
		t.Fatalf("final state has %d keys, oracle %d", len(got), oracle.Len())
	}
	for i, kv := range got {
		if v, ok := oracle.Get(kv.Key); !ok || v != kv.Value {
			t.Fatalf("final state wrong at rank %d: index has %+v, oracle has (%d, %v)", i, kv, v, ok)
		}
	}
}

// TestDeterministicSchedule replays one seeded program batch-for-batch
// through a shard executor's applyBatch. The replay is single-threaded
// — the executor goroutine sits blocked on its empty channel — so even
// the optimistic schemes run under -race: with no concurrent reader
// there is no by-design race to flag, and determinism is the point.
func TestDeterministicSchedule(t *testing.T) {
	for _, index := range []string{"btree", "art"} {
		for _, scheme := range locks.AllNames() {
			t.Run(index+"/"+scheme, func(t *testing.T) {
				prog := indextest.NewSchedProgram(0xD5C0DE, 4, 60, 16, 256, 3, 0.6)
				replaySched(t, index, scheme, prog)
			})
		}
	}
}

func replaySched(t *testing.T, index, scheme string, prog *indextest.SchedProgram) {
	t.Helper()
	s := newShardServer(t, index, scheme)
	e := s.shards[0].exec
	oracle := indextest.NewSchedOracle()
	for bi, batch := range prog.Batches {
		ws := schedOps(batch)
		e.inflight.Add(int64(len(batch)))
		e.applyBatch(ws)
		for i, op := range batch {
			ins, fnd := oracle.Apply(op)
			want := wantResp(op, ins, fnd)
			if got := ws[i].slot; got.Status != want.Status || got.Inserted != want.Inserted {
				t.Fatalf("batch %d op %d (%+v): got {%d %v}, oracle wants {%d %v}",
					bi, i, op, got.Status, got.Inserted, want.Status, want.Inserted)
			}
			select {
			case <-ws[i].p.ready:
			default:
				t.Fatalf("batch %d op %d: apply did not complete the op", bi, i)
			}
		}
		// Between batches every connection must see its own surviving
		// writes.
		if msg := oracle.ReadYourWrites(func(k uint64) (uint64, bool) {
			return s.shards[0].idx.Lookup(e.ctx, k)
		}); msg != "" {
			t.Fatalf("after batch %d: %s", bi, msg)
		}
	}
	checkFinalState(t, s, e.ctx, oracle)
}

// TestExecutorApplyVsOracle is the randomized half: programs are
// submitted op-by-op through the live executor channel, so the batch
// boundaries depend on scheduling and differ run to run. A single
// producer keeps channel order FIFO, so the serial oracle still
// predicts every response exactly, whatever the batching. Concurrent
// readers hammer the hot keys on their own Ctx throughout; with the
// pessimistic schemes this runs under -race, racing real lookups
// against the executor's applies.
func TestExecutorApplyVsOracle(t *testing.T) {
	schemes := []string{"MCS-RW", "pthread"}
	if !indextest.RaceEnabled {
		schemes = append(schemes, "OptiQL", "OptLock")
	}
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for _, index := range []string{"btree", "art"} {
		for _, scheme := range schemes {
			for seed := 0; seed < seeds; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed=%d", index, scheme, seed), func(t *testing.T) {
					propertyRun(t, index, scheme, uint64(seed)*0x9E37+1)
				})
			}
		}
	}
}

func propertyRun(t *testing.T, index, scheme string, seed uint64) {
	t.Helper()
	s := newShardServer(t, index, scheme)
	e := s.shards[0].exec
	prog := indextest.NewSchedProgram(seed, 4, 150, 8, 128, 2, 0.6)
	oracle := indextest.NewSchedOracle()

	// Readers race against the executor on the hot keys for the whole
	// submission; their results are unchecked (any interleaving is
	// legal), they exist to contend on the nodes the executor writes.
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	for r := 0; r < 2; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			c := locks.NewCtx(s.pool, 8)
			defer c.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, k := range prog.HotKeys {
					s.shards[0].idx.Lookup(c, k)
				}
			}
		}()
	}

	var ops []writeOp
	var sched []indextest.SchedOp
	for _, batch := range prog.Batches {
		ws := schedOps(batch)
		for i := range ws {
			e.inflight.Add(1)
			e.ch <- ws[i]
		}
		ops = append(ops, ws...)
		sched = append(sched, batch...)
	}
	for i := range ops {
		select {
		case <-ops[i].p.ready:
		case <-time.After(30 * time.Second):
			t.Fatalf("op %d never completed", i)
		}
	}
	close(stop)
	rwg.Wait()

	for i, op := range sched {
		ins, fnd := oracle.Apply(op)
		want := wantResp(op, ins, fnd)
		got := ops[i].slot
		if got.Status != want.Status || got.Inserted != want.Inserted {
			t.Fatalf("op %d (%+v): got {%d %v}, oracle wants {%d %v}",
				i, op, got.Status, got.Inserted, want.Status, want.Inserted)
		}
	}
	c := locks.NewCtx(s.pool, 8)
	defer c.Close()
	checkFinalState(t, s, c, oracle)
}

// TestApplyBatchAllocs pins the executor's apply loop at zero
// allocations per batch. Overwrite PUTs over a pre-populated keyspace
// keep the tree structurally quiescent so only the apply machinery is
// measured, all completing against one long-lived pending.
func TestApplyBatchAllocs(t *testing.T) {
	s := newShardServer(t, "btree", testScheme())
	e := s.shards[0].exec
	p := &pending{ready: make(chan struct{})}
	p.remaining.Store(1 << 30) // never reaches zero: ready is reused across batches
	rng := workload.NewRNG(7)
	u := workload.NewUniform(1024)
	ops := make([]writeOp, e.batchMax)
	for i := range ops {
		k := u.Next(rng) + 1
		ops[i] = writeOp{op: wire.OpPut, key: k, val: k + 1, p: p, slot: &p.resp}
	}
	e.inflight.Add(int64(len(ops)))
	e.applyBatch(ops) // pre-populate: later batches are pure overwrites
	allocs := testing.AllocsPerRun(500, func() {
		e.inflight.Add(int64(len(ops)))
		e.applyBatch(ops)
	})
	if allocs != 0 {
		t.Fatalf("applyBatch allocates %.1f per batch, want 0", allocs)
	}
}
