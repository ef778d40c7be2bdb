package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"optiql/internal/indextest"
	"optiql/internal/locks"
	"optiql/internal/server/wire"
	"optiql/internal/wal"
	"optiql/internal/workload"
)

// These tests hold the connection write path to a serial map oracle:
//
//   - TestDeterministicSchedule replays fixed seeded schedules
//     (indextest.SchedProgram) through conn.dispatch, one conn and Ctx
//     per program connection, and asserts per-op response equality,
//     per-connection read-your-writes between batches and the final
//     tree state — over both indexes and every lock scheme, without a
//     WAL and with one.
//   - TestExecutorApplyVsOracle pipelines random programs over a real
//     connection while a second connection writes interleaved keys and
//     readers hammer the hot keys; responses must still match the
//     serial oracle exactly.
//   - TestWritePathAllocs pins one PUT and one GET through dispatch at
//     zero allocations, without a WAL and with one.

// newTestServer builds a server that never listens: the tests drive
// conn.dispatch directly. policy selects a WAL with that fsync policy
// ("" for none).
func newTestServer(t testing.TB, index, scheme, policy string) *Server {
	t.Helper()
	cfg := Config{Index: index, Scheme: scheme}
	if policy != "" {
		cfg.WALDir = t.TempDir()
		cfg.Fsync = policy
		cfg.FsyncInterval = time.Millisecond
	}
	s, err := New(cfg)
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

// newTestConn is a connection with no socket and no goroutines: the
// test calls dispatch on it, as its reader would.
func newTestConn(t testing.TB, s *Server) (*conn, *locks.Ctx) {
	ctx := locks.NewCtx(s.pool, 0)
	t.Cleanup(ctx.Close)
	return &conn{srv: s, id: s.connSeq.Add(1)}, ctx
}

// schedReq encodes a run of one connection's scheduled writes as one
// request: the bare op for a run of one, a BATCH otherwise. keyOf maps
// a program key to the key sent.
func schedReq(run []indextest.SchedOp, keyOf func(uint64) uint64) wire.Request {
	subs := make([]wire.Request, len(run))
	for i, op := range run {
		subs[i] = wire.Put(keyOf(op.Key), op.Val)
		if op.Op == indextest.SchedDelete {
			subs[i] = wire.Del(keyOf(op.Key))
		}
	}
	if len(subs) == 1 {
		return subs[0]
	}
	return wire.Batch(subs...)
}

// connRuns splits a schedule batch into maximal runs of consecutive
// ops from one connection, each sent as one request.
func connRuns(batch []indextest.SchedOp) [][]indextest.SchedOp {
	var runs [][]indextest.SchedOp
	for len(batch) > 0 {
		n := 1
		for n < len(batch) && batch[n].Conn == batch[0].Conn {
			n++
		}
		runs = append(runs, batch[:n])
		batch = batch[n:]
	}
	return runs
}

// respSlots returns the per-op responses of a request built by
// schedReq.
func respSlots(r *wire.Response) []wire.Response {
	if r.Sub != nil {
		return r.Sub
	}
	return []wire.Response{*r}
}

// checkResp compares one op's response with the serial oracle's.
func checkResp(oracle *indextest.SchedOracle, op indextest.SchedOp, got wire.Response) error {
	ins, fnd := oracle.Apply(op)
	want := wire.Response{Status: wire.StatusOK}
	if op.Op == indextest.SchedPut {
		want.Inserted = ins
	} else if !fnd {
		want.Status = wire.StatusNotFound
	}
	if got.Status != want.Status || got.Inserted != want.Inserted {
		return fmt.Errorf("op %+v: got {%d %v}, oracle wants {%d %v}",
			op, got.Status, got.Inserted, want.Status, want.Inserted)
	}
	return nil
}

// checkFinalState asserts that the index's full scan, restricted to
// the program's keys (keyOf's image, inverted by progKey), is exactly
// the oracle's contents.
func checkFinalState(t *testing.T, s *Server, c *locks.Ctx, oracle *indextest.SchedOracle, progKey func(uint64) (uint64, bool)) {
	t.Helper()
	n := 0
	for i, kv := range s.idx.Scan(c, 0, 1<<20, nil) {
		k, ok := progKey(kv.Key)
		if !ok {
			continue
		}
		n++
		if v, ok := oracle.Get(k); !ok || v != kv.Value {
			t.Fatalf("final state wrong at rank %d: index has %+v, oracle has (%d, %v)", i, kv, v, ok)
		}
	}
	if n != oracle.Len() {
		t.Fatalf("final state has %d keys, oracle %d", n, oracle.Len())
	}
}

func identity(k uint64) uint64            { return k }
func identityInv(k uint64) (uint64, bool) { return k, true }

// TestDeterministicSchedule replays one seeded program batch-for-batch
// through the connection write path. The replay is single-threaded —
// each request is dispatched by the test goroutine — so even the
// optimistic schemes run under -race: with no concurrent reader there
// is no by-design race to flag, and determinism is the point. With the
// interval WAL each schedule batch's requests are dispatched before
// any ack is awaited, so their records share group commits.
func TestDeterministicSchedule(t *testing.T) {
	for _, index := range []string{"btree", "art"} {
		for _, scheme := range locks.AllNames() {
			t.Run(index+"/"+scheme, func(t *testing.T) {
				prog := indextest.NewSchedProgram(0xD5C0DE, 4, 60, 16, 256, 3, 0.6)
				for _, policy := range []string{"", wal.SyncInterval} {
					replaySched(t, index, scheme, policy, prog)
				}
			})
		}
	}
}

func replaySched(t *testing.T, index, scheme, policy string, prog *indextest.SchedProgram) {
	t.Helper()
	s := newTestServer(t, index, scheme, policy)
	conns := make(map[int]*conn)
	ctxs := make(map[int]*locks.Ctx)
	oracle := indextest.NewSchedOracle()
	for bi, batch := range prog.Batches {
		runs := connRuns(batch)
		ps := make([]*pending, len(runs))
		for ri, run := range runs {
			id := run[0].Conn
			if conns[id] == nil {
				conns[id], ctxs[id] = newTestConn(t, s)
			}
			ps[ri] = newPending(schedReq(run, identity))
			if !conns[id].dispatch(ctxs[id], ps[ri]) {
				t.Fatalf("wal=%q batch %d: dispatch reported a panic", policy, bi)
			}
		}
		for ri, run := range runs {
			select {
			case <-ps[ri].ready:
			case <-time.After(10 * time.Second):
				t.Fatalf("wal=%q batch %d: request %d was never answered", policy, bi, ri)
			}
			for i, got := range respSlots(&ps[ri].resp) {
				if err := checkResp(oracle, run[i], got); err != nil {
					t.Fatalf("wal=%q batch %d: %v", policy, bi, err)
				}
			}
		}
		// Between batches every connection must see its own surviving
		// writes.
		rc := ctxs[batch[0].Conn]
		if msg := oracle.ReadYourWrites(func(k uint64) (uint64, bool) {
			return s.idx.Lookup(rc, k)
		}); msg != "" {
			t.Fatalf("wal=%q after batch %d: %s", policy, bi, msg)
		}
	}
	c := locks.NewCtx(s.pool, 0)
	defer c.Close()
	checkFinalState(t, s, c, oracle, identityInv)
}

// TestExecutorApplyVsOracle is the randomized half: a program is
// pipelined over one real connection, so the server's reads of it
// race its writes on the socket, while a second connection writes the
// odd keys that share the program's leaves (program key k is sent as
// 2k) and readers hammer the hot keys on their own Ctx. A single
// program connection keeps its order, so the serial oracle still
// predicts every response. Odd seeds run with the interval WAL. With
// the pessimistic schemes this runs under -race.
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
					propertyRun(t, index, scheme, seed)
				})
			}
		}
	}
}

func propertyRun(t *testing.T, index, scheme string, seed int) {
	t.Helper()
	cfg := Config{Index: index, Scheme: scheme}
	if seed%2 == 1 {
		cfg.WALDir = t.TempDir()
		cfg.Fsync = wal.SyncInterval
		cfg.FsyncInterval = time.Millisecond
	}
	s, addr := startServer(t, cfg)
	const keySpace = 128
	prog := indextest.NewSchedProgram(uint64(seed)*0x9E37+1, 4, 150, 8, keySpace, 2, 0.6)
	even := func(k uint64) uint64 { return 2 * k }

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var noiseErr atomic.Value
	// The noise writer's keys are odd, so they never touch the oracle's
	// state but do share its leaves and locks.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl, err := wire.Dial(addr)
		if err != nil {
			noiseErr.Store(err)
			return
		}
		defer cl.Close()
		rng := workload.NewRNG(uint64(seed) + 99)
		for {
			select {
			case <-stop:
				return
			default:
			}
			k := 2*rng.Uint64n(keySpace+1) + 1
			req := wire.Put(k, k)
			if rng.Uint64n(3) == 0 {
				req = wire.Del(k)
			}
			if _, err := cl.Do(req); err != nil {
				noiseErr.Store(err)
				return
			}
		}
	}()
	// Readers race the writers on the hot keys for the whole run; their
	// results are unchecked (any interleaving is legal).
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := locks.NewCtx(s.pool, 0)
			defer c.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, k := range prog.HotKeys {
					s.idx.Lookup(c, even(k))
				}
			}
		}()
	}

	cl, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var runs [][]indextest.SchedOp
	for _, batch := range prog.Batches {
		for _, run := range connRuns(batch) {
			if err := cl.Send(schedReq(run, even)); err != nil {
				t.Fatal(err)
			}
			runs = append(runs, run)
		}
	}
	oracle := indextest.NewSchedOracle()
	for ri, run := range runs {
		resp, err := cl.Recv()
		if err != nil {
			t.Fatalf("request %d: %v", ri, err)
		}
		for i, got := range respSlots(&resp) {
			if err := checkResp(oracle, run[i], got); err != nil {
				t.Fatalf("request %d: %v", ri, err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if err, _ := noiseErr.Load().(error); err != nil {
		t.Fatalf("noise writer: %v", err)
	}
	c := locks.NewCtx(s.pool, 0)
	defer c.Close()
	checkFinalState(t, s, c, oracle, func(k uint64) (uint64, bool) { return k / 2, k%2 == 0 })
}

// TestWritePathAllocs pins one PUT through the connection write path,
// and one GET through the read path, at zero allocations, without a
// WAL and with one under the off policy (whose ack lands at apply
// time, so the run is synchronous; a deferring policy's pooled ack
// batch comes back from the syncer goroutine, which a tight
// single-threaded loop outruns). Overwrite PUTs over a populated
// keyspace keep the tree structurally quiescent, and the pendings
// never complete, so they are reused across runs.
func TestWritePathAllocs(t *testing.T) {
	for _, policy := range []string{"", wal.SyncOff} {
		t.Run(fmt.Sprintf("wal=%q", policy), func(t *testing.T) {
			s := newTestServer(t, "btree", testScheme(), policy)
			c, ctx := newTestConn(t, s)
			for k := uint64(1); k <= 1024; k++ {
				p := newPending(wire.Put(k, k))
				c.dispatch(ctx, p)
			}
			for _, req := range []wire.Request{wire.Put(512, 7), wire.Get(512)} {
				p := newPending(req)
				p.remaining.Store(1 << 30) // never reaches zero: ready is never closed
				allocs := testing.AllocsPerRun(500, func() {
					c.dispatch(ctx, p)
				})
				if allocs != 0 {
					t.Fatalf("op %d through dispatch allocates %.1f times, want 0", req.Op, allocs)
				}
			}
		})
	}
}
