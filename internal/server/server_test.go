package server

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"optiql/internal/core"
	"optiql/internal/indextest"
	"optiql/internal/server/wire"
	"optiql/internal/wal"
	"optiql/internal/workload"
)

// testScheme picks an optimistic scheme normally and a pessimistic one
// under the race detector (optimistic reads are racy by design; the
// server machinery itself — framing, routing, batching, shutdown — is
// scheme-independent and keeps full race coverage).
func testScheme() string {
	if indextest.RaceEnabled {
		return "MCS-RW"
	}
	return "OptiQL"
}

func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	if cfg.Scheme == "" {
		cfg.Scheme = testScheme()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, addr.String()
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Index: "skiplist"}); err == nil {
		t.Fatal("New accepted an unknown index kind")
	}
	if _, err := New(Config{Scheme: "nope"}); err == nil {
		t.Fatal("New accepted an unknown scheme")
	}
}

// TestManyShardsServeWrites: shards hold no queue nodes, so New
// accepts a shard count far past the pool's 1024/8 that per-shard
// write reserves once allowed, WAL or not, and every shard serves a
// write.
func TestManyShardsServeWrites(t *testing.T) {
	const shards = 200
	for _, withWAL := range []bool{false, true} {
		t.Run(fmt.Sprintf("wal=%v", withWAL), func(t *testing.T) {
			cfg := Config{Shards: shards, Scheme: "OptiQL"}
			if withWAL {
				cfg.WALDir = t.TempDir()
				cfg.Fsync = wal.SyncOff
			}
			srv, addr := startServer(t, cfg)
			cl, err := wire.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			// Find a key for every shard, then write them all in one pipe.
			keys := make([]uint64, shards)
			for k, found := uint64(1), 0; found < shards; k++ {
				if si := srv.shardIdx(k); keys[si] == 0 {
					keys[si] = k
					found++
				}
			}
			for _, k := range keys {
				if err := cl.Send(wire.Put(k, k+1)); err != nil {
					t.Fatal(err)
				}
			}
			for si := range keys {
				if resp, err := cl.Recv(); err != nil || resp.Status != wire.StatusOK {
					t.Fatalf("put on shard %d = %+v, %v", si, resp, err)
				}
			}
			for si, sh := range srv.shards {
				if n := sh.idx.Len(); n != 1 {
					t.Fatalf("shard %d holds %d keys, want 1", si, n)
				}
			}
		})
	}
}

// TestWriteShedWhenPoolDrained: a write reserves its queue nodes before
// it touches the index, so with the pool drained a PUT is answered
// OVERLOADED (and counted as shed) instead of panicking mid-acquire,
// and once the pool is refilled the same PUT succeeds.
func TestWriteShedWhenPoolDrained(t *testing.T) {
	for _, kind := range []string{"btree", "art"} {
		t.Run(kind, func(t *testing.T) {
			srv, addr := startServer(t, Config{Index: kind, Shards: 1, Scheme: "OptiQL"})
			cl, err := wire.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			var drained []*core.QNode
			for {
				q, ok := srv.pool.TryGet()
				if !ok {
					break
				}
				drained = append(drained, q)
			}
			if resp, err := cl.Do(wire.Put(1, 10)); err != nil || resp.Status != wire.StatusOverloaded {
				t.Fatalf("put with the pool drained = %+v, %v, want OVERLOADED", resp, err)
			}
			if resp, err := cl.Do(wire.Get(1)); err != nil || resp.Status != wire.StatusNotFound {
				t.Fatalf("shed put was applied: get = %+v, %v", resp, err)
			}
			if st := srv.Stats(); st.Shed != 1 {
				t.Fatalf("shed = %d, want 1", st.Shed)
			}
			for _, q := range drained {
				srv.pool.Put(q)
			}
			if resp, err := cl.Do(wire.Put(1, 10)); err != nil || resp.Status != wire.StatusOK {
				t.Fatalf("put after refilling the pool = %+v, %v", resp, err)
			}
			if resp, err := cl.Do(wire.Get(1)); err != nil || resp.Value != 10 {
				t.Fatalf("get after refill = %+v, %v", resp, err)
			}
		})
	}
}

func TestBasicOps(t *testing.T) {
	for _, kind := range []string{"btree", "art"} {
		t.Run(kind, func(t *testing.T) {
			_, addr := startServer(t, Config{Index: kind, Shards: 4})
			cl, err := wire.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			do := func(r wire.Request) wire.Response {
				t.Helper()
				resp, err := cl.Do(r)
				if err != nil {
					t.Fatalf("%+v: %v", r, err)
				}
				return resp
			}
			if r := do(wire.Get(42)); r.Status != wire.StatusNotFound {
				t.Fatalf("get of missing key = %+v", r)
			}
			if r := do(wire.Put(42, 7)); r.Status != wire.StatusOK || !r.Inserted {
				t.Fatalf("first put = %+v", r)
			}
			if r := do(wire.Put(42, 8)); r.Status != wire.StatusOK || r.Inserted {
				t.Fatalf("overwrite put = %+v", r)
			}
			if r := do(wire.Get(42)); r.Status != wire.StatusOK || r.Value != 8 {
				t.Fatalf("get after put = %+v", r)
			}
			for i := uint64(0); i < 100; i++ {
				do(wire.Put(100+i, i))
			}
			r := do(wire.Scan(100, 50))
			if r.Status != wire.StatusOK || len(r.Pairs) != 50 {
				t.Fatalf("scan = status %d, %d pairs", r.Status, len(r.Pairs))
			}
			for i, kv := range r.Pairs {
				if kv.Key != 100+uint64(i) || kv.Value != uint64(i) {
					t.Fatalf("scan pair %d = %+v", i, kv)
				}
			}
			if r := do(wire.Del(42)); r.Status != wire.StatusOK {
				t.Fatalf("delete = %+v", r)
			}
			if r := do(wire.Del(42)); r.Status != wire.StatusNotFound {
				t.Fatalf("double delete = %+v", r)
			}
			b := do(wire.Batch(wire.Put(1, 10), wire.Put(2, 20), wire.Get(1000)))
			if b.Status != wire.StatusOK || len(b.Sub) != 3 {
				t.Fatalf("batch = %+v", b)
			}
			if !b.Sub[0].Inserted || !b.Sub[1].Inserted || b.Sub[2].Status != wire.StatusNotFound {
				t.Fatalf("batch subs = %+v", b.Sub)
			}
			// Two scans in one batch: each result rides its own pooled
			// buffer on the same pending, released together after encode.
			b = do(wire.Batch(wire.Scan(100, 3), wire.Get(1), wire.Scan(150, 3)))
			if b.Status != wire.StatusOK || len(b.Sub) != 3 {
				t.Fatalf("scan batch = %+v", b)
			}
			for i, want := range []uint64{100, 150} {
				sub := b.Sub[i*2]
				if sub.Status != wire.StatusOK || len(sub.Pairs) != 3 || sub.Pairs[0].Key != want {
					t.Fatalf("scan batch sub[%d] = %+v", i*2, sub)
				}
			}
			if b.Sub[1].Value != 10 {
				t.Fatalf("get between scans = %+v", b.Sub[1])
			}
		})
	}
}

// TestProtocolErrorAnswered verifies a malformed frame gets a final
// StatusErr response before the server closes the connection.
func TestProtocolErrorAnswered(t *testing.T) {
	_, addr := startServer(t, Config{})
	// Frame of one byte: opcode 99, which ParseRequest rejects.
	resp, err := rawExchange(addr, []byte{0, 0, 0, 1, 99})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusErr || resp.Err == "" {
		t.Fatalf("malformed request answered with %+v", resp)
	}
}

// rawExchange writes raw bytes and decodes the single response frame.
// StatusErr responses decode identically for every opcode, so a GET
// request shape suffices.
func rawExchange(addr string, frame []byte) (wire.Response, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return wire.Response{}, err
	}
	defer nc.Close()
	if _, err := nc.Write(frame); err != nil {
		return wire.Response{}, err
	}
	var buf []byte
	payload, err := wire.ReadFrame(bufio.NewReader(nc), &buf)
	if err != nil {
		return wire.Response{}, err
	}
	req := wire.Get(0)
	return wire.ParseResponse(payload, &req)
}

// TestPipelinedE2E drives the full acceptance mix: >=4 shards, >=8
// concurrent pipelined clients, gets/puts/deletes/scans/batches, then
// checks the server's counters against the clients' own tallies and
// the resident keys against per-client oracles.
func TestPipelinedE2E(t *testing.T) {
	for _, kind := range []string{"btree", "art"} {
		t.Run(kind, func(t *testing.T) {
			srv, addr := startServer(t, Config{Index: kind, Shards: 4})

			const clients = 8
			ops := 1200
			if testing.Short() {
				ops = 300
			}
			tallies := make([]e2eTally, clients)
			oracles := make([]map[uint64]uint64, clients)
			errs := make(chan error, clients)
			var wg sync.WaitGroup
			for w := 0; w < clients; w++ {
				w := w
				oracles[w] = make(map[uint64]uint64)
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs <- runE2EWorker(w, addr, ops, &tallies[w], oracles[w])
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}

			var want e2eTally
			wantLen := 0
			for w := range tallies {
				want.gets += tallies[w].gets
				want.puts += tallies[w].puts
				want.deletes += tallies[w].deletes
				want.scans += tallies[w].scans
				want.batches += tallies[w].batches
				want.subops += tallies[w].subops
				wantLen += len(oracles[w])
			}
			st := srv.Stats()
			if st.Gets != want.gets || st.Puts != want.puts || st.Deletes != want.deletes ||
				st.Scans != want.scans || st.Batches != want.batches || st.Ops != want.subops {
				t.Fatalf("server stats %+v, clients observed %+v", st, want)
			}
			if st.Conns != clients {
				t.Fatalf("conns = %d, want %d", st.Conns, clients)
			}
			if srv.Len() != wantLen {
				t.Fatalf("resident keys = %d, oracles hold %d", srv.Len(), wantLen)
			}
			if srv.Counters().Total() == 0 {
				t.Fatal("lock event counters all zero after a full e2e run")
			}
		})
	}
}

// e2eTally counts the wire operations one worker issued, by kind.
type e2eTally struct{ gets, puts, deletes, scans, batches, subops uint64 }

// runE2EWorker drives one pipelined connection over its own key stripe
// (keys carry the worker id in the top bits, so stripes are disjoint
// and every response is checkable against the local oracle even though
// all clients churn the same shards).
func runE2EWorker(w int, addr string, ops int, tl *e2eTally, oracle map[uint64]uint64) error {
	cl, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	base := uint64(w) << 32
	rng := workload.NewRNG(uint64(w)*0x9E3779B97F4A7C15 + 1)

	type sent struct{ req wire.Request }
	var window []sent
	const pipeline = 16

	var check func(s sent, resp wire.Response) error
	check = func(s sent, resp wire.Response) error {
		switch s.req.Op {
		case wire.OpPut:
			_, had := oracle[s.req.Key]
			if resp.Status != wire.StatusOK || resp.Inserted != !had {
				return fmt.Errorf("worker %d: put(%#x) = %+v, oracle had=%v", w, s.req.Key, resp, had)
			}
			oracle[s.req.Key] = s.req.Value
		case wire.OpDelete:
			_, had := oracle[s.req.Key]
			wantSt := wire.StatusOK
			if !had {
				wantSt = wire.StatusNotFound
			}
			if resp.Status != wantSt {
				return fmt.Errorf("worker %d: del(%#x) status %d, oracle had=%v", w, s.req.Key, resp.Status, had)
			}
			delete(oracle, s.req.Key)
		case wire.OpGet:
			want, had := oracle[s.req.Key]
			if had && (resp.Status != wire.StatusOK || resp.Value != want) {
				return fmt.Errorf("worker %d: get(%#x) = %+v, oracle says %d", w, s.req.Key, resp, want)
			}
			if !had && resp.Status != wire.StatusNotFound {
				return fmt.Errorf("worker %d: get(%#x) = %+v, oracle says absent", w, s.req.Key, resp)
			}
		case wire.OpScan:
			if resp.Status != wire.StatusOK || len(resp.Pairs) > int(s.req.Max) {
				return fmt.Errorf("worker %d: scan = status %d, %d pairs (max %d)", w, resp.Status, len(resp.Pairs), s.req.Max)
			}
			for i, kv := range resp.Pairs {
				if kv.Key < s.req.Key || (i > 0 && kv.Key <= resp.Pairs[i-1].Key) {
					return fmt.Errorf("worker %d: scan unsorted at %d", w, i)
				}
				// Own-stripe pairs must carry current oracle values: our
				// stripe cannot change while our sequential reader waits.
				if kv.Key>>32 == uint64(w) {
					if want, ok := oracle[kv.Key]; !ok || want != kv.Value {
						return fmt.Errorf("worker %d: scan saw own key %#x = %d, oracle says (%d, %v)", w, kv.Key, kv.Value, want, ok)
					}
				}
			}
		case wire.OpBatch:
			if resp.Status != wire.StatusOK || len(resp.Sub) != len(s.req.Sub) {
				return fmt.Errorf("worker %d: batch = %+v", w, resp)
			}
			for i := range resp.Sub {
				// Batch sub-ops are all puts on distinct keys here, so
				// ordering inside the batch doesn't matter.
				if err := check(sent{s.req.Sub[i]}, resp.Sub[i]); err != nil {
					return err
				}
			}
		}
		return nil
	}

	recvOne := func() error {
		s := window[0]
		window = window[1:]
		resp, err := cl.Recv()
		if err != nil {
			return fmt.Errorf("worker %d: recv: %w", w, err)
		}
		return check(s, resp)
	}

	for i := 0; i < ops; i++ {
		var req wire.Request
		k := base | rng.Uint64n(512)
		switch rng.Uint64n(10) {
		case 0, 1, 2: // put
			req = wire.Put(k, rng.Uint64())
			tl.puts++
			tl.subops++
		case 3: // delete
			req = wire.Del(k)
			tl.deletes++
			tl.subops++
		case 4, 5, 6, 7: // get
			req = wire.Get(k)
			tl.gets++
			tl.subops++
		case 8: // scan from own stripe
			req = wire.Scan(base, uint32(rng.Uint64n(64))+1)
			tl.scans++
			tl.subops++
		case 9: // batch of puts on distinct keys
			n := int(rng.Uint64n(6)) + 2
			sub := make([]wire.Request, n)
			for j := range sub {
				sub[j] = wire.Put(base|uint64(1024+i*8+j), rng.Uint64())
			}
			req = wire.Batch(sub...)
			tl.batches++
			tl.puts += uint64(n)
			tl.subops += uint64(n)
		}
		if err := cl.Send(req); err != nil {
			return fmt.Errorf("worker %d: send: %w", w, err)
		}
		window = append(window, sent{req})
		for len(window) >= pipeline {
			if err := recvOne(); err != nil {
				return err
			}
		}
	}
	for len(window) > 0 {
		if err := recvOne(); err != nil {
			return err
		}
	}
	return nil
}

// TestShutdownDrainsAdmittedBatches races Shutdown against a client
// pipelining batches of puts. The contract: an admitted batch is fully
// applied and fully answered; an unread one is neither. So the client
// must see an in-order prefix of OK batch responses, and the server's
// put counter and resident keys must match that prefix exactly.
func TestShutdownDrainsAdmittedBatches(t *testing.T) {
	srv, addr := startServer(t, Config{Shards: 4})
	cl, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const batches, per = 60, 20
	for i := 0; i < batches; i++ {
		sub := make([]wire.Request, per)
		for j := range sub {
			k := uint64(i*per + j)
			sub[j] = wire.Put(k, k+1)
		}
		if err := cl.Send(wire.Batch(sub...)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.CloseWrite(); err != nil {
		t.Fatal(err)
	}

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()

	answered := 0
	for cl.Pending() > 0 {
		resp, err := cl.Recv()
		if err != nil {
			break // connection closed after the admitted prefix
		}
		if resp.Status != wire.StatusOK || len(resp.Sub) != per {
			t.Fatalf("batch %d = status %d, %d subs", answered, resp.Status, len(resp.Sub))
		}
		for j, sub := range resp.Sub {
			if sub.Status != wire.StatusOK || !sub.Inserted {
				t.Fatalf("batch %d sub %d = %+v", answered, j, sub)
			}
		}
		answered++
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	st := srv.Stats()
	if st.Puts != uint64(answered*per) {
		t.Fatalf("server applied %d puts, client saw %d batches acknowledged (%d puts): an admitted batch was dropped or a dropped one applied",
			st.Puts, answered, answered*per)
	}
	if srv.Len() != answered*per {
		t.Fatalf("resident keys = %d, want %d", srv.Len(), answered*per)
	}
	if st.Batches != uint64(answered) {
		t.Fatalf("batch envelopes = %d, answered %d", st.Batches, answered)
	}
}

// TestShutdownUnblocksIdleConn: a connection with no traffic must not
// stall Shutdown.
func TestShutdownUnblocksIdleConn(t *testing.T) {
	srv, addr := startServer(t, Config{})
	cl, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	time.Sleep(10 * time.Millisecond) // let the server admit the conn
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown blocked on an idle connection: %v", err)
	}
}

// TestReadYourWrites: a get pipelined immediately behind a put on the
// same connection must observe it.
func TestReadYourWrites(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 8})
	cl, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const n = 500
	for i := uint64(0); i < n; i++ {
		if err := cl.Send(wire.Put(i, i*3)); err != nil {
			t.Fatal(err)
		}
		if err := cl.Send(wire.Get(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < n; i++ {
		if put, err := cl.Recv(); err != nil || put.Status != wire.StatusOK {
			t.Fatalf("put %d = %+v, %v", i, put, err)
		}
		get, err := cl.Recv()
		if err != nil || get.Status != wire.StatusOK || get.Value != i*3 {
			t.Fatalf("get %d = %+v, %v (read-your-writes violated)", i, get, err)
		}
	}
}
