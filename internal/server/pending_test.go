package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"optiql/internal/faults"
	"optiql/internal/server/wire"
	"optiql/internal/wal"
)

// These tests pin the served request path's recycling: a connection's
// reader takes its pendings from a per-connection free list, a BATCH
// borrows its slots from batchSlotsPool for one request, and the
// writer waits on one per-connection wake channel.
//
//   - TestServedRequestAllocs: a whole round trip over a real socket
//     allocates nothing, for every request shape.
//   - TestRecycledAnswersCarryNoLeftovers: a recycled pending and
//     reused batch slots answer each request with exactly its own
//     sub-statuses and pairs.
//   - TestWakeOrderUnderIntervalWAL: inline reads complete while the
//     writes ahead of them wait for the syncer; answers stay in order.
//   - TestIdleConnHoldsNoBatchSlots: a connection idle after a BATCH
//     retains no batch storage.

// frameClient writes pre-encoded request frames on a raw connection
// and reads the response frames back without decoding them, so the
// client side of a round trip allocates nothing.
type frameClient struct {
	nc  net.Conn
	br  *bufio.Reader
	buf []byte
}

func dialFrames(t *testing.T, addr string) *frameClient {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &frameClient{nc: nc, br: bufio.NewReaderSize(nc, 64<<10)}
}

// shape is one request shape of the allocation pin: the frames of one
// round trip and the payload length of each answer (an OK status
// followed by its body).
type shape struct {
	name    string
	frames  []byte
	answers []int
}

func newShape(t *testing.T, name string, reqs ...wire.Request) shape {
	t.Helper()
	sh := shape{name: name}
	for i := range reqs {
		var err error
		if sh.frames, err = wire.AppendRequest(sh.frames, &reqs[i]); err != nil {
			t.Fatal(err)
		}
		n := 1
		switch reqs[i].Op {
		case wire.OpGet:
			n += 8
		case wire.OpPut:
			n++
		case wire.OpScan:
			n += 4 + 16*int(reqs[i].Max)
		case wire.OpBatch:
			n += 4 + 2*len(reqs[i].Sub) // PUT sub-answers
		}
		sh.answers = append(sh.answers, n)
	}
	return sh
}

// roundTrip sends the shape's frames and reads its answers; it reports
// an answer that is not OK or has the wrong length.
func (fc *frameClient) roundTrip(sh *shape) error {
	if _, err := fc.nc.Write(sh.frames); err != nil {
		return err
	}
	for _, n := range sh.answers {
		payload, err := wire.ReadFrame(fc.br, &fc.buf)
		if err != nil {
			return err
		}
		if len(payload) != n || payload[0] != wire.StatusOK {
			return errBadAnswer
		}
	}
	return nil
}

var errBadAnswer = errors.New("answer is not OK or has the wrong length")

// TestServedRequestAllocs pins a whole served round trip — frame read,
// parse, dispatch, the hop to the writer, encode and write — at zero
// allocations for GET, PUT, DELETE, SCAN(16) and a 1024-PUT BATCH,
// without a WAL, under the off policy (whose acks land at apply time)
// and under the interval policy (whose acks the syncer sends through
// a pooled ackBatch, grown past its initial cap by the BATCH).
// testing.AllocsPerRun counts the whole process, server
// goroutines included. PUTs overwrite preloaded keys and a DELETE is
// followed by the PUT that restores its key, so the tree never splits.
func TestServedRequestAllocs(t *testing.T) {
	for _, policy := range []string{"", wal.SyncOff, wal.SyncInterval} {
		t.Run(fmt.Sprintf("wal=%q", policy), func(t *testing.T) {
			cfg := Config{Index: "btree"}
			if policy != "" {
				cfg.WALDir = t.TempDir()
				cfg.Fsync = policy
			}
			_, addr := startServer(t, cfg)
			fc := dialFrames(t, addr)
			puts := make([]wire.Request, wire.MaxBatch)
			for i := range puts {
				k := uint64(i + 1)
				puts[i] = wire.Put(k, k)
			}
			preload := newShape(t, "preload", wire.Batch(puts...))
			if err := fc.roundTrip(&preload); err != nil {
				t.Fatal(err)
			}
			shapes := []shape{
				newShape(t, "GET", wire.Get(100)),
				newShape(t, "PUT", wire.Put(100, 7)),
				newShape(t, "DELETE", wire.Del(200), wire.Put(200, 200)),
				newShape(t, "SCAN(16)", wire.Scan(300, 16)),
				newShape(t, "BATCH(1024 PUT)", wire.Batch(puts...)),
			}
			for i := range shapes {
				sh := &shapes[i]
				for w := 0; w < 50; w++ {
					if err := fc.roundTrip(sh); err != nil {
						t.Fatalf("%s warm-up: %v", sh.name, err)
					}
				}
				var err error
				allocs := testing.AllocsPerRun(200, func() {
					if e := fc.roundTrip(sh); e != nil {
						err = e
					}
				})
				if err != nil {
					t.Fatalf("%s: %v", sh.name, err)
				}
				if allocs != 0 {
					t.Errorf("%s round trip allocates %.1f times, want 0", sh.name, allocs)
				}
			}
		})
	}
}

// TestRecycledAnswersCarryNoLeftovers sends a 1024-PUT BATCH, a 3-op
// BATCH, a SCAN and a GET on one connection. Each reuses the pending
// (and the first two the batch slots) of the request before it, and
// each answer must carry exactly its own sub-statuses and pairs.
func TestRecycledAnswersCarryNoLeftovers(t *testing.T) {
	_, addr := startServer(t, Config{})
	cl, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Even keys 2..2048, each mapped to k+1.
	puts := make([]wire.Request, wire.MaxBatch)
	for i := range puts {
		k := uint64(2 * (i + 1))
		puts[i] = wire.Put(k, k+1)
	}
	resp, err := cl.Do(wire.Batch(puts...))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusOK || len(resp.Sub) != wire.MaxBatch {
		t.Fatalf("1024-PUT BATCH = status %d, %d subs", resp.Status, len(resp.Sub))
	}
	for i, sub := range resp.Sub {
		if !reflect.DeepEqual(sub, wire.Response{Status: wire.StatusOK, Inserted: true}) {
			t.Fatalf("1024-PUT BATCH sub %d = %+v", i, sub)
		}
	}

	resp, err = cl.Do(wire.Batch(wire.Get(3), wire.Put(4, 9), wire.Scan(10, 2)))
	if err != nil {
		t.Fatal(err)
	}
	want := []wire.Response{
		{Status: wire.StatusNotFound},
		{Status: wire.StatusOK},
		{Status: wire.StatusOK, Pairs: []wire.KV{{Key: 10, Value: 11}, {Key: 12, Value: 13}}},
	}
	if resp.Status != wire.StatusOK || len(resp.Sub) != len(want) {
		t.Fatalf("3-op BATCH = status %d, %d subs", resp.Status, len(resp.Sub))
	}
	for i, sub := range resp.Sub {
		if !reflect.DeepEqual(sub, want[i]) {
			t.Fatalf("3-op BATCH sub %d = %+v, want %+v", i, sub, want[i])
		}
	}

	resp, err = cl.Do(wire.Scan(2046, 4))
	if err != nil {
		t.Fatal(err)
	}
	if w := (wire.Response{Status: wire.StatusOK, Pairs: []wire.KV{{Key: 2046, Value: 2047}, {Key: 2048, Value: 2049}}}); !reflect.DeepEqual(resp, w) {
		t.Fatalf("SCAN = %+v, want %+v", resp, w)
	}

	resp, err = cl.Do(wire.Get(4))
	if err != nil {
		t.Fatal(err)
	}
	if w := (wire.Response{Status: wire.StatusOK, Value: 9}); !reflect.DeepEqual(resp, w) {
		t.Fatalf("GET = %+v, want %+v", resp, w)
	}
}

// TestWakeOrderUnderIntervalWAL pipelines PUT k, GET k pairs on one
// connection under the interval WAL with a 2 ms fsync. Each GET
// completes inline, on the reader, while the PUT ahead of it waits
// for its ack from the syncer goroutine, so the writer receives wake
// tokens for requests behind the one it waits on. The answers must
// still come back in request order, each GET reading its PUT.
func TestWakeOrderUnderIntervalWAL(t *testing.T) {
	cfg := walConfig(t.TempDir(), "btree", wal.SyncInterval)
	cfg.WALSyncFile = faults.SlowSync(2 * time.Millisecond)
	srv, addr := startServer(t, cfg)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// A writer that answered a request early corrupts the stream; fail
	// on the deadline rather than hang.
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	cl := wire.NewClient(nc)
	defer cl.Close()
	const n = 200
	for k := uint64(1); k <= n; k++ {
		if err := cl.Send(wire.Put(k, k*5)); err != nil {
			t.Fatal(err)
		}
		if err := cl.Send(wire.Get(k)); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(1); k <= n; k++ {
		put, err := cl.Recv()
		if err != nil || put.Status != wire.StatusOK || !put.Inserted {
			t.Fatalf("PUT %d = %+v, %v", k, put, err)
		}
		get, err := cl.Recv()
		if err != nil || get.Status != wire.StatusOK || get.Value != k*5 {
			t.Fatalf("GET %d = %+v, %v (answer out of order or lost)", k, get, err)
		}
	}
	if rep := srv.WALReport(); rep.Syncs == 0 || rep.AppendedOps < n {
		t.Fatalf("WAL report %+v: the PUT acks did not ride the syncer", rep)
	}
}

// TestIdleConnHoldsNoBatchSlots sends one 1024-sub BATCH and then goes
// idle: every pending on the connection's free list must be reset,
// with no batch slots, no sub-request or sub-response slice and no
// scan buffer.
func TestIdleConnHoldsNoBatchSlots(t *testing.T) {
	srv, addr := startServer(t, Config{})
	cl, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	sub := make([]wire.Request, wire.MaxBatch)
	for i := range sub {
		sub[i] = wire.Put(uint64(i), uint64(i))
		if i%2 == 1 {
			sub[i] = wire.Scan(0, 4)
		}
	}
	if resp, err := cl.Do(wire.Batch(sub...)); err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("BATCH = %+v, %v", resp, err)
	}
	srv.mu.Lock()
	var c *conn
	for c = range srv.conns {
	}
	srv.mu.Unlock()
	if c == nil {
		t.Fatal("the connection is not registered")
	}
	// The writer recycled the BATCH's pending before it wrote the
	// answer the client has read, so the free list is settled. Receiving
	// from it orders this goroutine after the writer's reset.
	var ps []*pending
	for len(c.free) > 0 {
		ps = append(ps, <-c.free)
	}
	if len(ps) == 0 {
		t.Fatal("the answered BATCH's pending was not recycled")
	}
	for _, p := range ps {
		if p.slots != nil || p.req.Sub != nil || p.resp.Sub != nil || len(p.scanBufs) != 0 || p.remaining.Load() != 0 {
			t.Fatalf("idle connection retains request storage: slots=%v req.Sub=%d resp.Sub=%d scanBufs=%d remaining=%d",
				p.slots != nil, len(p.req.Sub), len(p.resp.Sub), len(p.scanBufs), p.remaining.Load())
		}
		c.free <- p
	}
}
