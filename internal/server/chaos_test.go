package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"optiql/internal/faults"
	"optiql/internal/server/wire"
	"optiql/internal/workload"
)

// valState is one possible state of a key: present with a value, or
// absent. The chaos oracle tracks a set of admissible states per key,
// because a write whose connection died mid-request may or may not
// have been applied.
type valState struct {
	present bool
	val     uint64
}

var absent = valState{}

// chaosTally summarizes one chaos worker's run.
type chaosTally struct {
	acked         uint64 // writes the server definitely applied
	indeterminate uint64 // writes whose fate the transport obscured
	reconnects    uint64
	retries       uint64
}

// TestChaosE2EOracle is the headline resilience test: an oracle
// workload driven through self-healing clients against a server whose
// transport injects latency, stalls, resets, short writes, fragmented
// writes and accept failures — and, in the second variant, single-bit
// response corruption. The invariant checked at the end, over a clean
// connection with faults disabled: every acknowledged write is
// present with exactly its acknowledged value (zero lost acked
// writes), every key's final state is within its admissible set, the
// server shuts down cleanly while faults are still firing, and no
// goroutines leak.
//
// Soundness of the oracle under corruption: faults corrupt only the
// server->client direction, so requests apply exactly as sent. The
// client is synchronous (one outstanding request), so a response can
// only be a (possibly damaged) encoding of the answer to that request
// — and with no admission control configured the server answers a PUT
// only after applying it, so a PUT answered at all is a PUT applied.
// Any response the decoder rejects poisons the connection and is
// handled as a transport failure.
func TestChaosE2EOracle(t *testing.T) {
	base := faults.Config{
		Seed:        42,
		LatencyProb: 0.02, LatencyMin: 20 * time.Microsecond, LatencyMax: 200 * time.Microsecond,
		StallProb: 0.005, StallDur: 2 * time.Millisecond,
		ResetProb:      0.008,
		ShortWriteProb: 0.01,
		FragmentProb:   0.05,
		AcceptFailProb: 0.1,
	}
	corrupt := base
	corrupt.Seed = 43
	// Write-direction only: requests must arrive intact for the oracle
	// to know what the server was asked to do.
	corrupt.CorruptWriteProb = 0.01

	cases := []struct {
		name    string
		chaos   faults.Config
		corrupt bool
	}{
		{"transport", base, false},
		{"corruption", corrupt, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			goroutines := runtime.NumGoroutine()
			srv, addr := startServer(t, Config{
				Shards:       4,
				ReadTimeout:  2 * time.Second,
				WriteTimeout: 2 * time.Second,
				Chaos:        &tc.chaos,
			})

			const workers = 4
			ops := 400
			if testing.Short() {
				ops = 120
			}
			models := make([]map[uint64]map[valState]bool, workers)
			tallies := make([]chaosTally, workers)
			errs := make(chan error, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				w := w
				models[w] = make(map[uint64]map[valState]bool)
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs <- runChaosWorker(w, addr, ops, tc.corrupt, models[w], &tallies[w])
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}

			var total chaosTally
			for _, tl := range tallies {
				total.acked += tl.acked
				total.indeterminate += tl.indeterminate
				total.reconnects += tl.reconnects
				total.retries += tl.retries
			}
			if total.acked == 0 {
				t.Fatal("no write was ever acknowledged: the chaos drowned the workload entirely")
			}
			inj := srv.FaultInjector()
			if inj == nil || inj.Stats().Total() == 0 {
				t.Fatal("no fault ever fired: the chaos layer was not exercised")
			}
			t.Logf("acked=%d indeterminate=%d reconnects=%d retries=%d faults=%+v",
				total.acked, total.indeterminate, total.reconnects, total.retries, inj.Stats())

			// Final verification over a clean transport: disable injection
			// and read back every key the workload touched.
			inj.SetEnabled(false)
			cl, err := wire.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			for w, model := range models {
				for k, adm := range model {
					resp, err := cl.Do(wire.Get(k))
					if err != nil {
						t.Fatalf("clean verification get(%#x): %v", k, err)
					}
					got := absent
					if resp.Status == wire.StatusOK {
						got = valState{present: true, val: resp.Value}
					} else if resp.Status != wire.StatusNotFound {
						t.Fatalf("clean verification get(%#x) = %+v", k, resp)
					}
					if !adm[got] {
						t.Errorf("worker %d key %#x: final state %+v not admissible (%v) — an acknowledged write was lost or a phantom applied",
							w, k, got, admStates(adm))
					}
				}
			}
			cl.Close()
			if t.Failed() {
				t.FailNow()
			}

			// Clean drain while faults are firing again.
			inj.SetEnabled(true)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Fatalf("shutdown under active fault injection: %v", err)
			}
			waitGoroutines(t, goroutines)
		})
	}
}

func admStates(adm map[valState]bool) []valState {
	var out []valState
	for s := range adm {
		out = append(out, s)
	}
	return out
}

// waitGoroutines polls until the goroutine count returns to (near) the
// pre-test baseline, failing with a stack dump if it never does.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 { // tolerate runtime helpers coming and going
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d running, baseline %d\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// runChaosWorker drives one ReconnClient over its own key stripe,
// maintaining the per-key admissible-state sets in model.
func runChaosWorker(w int, addr string, ops int, corrupt bool, model map[uint64]map[valState]bool, tl *chaosTally) error {
	rc := &wire.ReconnClient{
		Addr:       addr,
		Timeout:    2 * time.Second,
		MaxRetries: 12,
		BackoffMin: time.Millisecond,
		BackoffMax: 20 * time.Millisecond,
	}
	defer rc.Close()
	defer func() {
		st := rc.Stats()
		tl.reconnects = st.Reconnects
		tl.retries = st.Retries
	}()
	base := uint64(w+1) << 32
	rng := workload.NewRNG(uint64(w)*0x9E3779B97F4A7C15 + 7)

	adm := func(k uint64) map[valState]bool {
		m := model[k]
		if m == nil {
			m = map[valState]bool{absent: true}
			model[k] = m
		}
		return m
	}
	for i := 0; i < ops; i++ {
		k := base | rng.Uint64n(128)
		switch rng.Uint64n(10) {
		case 0, 1, 2, 3: // put
			v := rng.Uint64()
			resp, err := rc.Do(wire.Put(k, v))
			st := adm(k)
			switch {
			case err != nil:
				// Indeterminate: the new value joins the admissible set.
				st[valState{true, v}] = true
				tl.indeterminate++
			case resp.Status == wire.StatusOK:
				model[k] = map[valState]bool{{true, v}: true}
				tl.acked++
			case resp.Status == wire.StatusOverloaded:
				// Shed before applying: state unchanged. (Not configured
				// here, but the model keeps the case sound.)
			case corrupt:
				// A damaged status on an answered PUT: the server applied
				// it (it answers only after applying), but be conservative
				// and only widen the set.
				st[valState{true, v}] = true
				tl.indeterminate++
			default:
				return fmt.Errorf("worker %d: put(%#x) = %+v on a clean transport", w, k, resp)
			}
		case 4, 5: // delete
			resp, err := rc.Do(wire.Del(k))
			st := adm(k)
			switch {
			case err != nil:
				st[absent] = true
				tl.indeterminate++
			case resp.Status == wire.StatusOK || resp.Status == wire.StatusNotFound:
				// Answered at all means executed; either status leaves the
				// key absent.
				model[k] = map[valState]bool{absent: true}
				tl.acked++
			case resp.Status == wire.StatusOverloaded:
			case corrupt:
				st[absent] = true
				tl.indeterminate++
			default:
				return fmt.Errorf("worker %d: del(%#x) = %+v on a clean transport", w, k, resp)
			}
		default: // get
			resp, err := rc.Do(wire.Get(k))
			if corrupt {
				// Response bits are untrusted mid-run; the read exercised
				// the retry machinery, which is all it is here for.
				continue
			}
			if err != nil {
				return fmt.Errorf("worker %d: get(%#x) never healed: %v", w, k, err)
			}
			got := absent
			if resp.Status == wire.StatusOK {
				got = valState{true, resp.Value}
			} else if resp.Status != wire.StatusNotFound {
				return fmt.Errorf("worker %d: get(%#x) = %+v", w, k, resp)
			}
			st := adm(k)
			if !st[got] {
				return fmt.Errorf("worker %d: get(%#x) observed %+v, admissible %v", w, k, got, admStates(st))
			}
			// An intact read is authoritative: collapse the set.
			model[k] = map[valState]bool{got: true}
		}
	}
	return nil
}

// TestServerSurvivesHandlerPanic injects panics into the read path and
// the write path, both run on the connection goroutine, and checks the
// one contract for both: the op is answered with StatusErr, that
// connection closes (its state is suspect), and the process keeps
// serving new connections.
func TestServerSurvivesHandlerPanic(t *testing.T) {
	const boom = uint64(0xDEAD)
	srv, addr := startServer(t, Config{Shards: 2})
	srv.panicKey.Store(boom)
	dial := func() *wire.Client {
		t.Helper()
		cl, err := wire.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	// panicThenClosed sends req, expects its internal-error answer, and
	// then finds the connection closed.
	panicThenClosed := func(cl *wire.Client, req wire.Request) {
		t.Helper()
		resp, err := cl.Do(req)
		if err != nil {
			t.Fatalf("%+v on panic key: %v", req, err)
		}
		if resp.Status != wire.StatusErr || !strings.Contains(resp.Err, "internal error") {
			t.Fatalf("%+v on panic key = %+v", req, resp)
		}
		if _, err = cl.Do(wire.Get(7)); err == nil {
			t.Fatalf("connection stayed open after a panic on %+v", req)
		}
	}

	panicThenClosed(dial(), wire.Put(boom, 1))
	cl := dial()
	if resp, err := cl.Do(wire.Put(7, 70)); err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("put after a recovered write panic = %+v, %v", resp, err)
	}
	if resp, err := cl.Do(wire.Get(7)); err != nil || resp.Value != 70 {
		t.Fatalf("get after a recovered write panic = %+v, %v", resp, err)
	}
	panicThenClosed(cl, wire.Get(boom))

	// Batches with a panicking sub-op, read or write: earlier sub-ops
	// complete, later ones are aborted, the envelope still arrives.
	for i, mid := range []wire.Request{wire.Get(boom), wire.Put(boom, 1)} {
		k := uint64(8 + 2*i)
		b, err := dial().Do(wire.Batch(wire.Put(k, k*10), mid, wire.Put(k+1, 1)))
		if err != nil {
			t.Fatalf("batch with panic: %v", err)
		}
		if len(b.Sub) != 3 ||
			b.Sub[0].Status != wire.StatusOK ||
			b.Sub[1].Status != wire.StatusErr ||
			b.Sub[2].Status != wire.StatusErr || !strings.Contains(b.Sub[2].Err, "aborted") {
			t.Fatalf("batch subs = %+v", b.Sub)
		}
	}

	// The process survived it all; fresh connections work and the
	// damage is fully accounted.
	srv.panicKey.Store(0)
	cl3 := dial()
	for k := uint64(8); k <= 11; k++ {
		resp, err := cl3.Do(wire.Get(k))
		if err != nil {
			t.Fatal(err)
		}
		if k%2 == 0 && resp.Value != k*10 {
			t.Fatalf("get(%d) after panics = %+v", k, resp)
		}
		if k%2 == 1 && resp.Status != wire.StatusNotFound {
			t.Fatalf("aborted batch sub-op %d was applied anyway: %+v", k, resp)
		}
	}
	if st := srv.Stats(); st.Panics != 4 {
		t.Fatalf("panics = %d, want 4", st.Panics)
	}
	if n := srv.Counters().Map()["srv_panic_recovered"]; n != 4 {
		t.Fatalf("srv_panic_recovered counter = %d, want 4", n)
	}
}

// TestIdleConnReaped: with a read timeout configured, a connection
// that never sends a frame is closed and accounted, while a connection
// doing steady traffic (each frame well within the timeout) lives on.
func TestIdleConnReaped(t *testing.T) {
	srv, addr := startServer(t, Config{ReadTimeout: 60 * time.Millisecond})

	busy, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()

	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()

	// Keep the busy connection trafficking across several timeout
	// windows; every op must keep succeeding.
	deadline := time.Now().Add(250 * time.Millisecond)
	for i := uint64(0); time.Now().Before(deadline); i++ {
		if resp, err := busy.Do(wire.Put(i, i)); err != nil || resp.Status != wire.StatusOK {
			t.Fatalf("busy connection reaped mid-traffic: %+v, %v", resp, err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The idle one must have been reaped by now: its read returns
	// promptly with a close, not a local timeout.
	idle.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := idle.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("idle connection not reaped: read = %v", err)
	}
	if st := srv.Stats(); st.Reaped != 1 {
		t.Fatalf("reaped = %d, want 1", st.Reaped)
	}
	if n := srv.Counters().Map()["srv_conn_reaped"]; n != 1 {
		t.Fatalf("srv_conn_reaped counter = %d, want 1", n)
	}
}

// TestShutdownRacesConnSetup races Shutdown against a burst of
// connections arriving with it: some send a first frame immediately,
// some never do. Every connection must terminate promptly — answered,
// EOF'd or reset, but never left hanging — and Shutdown must complete.
func TestShutdownRacesConnSetup(t *testing.T) {
	srv, addr := startServer(t, Config{})

	const conns = 16
	results := make(chan error, conns)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				results <- nil // refused after close: a clean termination
				return
			}
			defer nc.Close()
			if i%2 == 0 {
				req := wire.Get(uint64(i))
				frame, err := wire.AppendRequest(nil, &req)
				if err != nil {
					results <- err
					return
				}
				nc.Write(frame) // may race the close; any outcome is fine
			}
			// The one forbidden outcome is a hang: the server must close
			// (or answer then close) this connection well within the bound.
			nc.SetReadDeadline(time.Now().Add(5 * time.Second))
			buf := make([]byte, 256)
			for {
				if _, err := nc.Read(buf); err != nil {
					if errors.Is(err, os.ErrDeadlineExceeded) {
						results <- fmt.Errorf("conn %d hung through shutdown", i)
					} else {
						results <- nil
					}
					return
				}
			}
		}()
	}
	close(start)
	time.Sleep(time.Millisecond) // let the dials race the accept loop
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown racing connection setup: %v", err)
	}
	wg.Wait()
	close(results)
	for err := range results {
		if err != nil {
			t.Fatal(err)
		}
	}
}
