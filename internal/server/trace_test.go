package server

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"optiql/internal/obs"
	"optiql/internal/obs/trace"
	"optiql/internal/server/wire"
	"optiql/internal/workload"
)

// TestTraceContentionE2E drives a traced server with a Zipfian
// GET/PUT mix and checks the whole profiler path: the
// /debug/contention endpoint must rank the client-side hottest key
// first and report lock waits, and the Chrome export must be valid
// stitched JSON.
func TestTraceContentionE2E(t *testing.T) {
	s, addr := startServer(t, Config{
		Index: "btree",
		Trace: &trace.Config{SampleEvery: 1, BufCap: 4096, TopK: 64},
	})

	cl, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Preload a dense population.
	const records = 1024
	for at := 0; at < records; at += 256 {
		var sub []wire.Request
		for i := at; i < at+256; i++ {
			sub = append(sub, wire.Put(uint64(i+1), uint64(i+1)))
		}
		if _, err := cl.Do(wire.Batch(sub...)); err != nil {
			t.Fatal(err)
		}
	}

	// Zipfian-skewed traffic, tracking the true hottest key client-side.
	zipf := workload.NewZipfian(records, 0.99)
	rng := workload.NewRNG(7)
	counts := make(map[uint64]uint64)
	for b := 0; b < 40; b++ {
		var sub []wire.Request
		for i := 0; i < 512; i++ {
			k := zipf.Next(rng) + 1
			counts[k]++
			if i%8 == 0 {
				sub = append(sub, wire.Put(k, k))
			} else {
				sub = append(sub, wire.Get(k))
			}
		}
		if _, err := cl.Do(wire.Batch(sub...)); err != nil {
			t.Fatal(err)
		}
	}
	var hottest, hotCount uint64
	for k, n := range counts {
		if n > hotCount || (n == hotCount && k < hottest) {
			hottest, hotCount = k, n
		}
	}

	// Scrape the live endpoint exactly as an operator would.
	var src obs.LiveSource
	s.AttachLive(&src)
	rr := httptest.NewRecorder()
	mux := obs.NewMux(&src)
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/contention", nil))
	var rep obs.ContentionReport
	if err := json.Unmarshal(rr.Body.Bytes(), &rep); err != nil {
		t.Fatalf("contention endpoint returned invalid JSON: %v\n%s", err, rr.Body.String())
	}

	if rep.SampleEvery != 1 {
		t.Fatalf("SampleEvery = %d, want 1", rep.SampleEvery)
	}
	if rep.Spans == 0 {
		t.Fatal("no spans recorded")
	}
	if len(rep.HotKeys) == 0 {
		t.Fatal("no hot keys reported")
	}
	if rep.HotKeys[0].Key != hottest {
		t.Fatalf("top hot key = %d (count %d), want client-side hottest %d (count %d)",
			rep.HotKeys[0].Key, rep.HotKeys[0].Count, hottest, hotCount)
	}
	// Every PUT's exclusive acquire is traced at SampleEvery=1 on its
	// connection's buffer, so the merged lock-wait histogram must have
	// samples.
	if rep.LockWait == nil || rep.LockWait.Count == 0 {
		t.Fatal("merged lock-wait histogram is empty")
	}

	// The Chrome export must parse and contain stitched request trees:
	// at least one decode span and one exec span sharing IDs.
	var cb []byte
	{
		w := &traceBuf{}
		if err := s.Tracer().WriteChrome(w); err != nil {
			t.Fatal(err)
		}
		cb = w.b
	}
	if !json.Valid(cb) {
		t.Fatalf("Chrome export is invalid JSON: %.200s", cb)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(cb, &doc); err != nil {
		t.Fatal(err)
	}
	spanIDs := make(map[string]map[float64]bool) // name -> span ids seen
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		id, ok := ev.Args["span"].(float64)
		if !ok || id == 0 {
			continue
		}
		if spanIDs[ev.Name] == nil {
			spanIDs[ev.Name] = make(map[float64]bool)
		}
		spanIDs[ev.Name][id] = true
	}
	if len(spanIDs["req.decode"]) == 0 {
		t.Fatal("no req.decode spans in Chrome export")
	}
	stitched := false
	for id := range spanIDs["req.exec"] {
		if spanIDs["req.decode"][id] {
			stitched = true
			break
		}
	}
	if !stitched {
		t.Fatal("no request stitched across decode and exec phases")
	}
}

// waitFor polls cond until true or the deadline, failing the test on
// timeout.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// traceBuf is a minimal io.Writer accumulating the Chrome export.
type traceBuf struct{ b []byte }

func (w *traceBuf) Write(p []byte) (int, error) { w.b = append(w.b, p...); return len(p), nil }

// TestTraceDisabledServer: with no Trace config the tracer accessors
// are nil/no-op and the contention endpoint reports disabled.
func TestTraceDisabledServer(t *testing.T) {
	s, addr := startServer(t, Config{Index: "btree"})
	cl, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Do(wire.Put(1, 1)); err != nil {
		t.Fatal(err)
	}
	if s.Tracer() != nil {
		t.Fatal("Tracer() non-nil without Trace config")
	}
	if s.Contention() != nil {
		t.Fatal("Contention() non-nil without Trace config")
	}
	var src obs.LiveSource
	s.AttachLive(&src)
	rr := httptest.NewRecorder()
	obs.NewMux(&src).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/contention", nil))
	var m map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if en, ok := m["enabled"].(bool); !ok || en {
		t.Fatalf("want {\"enabled\":false}, got %s", rr.Body.String())
	}
}

// TestConnBufRecycling: connection trace buffers must be recycled
// through the free list rather than growing the tracer's buffer set
// per connection.
func TestConnBufRecycling(t *testing.T) {
	s, addr := startServer(t, Config{
		Index: "btree",
		Trace: &trace.Config{SampleEvery: 1, BufCap: 64},
	})
	for i := 0; i < 8; i++ {
		cl, err := wire.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Do(wire.Put(uint64(i+1), 1)); err != nil {
			t.Fatal(err)
		}
		cl.Close()
		// Wait for the writer to return the buffer before the next dial.
		waitFor(t, func() bool {
			s.tbMu.Lock()
			free := len(s.tbFree)
			s.tbMu.Unlock()
			return free >= 1
		})
	}
	s.tbMu.Lock()
	free := len(s.tbFree)
	s.tbMu.Unlock()
	if free != 1 {
		t.Fatalf("free list holds %d buffers after serial connections, want 1", free)
	}
}
