package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"optiql/internal/locks"
	"optiql/internal/server/wire"
)

func testEnv(t *testing.T) *env {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(runCleanups)
	return &env{root: root, scratch: t.TempDir(), outDir: t.TempDir()}
}

func smokeParams() params {
	return params{seed: 1, seconds: 1, setups: 1, ringLen: 1 << 16, smoke: true, workers: 2, ladderScale: 0.05}
}

// TestSmoke runs both passes of every workload at smoke size and
// checks that every catalogued metric is reported with its unit, or,
// for a per-layer metric, listed as absent with a reason.
func TestSmoke(t *testing.T) {
	e := testEnv(t)
	p := smokeParams()
	ladder := newResult(&spec{name: "ladder"}, p.seed)
	runLadder(e, ladder, p)
	for i := range specs {
		s := &specs[i]
		t.Run(s.name, func(t *testing.T) {
			res, err := runOne(e, s, p, false)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("untraced: correct=%v attempted=%d failed=%d checks=%v", res.Correct, res.Attempted, res.Failed, res.Checks)
			}
			for _, d := range endToEnd {
				m, ok := res.EndToEnd[d.name]
				if !ok || m.Unit != d.unit || !(m.Value > 0) || m.N == 0 {
					t.Errorf("end-to-end %s: got %+v (present=%v), want unit %s, a positive value and a sample count", d.name, m, ok, d.unit)
				}
			}
			if _, err := driverJSON(res, false); err != nil {
				t.Error(err)
			}

			res, err = runOne(e, s, p, true)
			if err != nil {
				t.Fatal(err)
			}
			res.merge(ladder)
			if !res.Correct {
				t.Fatalf("traced: checks=%v", res.Checks)
			}
			for _, d := range commonLayer {
				if m, ok := res.Layer[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("per-layer %s: got %+v (present=%v, absent=%q), want unit %s", d.name, m, ok, res.Absent[d.name], d.unit)
				}
			}
			for _, d := range workloadLayer {
				m, ok := res.Layer[d.name]
				if why := res.Absent[d.name]; ok == (why != "") || ok && m.Unit != d.unit {
					t.Errorf("per-layer %s: reported=%v unit=%q absent=%q; want exactly one of reported or absent", d.name, ok, m.Unit, why)
				}
			}
			if _, err := os.Stat(e.tracePath(s.name)); err != nil {
				t.Errorf("trace file: %v", err)
			}
			if res.Budget == nil {
				t.Error("traced pass produced no budget line-up")
			}
			// Metrics of layers a workload does not touch stay away.
			_, hasWAL := res.Layer["wal.fsync_p50_us"]
			if hasWAL != s.wal {
				t.Errorf("wal.fsync_p50_us reported=%v on a workload with wal=%v", hasWAL, s.wal)
			}
		})
	}
}

// TestManifest keeps BENCHMARK.json and the harness's catalogue equal.
func TestManifest(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the harness %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, commonLayer)
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(doc.Workloads), len(specs))
	}
	for i, s := range specs {
		if doc.Workloads[i].Name != s.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the harness %q", i, doc.Workloads[i].Name, s.name)
		}
	}
}

// TestPlantedWrongValue proves the embedded checks can fail: one value
// that does not belong to its key must be caught by the answer check
// and by the full scan.
func TestPlantedWrongValue(t *testing.T) {
	e := testEnv(t)
	res := runEmbedded(e, specByName("embed-btree-read"), smokeParams(), false, func(idx index, c *locks.Ctx) {
		if !idx.Update(c, 777, 778) {
			t.Error("plant: key 777 missing")
		}
	})
	if res.Correct || res.Failed == 0 {
		t.Fatalf("planted value went unnoticed: correct=%v failed=%d checks=%v", res.Correct, res.Failed, res.Checks)
	}
	if m := res.EndToEnd["ok_frac"]; !(m.Value < 1) {
		t.Errorf("ok_frac = %v with %d failed answers", m.Value, res.Failed)
	}
}

// TestConnStateCheck proves the served answer checks can fail.
func TestConnStateCheck(t *testing.T) {
	durable := specByName("served-durable-write")
	st := newConnState(durable, 0, 2, 100) // owns the odd keys
	get, put := wire.Get(3), wire.Put(3, 3^st.tag)
	cases := []struct {
		name string
		req  *wire.Request
		resp wire.Response
		bad  bool
	}{
		{"preloaded value", &get, wire.Response{Status: wire.StatusOK, Value: 3}, false},
		{"value of another key", &get, wire.Response{Status: wire.StatusOK, Value: 4}, true},
		{"shed", &get, wire.Response{Status: wire.StatusOverloaded}, true},
		{"error", &get, wire.Response{Status: wire.StatusErr}, true},
		{"own key lost", &get, wire.Response{Status: wire.StatusNotFound}, true},
		{"put of a present key reported as insert", &put, wire.Response{Status: wire.StatusOK, Inserted: true}, true},
		{"put", &put, wire.Response{Status: wire.StatusOK}, false},
		{"stale read after own put", &get, wire.Response{Status: wire.StatusOK, Value: 3}, true},
		{"read own put", &get, wire.Response{Status: wire.StatusOK, Value: 3 ^ st.tag}, false},
	}
	for _, c := range cases {
		if got := st.check(c.req, &c.resp); got != c.bad {
			t.Errorf("%s: failed=%v, want %v", c.name, got, c.bad)
		}
	}
	if st.attempted != uint64(len(cases)) || st.failed != 6 || st.shed != 1 {
		t.Errorf("attempted=%d failed=%d shed=%d, want %d, 6, 1", st.attempted, st.failed, st.shed, len(cases))
	}
	scan := wire.Scan(10, scanLen)
	unordered := wire.Response{Status: wire.StatusOK, Pairs: []wire.KV{{Key: 11, Value: 11}, {Key: 11, Value: 11}}}
	if !st.check(&scan, &unordered) {
		t.Error("a scan that repeats a key passed")
	}
}

// fakeServer answers GETs on one end of a synchronous pipe and stops
// reading for `stall` after `after` requests. A pipe has no buffer, so
// while the server stalls the generator's write blocks.
func fakeServer(t *testing.T, nc net.Conn, after int, stall time.Duration) {
	br := bufio.NewReader(nc)
	var in, out []byte
	for n := 0; ; n++ {
		payload, err := wire.ReadFrame(br, &in)
		if err != nil {
			return
		}
		req, err := wire.ParseRequest(payload)
		if err != nil {
			t.Error(err)
			return
		}
		if n == after {
			time.Sleep(stall)
		}
		out, _ = wire.AppendResponse(out[:0], &req, &wire.Response{Status: wire.StatusOK, Value: req.Key})
		if _, err := nc.Write(out); err != nil {
			return
		}
	}
}

// openLoopAgainst runs one open-loop round of GETs at 1000 req/s for
// half a second and returns the sorted latencies and lateness in ns.
func openLoopAgainst(t *testing.T, stall time.Duration) (lat, late []uint32, round openRound) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go fakeServer(t, server, 100, stall)

	s := &spec{name: "fake", mix: pct(100, 0, 0, 0, 0)}
	ring := genRing(s, uniform{1000}, 1000, 1<<10, 1, 0, 1)
	l := newLoadConn(&conn{nc: client, br: bufio.NewReader(client), out: make([]byte, 0, 4096)}, newConnState(s, 0, 1, 1000), ring)
	start := now() + int64(time.Millisecond)
	round = l.openLoop(start, start+int64(500*time.Millisecond), 1e6)
	if l.err != nil {
		t.Fatal(l.err)
	}
	if l.st.failed != 0 {
		t.Fatalf("%d answers failed", l.st.failed)
	}
	slices.Sort(l.lat.ns)
	slices.Sort(l.late)
	return l.lat.ns, l.late, round
}

// TestOpenLoopTimedFromDue: a server that stalls for 100 ms delays
// every request that fell due during the stall, not only the one in
// flight, and the generator reports that it ran late.
func TestOpenLoopTimedFromDue(t *testing.T) {
	const ms = uint32(time.Millisecond)
	over := func(sorted []uint32, limit uint32) int {
		i, _ := slices.BinarySearch(sorted, limit)
		return len(sorted) - i
	}
	lat, late, round := openLoopAgainst(t, 0)
	if round.scheduled != 500 || round.answered != 500 {
		t.Fatalf("no stall: scheduled %d answered %d, want 500", round.scheduled, round.answered)
	}
	if p99 := percentile(lat, 0.99); p99 > 30*ms {
		t.Errorf("no stall: p99 %d us", p99/1000)
	}
	baseLate := percentile(late, 0.99)

	lat, late, round = openLoopAgainst(t, 100*time.Millisecond)
	if round.scheduled != 500 || round.answered != 500 {
		t.Fatalf("stall: scheduled %d answered %d, want 500", round.scheduled, round.answered)
	}
	// About 50 requests fell due in the first half of the stall and
	// waited 50 ms or more; timing from the send would find one.
	if n := over(lat, 50*ms); n < 30 {
		t.Errorf("stall: %d latencies over 50 ms, want at least 30", n)
	}
	if p99 := percentile(lat, 0.99); p99 < 80*ms {
		t.Errorf("stall: p99 %d us, want at least 80 ms", p99/1000)
	}
	if p99 := percentile(late, 0.99); p99 < 50*ms || p99 <= baseLate {
		t.Errorf("stall: lateness p99 %d us (no stall: %d us), want at least 50 ms", p99/1000, baseLate/1000)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1},   // 0: root, children cover 20+30+10
		{start: 10, end: 30, parent: 0},    // 1: leaf
		{start: 50, end: 80, parent: 0},    // 2: has a child of 25
		{start: 55, end: 80, parent: 2},    // 3: leaf
		{start: 90, end: 120, parent: 0},   // 4: runs past its parent; only 10 of it covers the root
		{start: 200, end: 260, parent: -1}, // 5: second root without children
	}
	want := []int64{40, 20, 5, 25, 30, 60}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// TestIQRShare pins the spread measure to Python's
// statistics.quantiles(values, n=4): for 1..10 the quartiles are 2.75
// and 8.25 and the median 5.5.
func TestIQRShare(t *testing.T) {
	vs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got := iqrShare(vs); got != 1 {
		t.Errorf("iqrShare(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestGenRing(t *testing.T) {
	s := specByName("served-durable-write")
	d := newDist(s, 1000)
	a := genRing(s, d, 1000, 1<<12, 42, 1, 2)
	if !slices.Equal(a, genRing(s, d, 1000, 1<<12, 42, 1, 2)) {
		t.Error("the same seed gave another ring")
	}
	if slices.Equal(a, genRing(s, d, 1000, 1<<12, 43, 1, 2)) {
		t.Error("another seed gave the same ring")
	}
	var kinds [numOps]int
	for _, e := range a {
		op, k := int(e>>opShift), e&keyMask
		kinds[op]++
		if k < 1 || k > 1000 {
			t.Fatalf("key %d outside 1..1000", k)
		}
		if op != opLookup && (k-1)%2 != 1 {
			t.Fatalf("write key %d is not on worker 1's stripe", k)
		}
	}
	for op := 0; op < numOps; op++ {
		if got, want := float64(kinds[op])/float64(len(a)), float64(s.share(op))/100; got < want-0.03 || got > want+0.03 {
			t.Errorf("op kind %d: share %.3f, want %.2f", op, got, want)
		}
	}
}
