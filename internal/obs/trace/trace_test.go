package trace

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"optiql/internal/workload"
)

func TestSamplingRate(t *testing.T) {
	tr := New(Config{SampleEvery: 4})
	b := tr.NewBuf(0)
	hits := 0
	for i := 0; i < 4096; i++ {
		if b.Sample() {
			hits++
		}
	}
	if hits != 1024 {
		t.Fatalf("SampleEvery=4: got %d hits in 4096 draws, want 1024", hits)
	}
	// SampleEvery 1 records every decision.
	b1 := New(Config{SampleEvery: 1}).NewBuf(0)
	for i := 0; i < 100; i++ {
		if !b1.Sample() {
			t.Fatal("SampleEvery=1 must always sample")
		}
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.SampleEvery() != 0 {
		t.Fatal("nil tracer SampleEvery")
	}
	b := tr.NewBuf(0) // nil
	if b != nil {
		t.Fatal("nil tracer must hand out nil bufs")
	}
	if b.Sample() {
		t.Fatal("nil buf sampled true")
	}
	if b.Now() != 0 {
		t.Fatal("nil buf clock moved")
	}
	// All recording paths must be no-ops, not panics.
	b.Record(KindLockWait, 0, 0, 0, 0, 0)
	b.Event(KindOpRestart, 0, 1)
	b.LockWait(0, 10, FlagHandover, 7)
	b.NoteKey(1)
	b.NoteNode(1)
	if s := tr.Snapshot(); s != nil {
		t.Fatal("nil tracer snapshot not nil")
	}
	if sp := tr.Spans(); sp != nil {
		t.Fatal("nil tracer spans not nil")
	}
	if err := tr.WriteChrome(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestRingOverwrite(t *testing.T) {
	tr := New(Config{BufCap: 8, SampleEvery: 1})
	b := tr.NewBuf(0)
	for i := 0; i < 20; i++ {
		b.Record(KindTreeOp, 0, int64(i), 1, 0, uint64(i))
	}
	snap := tr.Snapshot()
	if snap.Recorded != 20 {
		t.Fatalf("Recorded = %d, want 20", snap.Recorded)
	}
	if snap.Dropped != 12 {
		t.Fatalf("Dropped = %d, want 12", snap.Dropped)
	}
	spans := tr.Spans()
	if len(spans) != 8 {
		t.Fatalf("retained %d spans, want 8", len(spans))
	}
	for i, s := range spans {
		if want := uint64(12 + i); s.Key != want {
			t.Fatalf("span %d: key %d, want %d (most recent 8, oldest first)", i, s.Key, want)
		}
	}
}

// TestLockWaitHistogramAndShards: every buffer's lock waits merge
// into one histogram, and their lock identities into one hot-node
// sketch; there is no per-shard breakdown.
func TestLockWaitHistogramAndShards(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	b0 := tr.NewBuf(0)
	b1 := tr.NewBuf(1)
	for i := 0; i < 100; i++ {
		b0.LockWait(0, 1000, 0, 0xA)
		b1.LockWait(0, 2000, FlagHandover, 0xB)
	}
	b1.LockWait(0, 5000, 0, 0xC)
	snap := tr.Snapshot()
	if got := snap.Wait.Count(); got != 201 {
		t.Fatalf("merged wait count = %d, want 201", got)
	}
	if len(snap.Nodes) != 3 {
		t.Fatalf("hot nodes = %+v, want 0xA, 0xB and 0xC", snap.Nodes)
	}
	top := snap.Nodes[0]
	if top.Key != 0xA && top.Key != 0xB {
		t.Fatalf("hot node = %#x, want 0xA or 0xB", top.Key)
	}
}

// TestNoteKeySharding: keys offered from any buffer land in the one
// hot-key sketch, hottest first.
func TestNoteKeySharding(t *testing.T) {
	tr := New(Config{SampleEvery: 1, TopK: 4})
	b := tr.NewBuf(0)
	rd := tr.NewBuf(1)
	b.NoteKey(10)
	b.NoteKey(20)
	rd.NoteKey(20)
	rd.NoteKey(30)
	snap := tr.Snapshot()
	if len(snap.Keys) != 3 || snap.Keys[0] != (HotItem{Key: 20, Count: 2}) {
		t.Fatalf("keys = %+v, want 20 (count 2) first, then 10 and 30", snap.Keys)
	}
}

// TestTopKZipfian plants the acceptance-criteria scenario: under a
// theta=0.99 Zipfian stream the sketch must rank the true hottest key
// first, within the space-saving error bound.
func TestTopKZipfian(t *testing.T) {
	tr := New(Config{SampleEvery: 1, TopK: 64, DecayEvery: -1})
	b := tr.NewBuf(0)
	const n = 1024
	const draws = 40000
	z := workload.NewZipfian(n, 0.99)
	rng := workload.NewRNG(42)
	truth := make(map[uint64]uint64)
	for i := 0; i < draws; i++ {
		k := workload.Dense.Key(z.Next(rng))
		truth[k]++
		b.NoteKey(k)
	}
	var hotKey, hotCount uint64
	for k, c := range truth {
		if c > hotCount {
			hotKey, hotCount = k, c
		}
	}
	snap := tr.Snapshot()
	if len(snap.Keys) == 0 {
		t.Fatal("empty top-K")
	}
	if snap.Keys[0].Key != hotKey {
		t.Fatalf("top key = %d (count %d), want planted hot key %d (true count %d)",
			snap.Keys[0].Key, snap.Keys[0].Count, hotKey, hotCount)
	}
	// Space-saving overestimates by at most Err.
	got := snap.Keys[0]
	if got.Count < hotCount || got.Count-got.Err > hotCount {
		t.Fatalf("count %d (err %d) outside bound around true %d", got.Count, got.Err, hotCount)
	}
}

func TestSketchDecay(t *testing.T) {
	tr := New(Config{SampleEvery: 1, TopK: 8, DecayEvery: 64})
	b := tr.NewBuf(0)
	// Old regime: key 1 dominates.
	for i := 0; i < 64; i++ {
		b.NoteKey(1)
	}
	// Shifted regime: key 2 dominates from now on.
	for i := 0; i < 512; i++ {
		b.NoteKey(2)
	}
	snap := tr.Snapshot()
	if snap.Keys[0].Key != 2 {
		t.Fatalf("after workload shift, top key = %d, want 2 (decay must let the hot set move)", snap.Keys[0].Key)
	}
}

func TestChromeExport(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	b := tr.NewBuf(3)
	b.LockWait(100, 500, FlagHandover, 0xFEED)
	b.Record(KindReqExec, 0, 700, 200, 42, 7)
	rd := tr.NewBuf(9)
	rd.Event(KindCliRetry, 0, 0)
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("chrome export is not valid JSON:\n%s", buf.String())
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var wait, stitched, meta bool
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "process_name":
			meta = true
		case ev.Name == KindLockWait.Name() && ev.Tid == 3:
			wait = true
		case ev.Name == KindReqExec.Name():
			if _, ok := ev.Args["span"]; ok {
				stitched = true
			}
		}
	}
	if !meta || !wait || !stitched {
		t.Fatalf("missing events: meta=%v wait=%v stitched=%v in\n%s", meta, wait, stitched, buf.String())
	}
}

// TestConcurrentSnapshot drives recorders and snapshotters in parallel
// so the CI -race run covers the scrape-while-recording paths.
func TestConcurrentSnapshot(t *testing.T) {
	tr := New(Config{SampleEvery: 1, BufCap: 64})
	var recorders sync.WaitGroup
	for w := 0; w < 4; w++ {
		recorders.Add(1)
		go func(w int) {
			defer recorders.Done()
			b := tr.NewBuf(w)
			for i := 0; i < 5000; i++ {
				if b.Sample() {
					t0 := b.Now()
					b.LockWait(t0, b.Now()-t0, 0, uint64(w))
					b.NoteKey(uint64(i % 17))
					b.Event(KindOpRestart, 0, uint64(i))
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	scraper := make(chan struct{})
	go func() {
		defer close(scraper)
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := tr.Snapshot()
			if snap.Recorded < snap.Dropped {
				t.Error("recorded < dropped")
				return
			}
			_ = tr.Spans()
		}
	}()
	recorders.Wait()
	close(stop)
	<-scraper
	snap := tr.Snapshot()
	if snap.Recorded == 0 {
		t.Fatal("nothing recorded")
	}
	if snap.Wait.Count() == 0 {
		t.Fatal("empty wait histogram")
	}
}

func TestAllocFreeHotPath(t *testing.T) {
	tr := New(Config{SampleEvery: 1, TopK: 16})
	b := tr.NewBuf(0)
	var k uint64
	allocs := testing.AllocsPerRun(2000, func() {
		k++
		if b.Sample() {
			t0 := b.Now()
			b.LockWait(t0, b.Now()-t0, FlagHandover, k&0xFF)
			b.Record(KindTreeOp, 0, t0, 1, 0, k)
			b.NoteKey(k & 0x3F)
			b.Event(KindOpRestart, 0, k)
		}
	})
	if allocs != 0 {
		t.Fatalf("trace hot path allocates: %v allocs/op", allocs)
	}
}

func TestCeilPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 4: 4, 1000: 1024, 1024: 1024}
	for in, want := range cases {
		if got := ceilPow2(in); got != want {
			t.Fatalf("ceilPow2(%d) = %d, want %d", in, got, want)
		}
	}
}
