package obs

import (
	"encoding/json"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func TestEventNamesUniqueAndStable(t *testing.T) {
	seen := map[string]Event{}
	for e := Event(0); e < NumEvents; e++ {
		name := e.Name()
		if name == "" || name == "unknown" {
			t.Fatalf("event %d has no name", e)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("events %d and %d share name %q", prev, e, name)
		}
		// Prometheus label values are free-form, but keep them
		// snake_case identifiers so downstream queries stay simple.
		for _, r := range name {
			if !(r == '_' || (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9')) {
				t.Fatalf("event name %q is not snake_case", name)
			}
		}
		seen[name] = e
	}
	if Event(200).Name() != "unknown" {
		t.Fatal("out-of-range event should name as unknown")
	}
	if got := EventNames(); len(got) != int(NumEvents) || got[0] != EvShAcquireFail.Name() {
		t.Fatalf("EventNames() = %v", got)
	}
}

func TestCountersNilSafe(t *testing.T) {
	var c *Counters
	c.Inc(EvOpRestart) // must not panic
	c.Add(EvOpRestart, 7)
	if c.Load(EvOpRestart) != 0 {
		t.Fatal("nil counters loaded non-zero")
	}
	var r *Registry
	if r.NewCounters() != nil {
		t.Fatal("nil registry handed out a live counter set")
	}
	if s := r.Snapshot(); s.Total() != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestCountersPadding(t *testing.T) {
	// Each worker's set must occupy a whole number of cache lines so
	// adjacent sets never false-share.
	if sz := unsafe.Sizeof(Counters{}); sz%cacheLine != 0 {
		t.Fatalf("Counters size %d not a cache-line multiple", sz)
	}
}

func TestRegistrySnapshotMerges(t *testing.T) {
	r := NewRegistry()
	a, b := r.NewCounters(), r.NewCounters()
	a.Inc(EvOpRestart)
	a.Add(EvOpRestart, 2)
	b.Inc(EvBTreeSplit)
	b.Add(EvExHandover, 5)
	s := r.Snapshot()
	if got := s.Get(EvOpRestart); got != 3 {
		t.Fatalf("op_restart = %d, want 3", got)
	}
	if got := s.Get(EvBTreeSplit); got != 1 {
		t.Fatalf("btree_split = %d, want 1", got)
	}
	if got := s.Get(EvExHandover); got != 5 {
		t.Fatalf("ex_acquire_handover = %d, want 5", got)
	}
	if s.Total() != 9 {
		t.Fatalf("total = %d, want 9", s.Total())
	}
	m := s.Map()
	if len(m) != int(NumEvents) {
		t.Fatalf("map has %d keys, want %d (zero counts must appear)", len(m), NumEvents)
	}
	if m["op_restart"] != 3 {
		t.Fatalf("map[op_restart] = %d", m["op_restart"])
	}
	var merged Snapshot
	merged.Merge(s)
	merged.Merge(s)
	if merged.Total() != 18 {
		t.Fatalf("merged total = %d, want 18", merged.Total())
	}
}

// TestRegistryRetireKeepsCounts: retiring a set leaves every snapshot
// count where it was and drops the set; a second retire of the same
// set counts nothing twice.
func TestRegistryRetireKeepsCounts(t *testing.T) {
	r := NewRegistry()
	a, b := r.NewCounters(), r.NewCounters()
	a.Add(EvExFree, 3)
	b.Add(EvExFree, 4)
	b.Inc(EvOpRestart)
	before := r.Snapshot()
	r.Retire(b)
	if got := r.Snapshot(); got != before {
		t.Fatalf("retire changed the snapshot: total %d, want %d", got.Total(), before.Total())
	}
	if r.Len() != 1 || slices.Contains(r.sets, b) {
		t.Fatalf("retired set still registered (%d sets)", r.Len())
	}
	r.Retire(b)
	a.Inc(EvExFree)
	if got := r.Snapshot().Get(EvExFree); got != 8 {
		t.Fatalf("ex_acquire_free = %d, want 8", got)
	}
	var nilReg *Registry
	nilReg.Retire(a)
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.NewCounters()
			for i := 0; i < per; i++ {
				c.Inc(EvShValidateFail)
			}
			r.Retire(c)
		}()
	}
	// Concurrent snapshots must be safe and monotonic, retires included.
	done := make(chan struct{})
	go func() {
		defer close(done)
		var last uint64
		for i := 0; i < 100; i++ {
			n := r.Snapshot().Get(EvShValidateFail)
			if n < last {
				t.Errorf("snapshot went backwards: %d -> %d", last, n)
				return
			}
			last = n
		}
	}()
	wg.Wait()
	<-done
	if got := r.Snapshot().Get(EvShValidateFail); got != workers*per {
		t.Fatalf("final count %d, want %d", got, workers*per)
	}
	if n := r.Len(); n != 0 {
		t.Fatalf("%d sets still registered after every worker retired", n)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	rep := Report{
		Tool:           "indexbench",
		Host:           CurrentHost(),
		ElapsedSeconds: 1.5,
		Ops:            3_000_000,
		Mops:           2.0,
		Counters:       Snapshot{}.Map(),
		Timeline: &TimelineReport{
			IntervalSeconds: 0.1,
			OpsPerInterval:  []uint64{100, 120, 90},
			MopsMin:         0.9, MopsAvg: 1.03, MopsStddev: 0.12,
		},
		Latency: &LatencyReport{
			Count: 10, MinNs: 100, MaxNs: 900, MeanNs: 300,
			Percentiles: map[string]uint64{"50%": 250},
			Buckets:     []BucketReport{{UpperNs: 255, Count: 10}},
		},
		Extra: map[string]any{"expansions": 3},
	}
	var sb strings.Builder
	if err := rep.Encode(&sb); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal([]byte(sb.String()), &back); err != nil {
		t.Fatal(err)
	}
	if back.Tool != rep.Tool || back.Ops != rep.Ops || back.Mops != rep.Mops {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	if back.Timeline == nil || len(back.Timeline.OpsPerInterval) != 3 {
		t.Fatalf("timeline lost: %+v", back.Timeline)
	}
	if back.Latency == nil || back.Latency.Percentiles["50%"] != 250 {
		t.Fatalf("latency lost: %+v", back.Latency)
	}
	if len(back.Counters) != int(NumEvents) {
		t.Fatalf("counters lost: %d keys", len(back.Counters))
	}
}
