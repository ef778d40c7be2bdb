package main

import (
	"encoding/json"
	"os"
	"slices"
	"time"
)

// clockBase anchors the monotonic clock every span and latency uses;
// now costs one vDSO call.
var clockBase = time.Now()

func now() int64 { return int64(time.Since(clockBase)) }

// Span names, recorded at the harness's own call sites.
const (
	spOp       = iota // embedded: one sampled operation (parent)
	spRingRead        // embedded: read and decode the ring entry
	spLookup          // embedded: index calls by kind
	spUpdate
	spInsert
	spDelete
	spScan
	spRequest // served: one sampled request, from its due time (parent)
	spSched   // served: due time until encoding starts (generator lateness)
	spEncode  // served: wire.AppendRequest
	spFlush   // served: until the write syscall returned
	spWait    // served: until the response frame was read
	spDecode  // served: wire.ParseResponse and the answer check
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "ring_read", "lookup", "update", "insert", "delete", "scan16",
	"request", "sched", "encode", "flush", "wait", "decode",
}

// span is one recorded interval. parent indexes the same recorder's
// spans (-1 for a root); spans of one request share req.
type span struct {
	start, end int64
	req        uint64
	parent     int32
	name       uint8
}

// recorder is a fixed-capacity in-memory span buffer owned by one
// goroutine; nothing is written out until the round has ended. A nil
// recorder means tracing is off.
type recorder struct {
	spans   []span
	dropped int
}

func newRecorder(capacity int) *recorder {
	return &recorder{spans: make([]span, 0, capacity)}
}

// add records one span and returns its index for use as a parent, or
// -1 when the buffer is full.
func (r *recorder) add(name uint8, start, end int64, parent int32, req uint64) int32 {
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		return -1
	}
	r.spans = append(r.spans, span{start: start, end: end, req: req, parent: parent, name: name})
	return int32(len(r.spans) - 1)
}

// room reports whether n more spans fit, so a request's spans are
// recorded all or nothing.
func (r *recorder) room(n int) bool { return len(r.spans)+n <= cap(r.spans) }

// selfTimes returns each span's duration minus the part of it that its
// child spans cover. Children of one parent recorded here never
// overlap each other, so covered time is the sum of their clipped
// durations.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
	}
	for _, s := range spans {
		if s.parent < 0 {
			continue
		}
		p := spans[s.parent]
		if covered := min(s.end, p.end) - max(s.start, p.start); covered > 0 {
			self[s.parent] -= covered
		}
	}
	return self
}

// durationsByName groups span durations (ns) by span name, ascending.
func durationsByName(recs []*recorder) [numSpanNames][]int64 {
	var out [numSpanNames][]int64
	for _, r := range recs {
		for _, s := range r.spans {
			out[s.name] = append(out[s.name], s.end-s.start)
		}
	}
	for i := range out {
		slices.Sort(out[i])
	}
	return out
}

// traceFileSpans caps the spans written per worker; the statistics use
// every recorded span.
const traceFileSpans = 8192

type traceSpan struct {
	Name   string `json:"name"`
	Worker int    `json:"worker"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
	Parent int32  `json:"parent"`
	Req    uint64 `json:"req"`
}

type traceFile struct {
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Recorded int         `json:"spans_recorded"`
	Dropped  int         `json:"spans_dropped"`
	Note     string      `json:"note"`
	Spans    []traceSpan `json:"spans"`
}

// writeTrace writes the first spans of every worker, parents before
// children, with indices local to the worker.
func writeTrace(path, workload string, seed uint64, recs []*recorder) error {
	tf := traceFile{Workload: workload, Seed: seed,
		Note: "start/end are ns on the harness clock; parent indexes the same worker's spans in file order (-1 = root)"}
	for w, r := range recs {
		tf.Recorded += len(r.spans)
		tf.Dropped += r.dropped
		n := min(len(r.spans), traceFileSpans)
		self := selfTimes(r.spans[:n])
		for i, s := range r.spans[:n] {
			tf.Spans = append(tf.Spans, traceSpan{
				Name: spanNames[s.name], Worker: w, Start: s.start, End: s.end,
				Self: self[i], Parent: s.parent, Req: s.req,
			})
		}
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
