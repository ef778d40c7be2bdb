package obs

import (
	"optiql/internal/hist"
	"optiql/internal/obs/trace"
)

// HotKeyReport is one hot-key (or hot-node) ranking entry from the
// space-saving sketch: an approximate count plus its maximum
// overestimate, so consumers can judge whether a rank is trustworthy
// (Count - Err is a guaranteed lower bound on the true frequency).
type HotKeyReport struct {
	Key   uint64 `json:"key"`
	Count uint64 `json:"count"`
	Err   uint64 `json:"overestimate,omitempty"`
}

// ContentionReport is the JSON shape of /debug/contention and of the
// LockWait/HotKeys sections in run reports: where lock time
// goes and which keys/nodes it goes to, from the sampled trace layer.
type ContentionReport struct {
	// SampleEvery is the sampling interval: every count below
	// represents roughly SampleEvery occurrences.
	SampleEvery int `json:"sample_every"`
	// Spans counts trace spans ever recorded; Dropped counts those
	// since overwritten by ring wraparound (histograms and sketches
	// are not affected by overwrite — they fold in every sample).
	Spans   uint64 `json:"spans_recorded"`
	Dropped uint64 `json:"spans_dropped,omitempty"`
	// LockWait merges every worker's exclusive-wait distribution.
	LockWait *LatencyReport `json:"lock_wait,omitempty"`
	// HotKeys ranks keys; HotNodes ranks lock/node identities (opaque
	// but stable within a run — equal values are the same tree node).
	HotKeys  []HotKeyReport `json:"hot_keys,omitempty"`
	HotNodes []HotKeyReport `json:"hot_nodes,omitempty"`
}

// LatencyReportFrom converts a histogram into the report schema (nil
// for empty histograms). Shared by the bench result reports, cmd/latency
// and the contention layer so every tool emits one latency shape.
func LatencyReportFrom(h *hist.Histogram) *LatencyReport {
	if h == nil || h.Count() == 0 {
		return nil
	}
	pcts := make(map[string]uint64, len(hist.StandardPercentiles))
	snap := h.Snapshot()
	for i, label := range hist.PercentileLabels {
		pcts[label] = snap[i]
	}
	var buckets []BucketReport
	for _, b := range h.Buckets() {
		buckets = append(buckets, BucketReport{UpperNs: b.Upper, Count: b.Count})
	}
	return &LatencyReport{
		Count:       h.Count(),
		MinNs:       h.Min(),
		MaxNs:       h.Max(),
		MeanNs:      h.Mean(),
		Percentiles: pcts,
		Buckets:     buckets,
	}
}

func hotKeyReports(items []trace.HotItem) []HotKeyReport {
	if len(items) == 0 {
		return nil
	}
	out := make([]HotKeyReport, len(items))
	for i, it := range items {
		out[i] = HotKeyReport{Key: it.Key, Count: it.Count, Err: it.Err}
	}
	return out
}

// ContentionFrom snapshots a tracer into the report shape. Nil tracer
// means tracing is off: the report is nil.
func ContentionFrom(t *trace.Tracer) *ContentionReport {
	if t == nil {
		return nil
	}
	s := t.Snapshot()
	return &ContentionReport{
		SampleEvery: s.SampleEvery,
		Spans:       s.Recorded,
		Dropped:     s.Dropped,
		LockWait:    LatencyReportFrom(&s.Wait),
		HotKeys:     hotKeyReports(s.Keys),
		HotNodes:    hotKeyReports(s.Nodes),
	}
}

// AttachContention fills the report's contention sections from cr
// (no-op when cr is nil, i.e. tracing was off).
func (r *Report) AttachContention(cr *ContentionReport) {
	if cr == nil {
		return
	}
	r.LockWait = cr.LockWait
	r.HotKeys = cr.HotKeys
	r.HotNodes = cr.HotNodes
}
