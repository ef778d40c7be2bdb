package obs

import (
	"encoding/json"
	"io"
	"os"
	"runtime"
	"time"
)

// Report is the machine-readable result of one benchmark or stress
// run: configuration, throughput, merged event counters, the
// per-interval throughput timeline and latency percentiles. The cmd
// front-ends emit it with -json so perf trajectories (BENCH_*.json)
// and Figure-9-style robustness plots can accumulate across runs.
type Report struct {
	// Tool identifies the producing command ("indexbench",
	// "microbench", "stress").
	Tool string `json:"tool"`
	// Timestamp is the wall-clock time the report was produced.
	Timestamp time.Time `json:"timestamp"`
	// Host captures the runtime environment of the run.
	Host HostInfo `json:"host"`
	// Config echoes the run configuration (tool-specific shape).
	Config any `json:"config,omitempty"`
	// ElapsedSeconds is the measured duration.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// Ops is the number of completed operations.
	Ops uint64 `json:"ops"`
	// Mops is throughput in million operations per second.
	Mops float64 `json:"mops"`
	// Counters is the merged event-counter snapshot keyed by event
	// name (absent when counting was disabled for the run).
	Counters map[string]uint64 `json:"counters,omitempty"`
	// Timeline is the per-interval throughput series (absent when
	// sampling was disabled).
	Timeline *TimelineReport `json:"timeline,omitempty"`
	// Latency is the sampled latency distribution (absent unless the
	// run collected latencies).
	Latency *LatencyReport `json:"latency,omitempty"`
	// LockWait, HotKeys and HotNodes are the contention profiler's
	// sections (absent unless the run traced; see AttachContention and
	// internal/obs/trace).
	LockWait *LatencyReport `json:"lock_wait,omitempty"`
	HotKeys  []HotKeyReport `json:"hot_keys,omitempty"`
	HotNodes []HotKeyReport `json:"hot_nodes,omitempty"`
	// WAL is the durability section (absent unless the serving side ran
	// with a write-ahead log; see internal/wal).
	WAL *WALReport `json:"wal,omitempty"`
	// Extra carries tool-specific results (per-op counts, read success
	// rates, expansions, ...).
	Extra map[string]any `json:"extra,omitempty"`
}

// HostInfo records the runtime environment a report was produced on.
type HostInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// CurrentHost captures this process's runtime environment.
func CurrentHost() HostInfo {
	return HostInfo{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// TimelineReport serializes a per-interval throughput timeline: the
// instrument behind Figure 9's robustness-over-time plots. Window
// stats summarize the series so a collapse (high stddev, low min) is
// visible without replotting.
type TimelineReport struct {
	IntervalSeconds float64 `json:"interval_seconds"`
	// OpsPerInterval is the completed-operation count per elapsed
	// interval, in order.
	OpsPerInterval []uint64 `json:"ops_per_interval"`
	MopsMin        float64  `json:"mops_min"`
	MopsAvg        float64  `json:"mops_avg"`
	MopsStddev     float64  `json:"mops_stddev"`
}

// LatencyReport serializes a latency histogram as the paper's Figure
// 12 percentile columns plus the non-empty buckets, enough to re-plot
// the distribution.
type LatencyReport struct {
	Count  uint64  `json:"count"`
	MinNs  uint64  `json:"min_ns"`
	MaxNs  uint64  `json:"max_ns"`
	MeanNs float64 `json:"mean_ns"`
	// Percentiles maps Figure 12's column labels ("50%", "99.9%", ...)
	// to nanosecond values.
	Percentiles map[string]uint64 `json:"percentiles"`
	// Buckets is the raw distribution: per non-empty bucket, its
	// representative upper bound and count.
	Buckets []BucketReport `json:"buckets,omitempty"`
}

// BucketReport is one non-empty histogram bucket.
type BucketReport struct {
	UpperNs uint64 `json:"upper_ns"`
	Count   uint64 `json:"count"`
}

// Encode writes the report as indented JSON.
func (r *Report) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the report to path; "-" means stdout.
func (r *Report) WriteFile(path string) error {
	if path == "-" {
		return r.Encode(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
