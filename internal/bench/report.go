package bench

import (
	"time"

	"optiql/internal/obs"
)

// Report converts an index run into the machine-readable run report
// emitted by the cmd front-ends' -json flag.
func (r IndexResult) Report(tool string) *obs.Report {
	rep := &obs.Report{
		Tool:           tool,
		Timestamp:      time.Now(),
		Host:           obs.CurrentHost(),
		Config:         r.Config,
		ElapsedSeconds: r.Elapsed.Seconds(),
		Ops:            r.Ops,
		Mops:           r.Mops(),
		Timeline:       r.Timeline.Report(),
		Latency:        obs.LatencyReportFrom(r.Hist),
		Extra: map[string]any{
			"per_op":      r.PerOp,
			"per_op_miss": r.PerOpMiss,
			"expansions":  r.Expansions,
		},
	}
	if r.Obs != nil {
		rep.Counters = r.Obs.Map()
	}
	rep.AttachContention(obs.ContentionFrom(r.Config.Trace))
	return rep
}

// Report converts a microbenchmark run into a machine-readable run
// report.
func (r MicroResult) Report(tool string) *obs.Report {
	rep := &obs.Report{
		Tool:           tool,
		Timestamp:      time.Now(),
		Host:           obs.CurrentHost(),
		Config:         r.Config,
		ElapsedSeconds: r.Elapsed.Seconds(),
		Ops:            r.Ops,
		Mops:           r.Mops(),
		Extra: map[string]any{
			"writes":            r.Writes,
			"reads":             r.Reads,
			"read_attempts":     r.ReadAttempts,
			"read_success_rate": r.ReadSuccessRate(),
			"fairness_ratio":    r.FairnessRatio(),
			"per_thread_ops":    r.PerThreadOps,
		},
	}
	if r.Obs != nil {
		rep.Counters = r.Obs.Map()
	}
	return rep
}
