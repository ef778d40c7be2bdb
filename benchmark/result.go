package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// metric is one reported number with its unit and the number of
// samples behind it (rounds for a median over rounds, latency samples
// for a percentile, calls for a ladder rung).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Note  string  `json:"note,omitempty"`
}

// result is one workload's outcome: the untraced end-to-end pass, the
// traced per-layer pass, or both.
type result struct {
	Workload  string `json:"workload"`
	Why       string `json:"why"`
	Seed      uint64 `json:"seed"`
	Correct   bool   `json:"correct"`
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	// EndToEnd holds the gated metrics, Layer the per-layer ones.
	EndToEnd map[string]metric `json:"end_to_end,omitempty"`
	Layer    map[string]metric `json:"per_layer,omitempty"`
	// Absent names per-layer metrics this workload did not produce,
	// with the reason. An absent metric is never written as 0.
	Absent map[string]string `json:"absent,omitempty"`
	// Checks lists the correctness checks that ran and what they saw.
	Checks []string `json:"checks"`
	Notes  []string `json:"notes,omitempty"`
	// Rounds keeps every round's value behind each median.
	Rounds map[string][]float64 `json:"rounds,omitempty"`
	// Budget is the traced pass's per-op line-up for the budget table.
	Budget *budget `json:"budget,omitempty"`
}

func newResult(s *spec, seed uint64) *result {
	return &result{
		Workload: s.name, Why: s.why, Seed: seed, Correct: true,
		EndToEnd: map[string]metric{}, Layer: map[string]metric{},
		Absent: map[string]string{}, Rounds: map[string][]float64{},
	}
}

// set stores a metric under its catalogued unit; an unknown name is a
// bug in the harness.
func (r *result) set(name string, v float64, n int) {
	d, ok := defOf(name)
	if !ok {
		panic("benchmark: metric not in catalogue: " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.Absent[name] = "not measurable in this run (no samples)"
		return
	}
	m := metric{Value: v, Unit: d.unit, N: n}
	for _, e := range endToEnd {
		if e.name == name {
			r.EndToEnd[name] = m
			return
		}
	}
	r.Layer[name] = m
	delete(r.Absent, name)
}

// setRounds stores the median over rounds and keeps the rounds.
func (r *result) setRounds(name string, rounds []float64) {
	r.Rounds[name] = rounds
	r.set(name, median(rounds), len(rounds))
}

func (r *result) absent(reason string, names ...string) {
	for _, n := range names {
		if _, ok := r.Layer[n]; !ok {
			r.Absent[n] = reason
		}
	}
}

// merge copies the ladder's metrics into r: the ladder does not depend
// on the workload, so a suite runs it once for all traced results.
func (r *result) merge(ladder *result) {
	for name, m := range ladder.Layer {
		r.Layer[name] = m
	}
	for name, why := range ladder.Absent {
		r.Absent[name] = why
	}
}

func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Checks = append(r.Checks, "FAIL: "+fmt.Sprintf(format, args...))
}

func (r *result) check(format string, args ...any) {
	r.Checks = append(r.Checks, "ok: "+fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// failedFrac is failed / attempted.
func (r *result) failedFrac() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// print writes the human table: every metric by name with its unit
// and sample count.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s (seed %d) ==\n", r.Workload, r.Seed)
	printMetrics(w, "end to end", r.EndToEnd, endToEnd)
	printMetrics(w, "per layer", r.Layer, append(append([]metricDef{}, commonLayer...), workloadLayer...))
	if len(r.Absent) > 0 {
		names := make([]string, 0, len(r.Absent))
		for n := range r.Absent {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintln(w, "  absent:")
		for _, n := range names {
			fmt.Fprintf(w, "    %-34s %s\n", n, r.Absent[n])
		}
	}
	for _, c := range r.Checks {
		fmt.Fprintf(w, "  check %s\n", c)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note  %s\n", n)
	}
	fmt.Fprintf(w, "  correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
}

func printMetrics(w io.Writer, title string, ms map[string]metric, order []metricDef) {
	if len(ms) == 0 {
		return
	}
	fmt.Fprintf(w, "  %s:\n", title)
	for _, d := range order {
		if m, ok := ms[d.name]; ok {
			fmt.Fprintf(w, "    %-34s %14.4f %-6s n=%d %s\n", d.name, m.Value, m.Unit, m.N, m.Note)
		}
	}
}
