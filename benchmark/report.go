package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

func (e *env) tracePath(workload string) string {
	return filepath.Join(e.outDir, "trace-"+workload+".json")
}

// absentFor lists, with the reason, every workload-specific per-layer
// metric this workload cannot produce.
func absentFor(res *result, s *spec) {
	embedded := "embedded workload: no client, daemon or generator schedule"
	if s.served {
		res.absent("served workload: the index runs inside the daemon; spans inside the program are a later issue",
			"btree.lookup_ns", "btree.scan16_ns", "art.lookup_ns", "art.update_ns", "art.insert_ns", "art.delete_ns",
			"harness.ring_read_ns", "art.expansion_count")
		if !s.wal {
			res.absent("daemon runs without a WAL",
				"wal.ops_per_fsync", "wal.bytes_per_op", "wal.fsync_p50_us", "wal.fsync_p99_us", "wal.lag_shed_frac", "wal.replay_ops_s")
			res.absent("executor batches are only visible through /debug/wal (one record per batch)", "server.ops_per_batch")
		}
	} else {
		for _, d := range workloadLayer {
			p, _, _ := strings.Cut(d.name, ".")
			switch {
			case p == "client" || p == "server" || p == "load":
				res.absent(embedded, d.name)
			case p == "wal":
				res.absent("no WAL in an embedded workload", d.name)
			case p == "btree" && s.index != "btree", p == "art" && s.index != "art":
				res.absent("the workload runs the other index", d.name)
			case s.index == "btree" && s.share(opScan) == 0 && d.name == "btree.scan16_ns":
				res.absent("no scans in the mix", d.name)
			}
		}
	}
	for _, d := range workloadLayer {
		if _, ok := res.Layer[d.name]; ok {
			continue
		}
		if _, ok := res.Absent[d.name]; !ok {
			res.Absent[d.name] = "not produced in this run"
		}
	}
}

// budget is one workload's per-op line-up in the budget table.
type budget struct {
	Unit  string       `json:"unit"`
	Lines []budgetLine `json:"lines"`
	Note  string       `json:"note,omitempty"`
}

type budgetLine struct {
	Layer string  `json:"layer"`
	Value float64 `json:"value"`
	Sums  bool    `json:"in_sum"`
}

// budgetClosed records where a served request's CPU time went in the
// closed-loop rounds, per completed op, over all vCPUs: the wall budget
// is workers/ops_s, and generator CPU + daemon user + daemon sys + idle
// should add up to it.
func budgetClosed(res *result, rounds []closedRound, workers int) {
	var ops, gen, user, sys, idle, wall float64
	for _, r := range rounds {
		ops += float64(r.ops)
		gen, user, sys, idle = gen+r.genCPU, user+r.dUser, sys+r.dSys, idle+r.idle
		wall += r.elapsed * float64(workers)
	}
	if ops == 0 {
		return
	}
	us := func(v float64) float64 { return v * 1e6 / ops }
	res.set("load.idle_us_per_op", us(idle), int(ops))
	sum := us(gen + user + sys + idle)
	res.Budget = &budget{
		Unit: "CPU-us per op over all vCPUs, closed loop",
		Lines: []budgetLine{
			{"generator user+sys (codec, client syscalls, harness loop)", us(gen), true},
			{"daemon user (conn loops, codec, shard hand-off, index)", us(user), true},
			{"daemon sys (socket syscalls, fsync)", us(sys), true},
			{"idle vCPU time (wake-up gaps; fsync wait with the WAL on)", us(idle), true},
			{"sum", sum, false},
			{"measured: workers / ops_s", us(wall), false},
		},
		Note: fmt.Sprintf("sum / measured = %.3f", sum/us(wall)),
	}
}

// budgetEmbedded records the embedded loop's per-op line-up from the
// traced pass.
func budgetEmbedded(res *result, workers int) {
	un := res.Rounds["ops_s.untraced"]
	ring, ok := res.Layer["harness.ring_read_ns"]
	if len(un) == 0 || !ok {
		return
	}
	loop := float64(workers) * 1e9 / median(un)
	res.Budget = &budget{
		Unit: "ns per op per caller, closed loop",
		Lines: []budgetLine{
			{"harness ring read + loop (index call removed)", ring.Value, true},
			{"index self time (descent, node kernels, lock protocol, answer check)", loop - ring.Value, true},
			{"measured: workers / ops_s", loop, false},
		},
	}
}

// printBudgets prints the traced results' line-ups, keyed by workload.
func printBudgets(w io.Writer, results map[string]*result) {
	fmt.Fprintln(w, "\n== budget table ==")
	for _, s := range specs {
		if results[s.name] == nil || results[s.name].Budget == nil {
			continue
		}
		b := results[s.name].Budget
		fmt.Fprintf(w, "  %s (%s)\n", s.name, b.Unit)
		for _, l := range b.Lines {
			mark := " "
			if l.Sums {
				mark = "+"
			}
			fmt.Fprintf(w, "    %s %-68s %12.3f\n", mark, l.Layer, l.Value)
		}
		if b.Note != "" {
			fmt.Fprintf(w, "      %s\n", b.Note)
		}
	}
	// The embedded/served ratio, when both sides were traced here.
	emb, srv := results["embed-btree-read"], results["served-read-mostly"]
	if emb == nil || srv == nil || emb.Budget == nil || srv.Budget == nil {
		return
	}
	eb, sb := emb.Budget, srv.Budget
	embNS := eb.Lines[len(eb.Lines)-1].Value
	fmt.Fprintf(w, "  embedded -> served line-up (per op, us of vCPU time):\n")
	fmt.Fprintf(w, "    %-70s %12.3f\n", "embedded index op (embed-btree-read loop)", embNS/1e3)
	codec := 0.0
	for _, n := range []string{"wire.req_encode_ns", "wire.req_parse_ns", "wire.resp_encode_ns", "wire.resp_parse_ns"} {
		codec += srv.Layer[n].Value
	}
	fmt.Fprintf(w, "    %-70s %12.3f\n", "codec, both ends (ladder: request+response encode+parse; inside the CPU lines)", codec/1e3)
	for _, l := range sb.Lines {
		fmt.Fprintf(w, "    %-70s %12.3f\n", l.Layer, l.Value)
	}
	served := sb.Lines[len(sb.Lines)-1].Value
	fmt.Fprintf(w, "    served / embedded = %.1fx\n", served/(embNS/1e3))
	if dur := results["served-durable-write"]; dur != nil {
		fmt.Fprintf(w, "  served-durable-write vs served-read-mostly: client.wait_us %.1f vs %.1f, wal.fsync_p50_us %.1f, idle us/op %.1f vs %.1f\n",
			dur.Layer["client.wait_us"].Value, srv.Layer["client.wait_us"].Value, dur.Layer["wal.fsync_p50_us"].Value,
			dur.Layer["load.idle_us_per_op"].Value, srv.Layer["load.idle_us_per_op"].Value)
	}
}

// suiteOutput is the -out JSON document.
type suiteOutput struct {
	Host     fingerprint `json:"host"`
	Seed     uint64      `json:"seed"`
	Seconds  float64     `json:"seconds_per_workload"`
	Results  []*result   `json:"results"`
	Traced   []*result   `json:"traced,omitempty"`
	Notes    []string    `json:"notes"`
	Finished string      `json:"finished"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// driverLine is the one JSON object the driver reads from the last
// line of standard output.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted uint64                  `json:"attempted"`
	Failed    uint64                  `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverJSON renders the last line: every end-to-end metric for an
// untraced run, every declared per-layer metric for a traced one.
func driverJSON(res *result, traced bool) ([]byte, error) {
	defs, have := endToEnd, res.EndToEnd
	if traced {
		defs, have = commonLayer, res.Layer
	}
	line := driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverMetric{}}
	for _, d := range defs {
		m, ok := have[d.name]
		if !ok && traced {
			// A renamed daemon surface degrades a per-layer metric to
			// absent; it never fails the run.
			fmt.Fprintf(os.Stderr, "warning: per-layer metric %s is absent: %s\n", d.name, res.Absent[d.name])
			continue
		}
		if !ok {
			return nil, fmt.Errorf("end-to-end metric %s was not produced", d.name)
		}
		line.Metrics[d.name] = driverMetric{Value: m.Value, Unit: m.Unit}
	}
	return json.Marshal(line)
}
