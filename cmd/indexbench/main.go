// Command indexbench runs the index benchmarks of the OptiQL paper
// (Figures 1, 9, 10 and 13), or a single custom configuration against
// the B+-tree or ART.
//
// Examples:
//
//	indexbench -experiment fig9 -records 100000000 -threads 1,20,40,60,80 -duration 10s -runs 20
//	indexbench -index art -scheme OptiQL -mix balanced -dist selfsimilar -sparse
//
// With -net it turns into a load generator for a running optiqld
// server, driving the same mixes and distributions through pipelined
// protocol connections (one per thread):
//
//	indexbench -net 127.0.0.1:4440 -threads 8 -mix balanced -duration 5s -json -
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"optiql/internal/bench"
	"optiql/internal/experiments"
	"optiql/internal/faults"
	"optiql/internal/obs"
	"optiql/internal/obs/trace"
	"optiql/internal/workload"
)

func main() {
	var (
		experiment = flag.String("experiment", "", "fig1|fig9|fig10|fig13|all (empty = custom single run)")
		threads    = flag.String("threads", "1,2,4,8", "comma-separated thread sweep")
		duration   = flag.Duration("duration", 500*time.Millisecond, "measured duration per run")
		runs       = flag.Int("runs", 3, "repetitions per configuration")
		records    = flag.Int("records", 200_000, "records preloaded (paper: 100000000)")

		index    = flag.String("index", "btree", "btree|art")
		scheme   = flag.String("scheme", "OptiQL", "lock scheme for custom runs")
		mixName  = flag.String("mix", "balanced", "read-only|read-heavy|balanced|write-heavy|update-only")
		dist     = flag.String("dist", "selfsimilar", "uniform|selfsimilar|zipf")
		skew     = flag.Float64("skew", 0.2, "self-similar skew factor / zipf theta")
		sparseK  = flag.Bool("sparse", false, "use sparse integer keys")
		nodeSize = flag.Int("nodesize", 256, "B+-tree node size in bytes")
		noexpand = flag.Bool("noexpand", false, "disable ART contention expansion (ablation)")

		jsonPath = flag.String("json", "", "write a machine-readable run report to this path (\"-\" = stdout); custom runs only")
		obsAddr  = flag.String("obs", "", "serve live /metrics, /debug/vars, /debug/pprof and /debug/contention on this address (e.g. :6060)")
		latency  = flag.Bool("latency", false, "collect sampled per-operation latencies")

		tracePath = flag.String("trace", "", "write a Chrome trace_event JSON (load in Perfetto / chrome://tracing) to this path after the run; custom runs only")
		traceSmp  = flag.Int("sample", 0, "trace sampling interval, 1-in-N ops (0 = default 1024 when tracing; also enables the report's contention sections without -trace)")

		netAddr   = flag.String("net", "", "drive a running optiqld server at this address instead of an in-process index")
		pipeline  = flag.Int("pipeline", 32, "per-connection pipelining window for -net runs")
		noPreload = flag.Bool("nopreload", false, "skip the -net preload phase (server already populated)")
		chaos     = flag.String("chaos", "", "client-side fault-injection spec for -net runs, e.g. 'reset=0.01,latency=0.05:100us-1ms' (implies -reconn)")
		reconn    = flag.Bool("reconn", false, "drive -net runs with self-healing synchronous clients (retry/backoff/reconnect) instead of raw pipelined connections")
		retries   = flag.Int("retries", 0, "per-request retry budget for -reconn/-chaos runs (0 = client default)")
	)
	flag.Parse()

	ths, err := experiments.ParseThreads(*threads)
	if err != nil {
		fatal(err)
	}
	opts := experiments.Options{
		Threads:  ths,
		Duration: *duration,
		Runs:     *runs,
		Records:  *records,
	}

	if *experiment != "" {
		if *jsonPath != "" {
			fatal(fmt.Errorf("-json applies to custom single runs, not -experiment tables"))
		}
		fn, err := experiments.ByName(*experiment)
		if err != nil {
			fatal(err)
		}
		if err := fn(opts); err != nil {
			fatal(err)
		}
		return
	}

	mix, err := workload.MixByName(*mixName)
	if err != nil {
		fatal(err)
	}
	ks := workload.Dense
	if *sparseK {
		ks = workload.Sparse
	}
	var tracer *trace.Tracer
	if *tracePath != "" || *traceSmp > 0 {
		tracer = trace.New(trace.Config{SampleEvery: *traceSmp})
	}
	if *netAddr != "" {
		var chaosCfg *faults.Config
		if *chaos != "" {
			cfg, err := faults.Parse(*chaos)
			if err != nil {
				fatal(err)
			}
			chaosCfg = &cfg
		}
		runNet(bench.NetConfig{
			Addr:         *netAddr,
			Conns:        ths[len(ths)-1],
			Pipeline:     *pipeline,
			Records:      *records,
			SkipPreload:  *noPreload,
			Distribution: *dist,
			Skew:         *skew,
			KeySpace:     ks,
			Mix:          mix,
			Duration:     *duration,
			Latency:      *latency,
			Chaos:        chaosCfg,
			Reconn:       *reconn,
			MaxRetries:   *retries,
			Trace:        tracer,
		}, *jsonPath, *obsAddr, *mixName)
		writeTrace(tracer, *tracePath)
		return
	}
	cfg := bench.IndexConfig{
		Index:               *index,
		Scheme:              *scheme,
		Threads:             ths[len(ths)-1],
		Records:             *records,
		NodeSize:            *nodeSize,
		Distribution:        *dist,
		Skew:                *skew,
		KeySpace:            ks,
		Mix:                 mix,
		Duration:            *duration,
		Latency:             *latency,
		ARTDisableExpansion: *noexpand,
		Trace:               tracer,
	}
	if *obsAddr != "" {
		src := &obs.LiveSource{}
		cfg.Live = src
		_, bound, err := obs.Serve(*obsAddr, src)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("observability endpoint on http://%s/metrics\n", bound)
	}
	res, err := bench.RunIndex(cfg)
	if err != nil {
		fatal(err)
	}
	writeTrace(tracer, *tracePath)
	if *jsonPath != "" {
		if err := res.Report("indexbench").WriteFile(*jsonPath); err != nil {
			fatal(err)
		}
		if *jsonPath == "-" {
			return
		}
	}
	fmt.Printf("index=%s scheme=%s threads=%d records=%d dist=%s keys=%s mix=%s\n",
		*index, *scheme, cfg.Threads, *records, *dist, ks, *mixName)
	fmt.Printf("throughput: %.3f Mops (%d ops in %v)\n", res.Mops(), res.Ops, res.Elapsed.Round(time.Millisecond))
	for op, n := range res.PerOp {
		if n > 0 {
			fmt.Printf("  %s: %d\n", workload.OpKind(op), n)
		}
	}
	if res.Expansions > 0 {
		fmt.Printf("  contention expansions: %d\n", res.Expansions)
	}
	if res.Obs != nil {
		fmt.Printf("  lock events: %d validation failures, %d restarts, %d free / %d handover acquires\n",
			res.Obs.Get(obs.EvShValidateFail), res.Obs.Get(obs.EvOpRestart),
			res.Obs.Get(obs.EvExFree), res.Obs.Get(obs.EvExHandover))
	}
	if min, avg, stddev := res.Timeline.Stats(); avg > 0 {
		fmt.Printf("  timeline: min %.3f / avg %.3f / stddev %.3f Mops over %d intervals\n",
			min, avg, stddev, len(res.Timeline.Ops))
	}
	printContention(tracer)
}

// writeTrace exports the run's spans in Chrome trace_event format.
func writeTrace(tr *trace.Tracer, path string) {
	if tr == nil || path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("trace written to %s (load in Perfetto or chrome://tracing)\n", path)
}

// printContention summarizes the profiler's view of the run: lock-wait
// percentiles and the hottest keys.
func printContention(tr *trace.Tracer) {
	if tr == nil {
		return
	}
	snap := tr.Snapshot()
	if snap.Wait.Count() > 0 {
		fmt.Printf("  lock wait (1-in-%d sampled): p50 %v / p99 %v / max %v over %d acquires\n",
			snap.SampleEvery,
			time.Duration(snap.Wait.Percentile(50)), time.Duration(snap.Wait.Percentile(99)),
			time.Duration(snap.Wait.Max()), snap.Wait.Count())
	}
	if len(snap.Keys) > 0 {
		n := len(snap.Keys)
		if n > 5 {
			n = 5
		}
		fmt.Printf("  hot keys:")
		for _, it := range snap.Keys[:n] {
			fmt.Printf(" %#x(%d)", it.Key, it.Count)
		}
		fmt.Println()
	}
}

// runNet drives a remote optiqld server with the configured workload
// and prints/writes the same shape of results as an in-process run.
func runNet(cfg bench.NetConfig, jsonPath, obsAddr, mixName string) {
	if obsAddr != "" {
		src := &obs.LiveSource{}
		cfg.Live = src
		if tr := cfg.Trace; tr != nil {
			src.SetContention(func() *obs.ContentionReport { return obs.ContentionFrom(tr) })
		}
		_, bound, err := obs.Serve(obsAddr, src)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("observability endpoint on http://%s/metrics\n", bound)
	}
	res, err := bench.RunNet(cfg)
	if err != nil {
		fatal(err)
	}
	if jsonPath != "" {
		if err := res.Report("indexbench-net").WriteFile(jsonPath); err != nil {
			fatal(err)
		}
		if jsonPath == "-" {
			return
		}
	}
	fmt.Printf("net=%s conns=%d pipeline=%d records=%d dist=%s keys=%s mix=%s\n",
		cfg.Addr, cfg.Conns, cfg.Pipeline, cfg.Records, cfg.Distribution, cfg.KeySpace, mixName)
	fmt.Printf("throughput: %.3f Mops (%d ops in %v, %d errors)\n",
		res.Mops(), res.Ops, res.Elapsed.Round(time.Millisecond), res.Errors)
	for op, n := range res.PerOp {
		if n > 0 {
			fmt.Printf("  %s: %d (%d misses)\n", workload.OpKind(op), n, res.PerOpMiss[op])
		}
	}
	if rs := res.Reconn; rs.Dials > 0 {
		fmt.Printf("  resilience: %d dials (%d reconnects), %d retries, %d overload answers, %d failures\n",
			rs.Dials, rs.Reconnects, rs.Retries, rs.Overloaded, rs.Failures)
	}
	if n := res.Counters["fault_latency"] + res.Counters["fault_stall"] + res.Counters["fault_short_write"] +
		res.Counters["fault_fragment"] + res.Counters["fault_reset"] + res.Counters["fault_corrupt"] +
		res.Counters["fault_accept_fail"]; n > 0 {
		fmt.Printf("  faults injected client-side: %d\n", n)
	}
	if min, avg, stddev := res.Timeline.Stats(); avg > 0 {
		fmt.Printf("  timeline: min %.3f / avg %.3f / stddev %.3f Mops over %d intervals\n",
			min, avg, stddev, len(res.Timeline.Ops))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "indexbench:", err)
	os.Exit(1)
}
