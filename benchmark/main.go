// Command benchmark is the repo's one benchmark: four workloads, seven
// end-to-end metrics, a ladder of per-layer loops and a traced pass.
//
//	bash benchmark/run.sh --workload embed-btree-read --seed 1 --seconds 24 --trace 0
//	bash benchmark/run.sh -seed 1            # whole suite, traced pass and budget table
//	bash benchmark/run.sh -seed 1 -repeat 3  # steadiness self-check against the bounds
//
// See README.md in this directory for the metrics, the workloads and
// how they are expected to interact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (driver mode); empty runs the whole suite")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 30, "measured seconds per workload, split over its rounds")
		trace    = flag.Int("trace", 0, "driver mode: 0 reports the end-to-end metrics, 1 the per-layer metrics from the traced pass")
		out      = flag.String("out", "", "suite mode: JSON result path (default benchmark/out/result.json)")
		repeat   = flag.Int("repeat", 1, "suite mode: run the end-to-end suite N times and check range/median against the bounds")
		smoke    = flag.Bool("smoke", false, "tiny run: one 0.3 s round, 20k records")
		root     = flag.String("root", "..", "checkout root: the directory that holds BENCHMARK.json and cmd/optiqld")
	)
	flag.Parse()
	handleSignals()
	code := 2
	func() {
		defer func() {
			if r := recover(); r != nil {
				fmt.Fprintf(os.Stderr, "benchmark: panic: %v\n%s", r, debug.Stack())
			}
		}()
		code = run(*workload, *seed, *seconds, *trace != 0, *out, *repeat, *smoke, *root)
	}()
	runCleanups()
	os.Exit(code)
}

func newEnv(root string) (*env, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	for _, need := range []string{"BENCHMARK.json", filepath.Join("cmd", "optiqld")} {
		if _, err := os.Stat(filepath.Join(root, need)); err != nil {
			return nil, fmt.Errorf("%s is not the checkout root (pass -root): %v", root, err)
		}
	}
	e := &env{root: root, scratch: filepath.Join(root, ".bench_build"), outDir: filepath.Join(root, "benchmark", "out")}
	for _, dir := range []string{e.scratch, e.outDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	return e, nil
}

func run(workload string, seed uint64, seconds float64, traced bool, out string, repeat int, smoke bool, root string) int {
	e, err := newEnv(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	workers := runtime.NumCPU()
	runtime.GOMAXPROCS(workers)
	p := params{seed: seed, seconds: seconds, setups: 5, ringLen: 1 << 20, smoke: smoke, workers: workers, ladderScale: 1}
	if smoke {
		p.ringLen, p.ladderScale, p.setups = 1<<16, 0.05, 1
	}
	if seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive")
		return 2
	}

	if workload != "" {
		s := specByName(workload)
		if s == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", workload)
			return 2
		}
		return runDriver(e, s, p, traced)
	}
	return runSuite(e, p, out, repeat)
}

// runOne runs one pass of one workload. A traced pass sets up once.
func runOne(e *env, s *spec, p params, traced bool) (*result, error) {
	if traced {
		p.setups = 1
	}
	if s.served {
		return runServed(e, s, p, traced)
	}
	res := runEmbedded(e, s, p, traced, nil)
	if traced {
		budgetEmbedded(res, p.workers)
	}
	return res, nil
}

// runDriver is the driver's contract: one workload, a table for
// people, then one JSON object as the last line of standard output.
func runDriver(e *env, s *spec, p params, traced bool) int {
	fp := hostFingerprint(e)
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s kernel %s cpu %q caches %v scratch fs %s commit %s clock read %.1f ns\n",
		fp.NProc, fp.GOMAXPROCS, fp.GoVersion, fp.Kernel, fp.CPUModel, fp.Caches, fp.ScratchFS, fp.GitCommit, fp.ClockNS)
	fmt.Println("note:", fp.Transport)
	res, err := runOne(e, s, p, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if traced {
		p.ladderScale *= 0.5
		runLadder(e, res, p)
	}
	res.print(os.Stdout)
	if traced {
		printBudgets(os.Stdout, map[string]*result{s.name: res})
	}
	name := "result-" + s.name + ".json"
	if traced {
		name = "layers-" + s.name + ".json"
	}
	if err := writeJSON(filepath.Join(e.outDir, name), struct {
		Host   fingerprint `json:"host"`
		Result *result     `json:"result"`
	}{fp, res}); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: warning:", err)
	}
	line, err := driverJSON(res, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	return 0
}

// bounds reads the regression bounds from BENCHMARK.json.
func (e *env) bounds() (map[string]float64, error) {
	b, err := os.ReadFile(filepath.Join(e.root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, m := range doc.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// runSuite runs all four workloads untraced (repeat times), then the
// traced pass and the ladder once, prints the tables and writes -out.
func runSuite(e *env, p params, out string, repeat int) int {
	fp := hostFingerprint(e)
	fmt.Printf("host: %+v\n", fp)
	code := 0
	var first []*result
	runs := map[string]map[string][]float64{} // workload -> metric -> value per repeat
	for rep := 0; rep < max(repeat, 1); rep++ {
		for i := range specs {
			s := &specs[i]
			res, err := runOne(e, s, p, false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", s.name, err)
				return 1
			}
			res.print(os.Stdout)
			if !res.Correct || res.Failed > 0 {
				code = 1
			}
			if rep == 0 {
				first = append(first, res)
			}
			if runs[s.name] == nil {
				runs[s.name] = map[string][]float64{}
			}
			for name, m := range res.EndToEnd {
				runs[s.name][name] = append(runs[s.name][name], m.Value)
			}
		}
	}
	if repeat > 1 {
		bounds, err := e.bounds()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Printf("\n== repeat self-check: range/median over %d suite runs against the bound ==\n", repeat)
		for _, s := range specs {
			for _, d := range endToEnd {
				vs := runs[s.name][d.name]
				lo, hi := minMax(vs)
				spread := (hi - lo) / median(vs)
				verdict := "ok"
				if spread > bounds[d.name] {
					verdict, code = "VIOLATION", 1
				}
				fmt.Printf("  %-22s %-14s median %14.4f %-6s range/median %.4f iqr/median %.4f bound %.4f %s\n",
					s.name, d.name, median(vs), d.unit, spread, iqrShare(vs), bounds[d.name], verdict)
			}
		}
	}

	// Traced pass: one per workload, then the ladder once; the ladder
	// does not depend on the workload, so every traced result carries it.
	ladder := newResult(&spec{name: "ladder"}, p.seed)
	runLadder(e, ladder, p)
	var tracedResults []*result
	byName := map[string]*result{}
	for i := range specs {
		s := &specs[i]
		res, err := runOne(e, s, p, true)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s (traced): %v\n", s.name, err)
			return 1
		}
		res.merge(ladder)
		res.print(os.Stdout)
		if !res.Correct {
			code = 1
		}
		tracedResults = append(tracedResults, res)
		byName[s.name] = res
	}
	printBudgets(os.Stdout, byName)

	if out == "" {
		out = filepath.Join(e.outDir, "result.json")
	}
	doc := suiteOutput{Host: fp, Seed: p.seed, Seconds: p.seconds, Results: first, Traced: tracedResults,
		Notes:    []string{fp.Transport, "fsync latency is this VM's; kill -9 keeps the page cache, so the restart check proves replay, not power-loss durability"},
		Finished: time.Now().UTC().Format(time.RFC3339)}
	if err := writeJSON(out, doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("\nresult written to %s; traces in %s\n", out, e.outDir)
	return code
}
