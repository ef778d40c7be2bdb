package main

// Operation kinds stored in the top bits of a ring entry. Embedded
// workloads use all five; served workloads map Lookup to GET, Update
// to PUT, Delete to DELETE and Scan to SCAN.
const (
	opLookup = iota
	opUpdate
	opInsert
	opDelete
	opScan
	numOps
)

const (
	opShift = 60
	keyMask = uint64(1)<<48 - 1
	scanLen = 16
	// Every write after the preload stores k ^ tag<<48, so any value
	// read back must agree with its key in the low 48 bits.
	tagShift = 48
)

// valueOK is the oracle-free torn/misrouted-value check: preload
// writes v = k and later writes only change the top 16 bits.
func valueOK(k, v uint64) bool { return v<<16 == k<<16 }

// spec fixes one workload. Nothing here is derived at run time: a
// faster build must meet the same load, so the open-loop rate is a
// constant taken from a probe at the commit that added the benchmark.
type spec struct {
	name    string
	served  bool
	index   string // embedded: btree|art; served daemons always run btree
	records int
	dist    string  // uniform | selfsimilar | zipf
	skew    float64 // selfsimilar h, zipf theta
	// mix is the cumulative percentage threshold per op kind, in
	// opLookup..opScan order.
	mix [numOps]int
	// served only
	wal      bool
	striped  bool // write keys are striped per connection
	window   int  // closed-loop requests in flight per connection
	openRate int  // open-loop requests per second over all connections
	// closedOnly takes every gated metric from closed-loop rounds and
	// leaves the open loop to the traced pass and the per-layer list.
	closedOnly bool
	sloUS      float64
	why        string
}

var specs = []spec{
	{
		name: "embed-btree-read", index: "btree", records: 1_000_000, dist: "uniform",
		mix: pct(90, 0, 0, 0, 10),
		why: "node kernels, descent and the optimistic read path do the work; queueing, wire, server and wal do none",
	},
	{
		name: "embed-art-hot-write", index: "art", records: 100_000, dist: "selfsimilar", skew: 0.2,
		mix: pct(20, 50, 15, 15, 0),
		why: "the paper's robustness case: exclusive acquire, handover, restarts, node grow/shrink; no btree/simd leaf kernel runs",
	},
	{
		name: "served-read-mostly", served: true, index: "btree", records: 1_000_000, dist: "uniform",
		mix: pct(80, 15, 0, 0, 5), window: 16, openRate: 60000, sloUS: 2000,
		why: "per-request cost outside the index: wire codec, conn loops, syscalls, shard hand-off; no WAL",
	},
	// 6000 req/s is a third of the closed-loop median (18k ops/s). At
	// the issue's half (8000) the group-commit syncer was saturated (880
	// fsyncs/s of ~0.3 ms plus their hand-offs), and p50 moved eight times
	// as far as this VM's fsync latency drifts between runs: 1.8-3.3 ms.
	// Even at 6000 the open-loop latency of one daemon instance sits
	// anywhere between 1.4 and 2.2 ms for a whole run while its closed-loop
	// throughput stays within 3%, and the driver refused the spread
	// (IQR/median 0.3 for p50, 0.4 for p99); the daemon's CPU per op in
	// those rounds follows the same regime (66-113 us over ten runs, spread
	// 0.22). With the pipe full the executor, syncer and fsync run back to
	// back: latency repeats within 3% (p50) and 6% (p99), CPU per op within
	// 10% on the same noisy host, so the closed loop is what is gated here.
	{
		name: "served-durable-write", served: true, index: "btree", records: 200_000, dist: "zipf", skew: 0.99,
		mix: pct(20, 70, 0, 10, 0), wal: true, striped: true, window: 16, openRate: 6000, closedOnly: true, sloUS: 10000,
		why: "wal append, group-commit fill and fsync wait, executor batching and the read-your-writes barrier dominate",
	},
}

// pct turns per-kind percentages into cumulative thresholds.
func pct(lookup, update, insert, del, scan int) [numOps]int {
	p := [numOps]int{lookup, update, insert, del, scan}
	sum := 0
	for i := range p {
		sum += p[i]
		p[i] = sum
	}
	if sum != 100 {
		panic("benchmark: mix does not sum to 100")
	}
	return p
}

// share is the percentage of op kind k in the mix.
func (s *spec) share(k int) int {
	if k == 0 {
		return s.mix[0]
	}
	return s.mix[k] - s.mix[k-1]
}

func specByName(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// params sizes one run. The defaults are the issue's R=5, T=6 s; the
// driver's --seconds shortens T and never R.
type params struct {
	seed    uint64
	seconds float64 // measured seconds per workload, split over the rounds
	setups  int     // set-up repetitions; setup_s is their median
	ringLen int     // per-worker operation ring, a power of two
	smoke   bool
	workers int
	// ladderScale shortens every ladder rung's 5 x 0.2 s.
	ladderScale float64
}

const (
	embedRounds  = 5
	servedRounds = 3 // closed-loop rounds, then as many open-loop rounds
)

func (p params) records(s *spec) int {
	if p.smoke {
		return 20_000
	}
	return s.records
}

func (p params) roundSeconds(s *spec) float64 {
	if p.smoke {
		return 0.3
	}
	if s.served {
		return p.seconds / (2 * servedRounds)
	}
	return p.seconds / embedRounds
}

func (p params) rounds(s *spec) int {
	if p.smoke {
		return 1
	}
	if s.served {
		return servedRounds
	}
	return embedRounds
}

func (p params) warmup() float64 {
	if p.smoke {
		return 0.1
	}
	return 1
}

// metricDef names one reported metric.
type metricDef struct {
	name   string
	unit   string
	better string
}

// endToEnd lists the gated metrics in BENCHMARK.json order. failed_frac
// of the issue is carried as ok_frac = 1 - failed_frac, because the
// driver's contract forbids an end-to-end metric that reads 0.
var endToEnd = []metricDef{
	{"ops_s", "ops/s", "higher"},
	{"p50_us", "us", "lower"},
	{"p99_us", "us", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"ok_frac", "ratio", "higher"},
	{"mem_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// commonLayer lists the per-layer metrics every workload's traced run
// produces; these are the ones BENCHMARK.json declares. The ladder
// rungs do not depend on the workload.
var commonLayer = []metricDef{
	{"core.ex_pair_ns", "ns", "lower"},
	{"core.ex_pair_2t_ns", "ns", "lower"},
	{"locks.ex_pair_ns", "ns", "lower"},
	{"locks.opt_read_ns", "ns", "lower"},
	{"simd.count_less_14_ns", "ns", "lower"},
	{"simd.lower_bound_62_ns", "ns", "lower"},
	{"simd.match16_ns", "ns", "lower"},
	{"wire.req_encode_ns", "ns", "lower"},
	{"wire.req_parse_ns", "ns", "lower"},
	{"wire.resp_encode_ns", "ns", "lower"},
	{"wire.resp_parse_ns", "ns", "lower"},
	{"wire.scan16_resp_ns", "ns", "lower"},
	{"wire.allocs_per_op", "count", "lower"},
	{"wal.append64_us", "us", "lower"},
	{"wal.commit_always_us", "us", "lower"},
	{"server.rtt_sync_us", "us", "lower"},
	{"server.conn_setup_us", "us", "lower"},
	{"locks.handover_frac", "ratio", "lower"},
	{"locks.restart_per_kop", "1/kop", "lower"},
	{"locks.validate_fail_per_kop", "1/kop", "lower"},
	{"locks.opportunistic_admit_per_kop", "1/kop", "higher"},
	{"locks.fairness_ratio", "ratio", "lower"},
	{"locks.window_floor_frac", "ratio", "higher"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"harness.calib_ns", "ns", "lower"},
	{"load.failed_frac", "ratio", "lower"},
}

// workloadLayer lists the per-layer metrics only some workloads
// produce. A traced run prints them and writes them to its result
// file; a workload that cannot produce one lists it as absent with
// the reason, and never writes 0 for it.
var workloadLayer = []metricDef{
	{"btree.lookup_ns", "ns", "lower"},
	{"btree.scan16_ns", "ns", "lower"},
	{"art.lookup_ns", "ns", "lower"},
	{"art.update_ns", "ns", "lower"},
	{"art.insert_ns", "ns", "lower"},
	{"art.delete_ns", "ns", "lower"},
	{"harness.ring_read_ns", "ns", "lower"},
	{"btree.split_per_kop", "1/kop", "lower"},
	{"art.expansion_count", "count", "lower"},
	{"client.sched_us", "us", "lower"},
	{"client.encode_ns", "ns", "lower"},
	{"client.flush_us", "us", "lower"},
	{"client.wait_us", "us", "lower"},
	{"client.decode_ns", "ns", "lower"},
	{"client.account_frac", "ratio", "higher"},
	{"server.user_us_per_op", "us", "lower"},
	{"server.sys_us_per_op", "us", "lower"},
	{"server.ctxsw_per_op", "count", "lower"},
	{"load.gen_cpu_frac", "ratio", "lower"},
	{"load.idle_us_per_op", "us", "lower"},
	{"server.ops_per_batch", "count", "higher"},
	{"server.shed_frac", "ratio", "lower"},
	{"wal.ops_per_fsync", "count", "higher"},
	{"wal.bytes_per_op", "B", "lower"},
	{"wal.fsync_p50_us", "us", "lower"},
	{"wal.fsync_p99_us", "us", "lower"},
	{"wal.lag_shed_frac", "ratio", "lower"},
	{"wal.replay_ops_s", "ops/s", "higher"},
	{"load.open_p50_us", "us", "lower"},
	{"load.open_p99_us", "us", "lower"},
	{"load.late_p99_us", "us", "lower"},
	{"load.achieved_rate_frac", "ratio", "higher"},
	{"load.slo_miss_frac", "ratio", "lower"},
}

func defOf(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, commonLayer, workloadLayer} {
		for _, d := range list {
			if d.name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
