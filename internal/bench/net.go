package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"optiql/internal/faults"
	"optiql/internal/hist"
	"optiql/internal/obs"
	"optiql/internal/obs/trace"
	"optiql/internal/server/wire"
	"optiql/internal/workload"
)

// NetConfig parameterizes one networked benchmark run against an
// optiqld server: the same workload mixes, key distributions and
// timeline sampling as the in-process index benchmark, driven through
// pipelined protocol connections instead of direct calls.
type NetConfig struct {
	// Addr is the server address ("host:port").
	Addr string
	// Conns is the number of concurrent client connections, each driven
	// by one goroutine (the networked analogue of Threads).
	Conns int
	// Pipeline is the per-connection pipelining window: how many
	// requests may be in flight before the worker reads a response
	// (default 32; 1 means strictly synchronous).
	Pipeline int
	// Records is the preloaded key population (default 100k). The
	// client preloads via batched PUTs before the measured phase.
	Records int
	// SkipPreload skips the preload phase (for servers already
	// populated by an earlier run).
	SkipPreload bool
	// Distribution is "uniform", "selfsimilar" or "zipf"; Skew is its
	// parameter.
	Distribution string
	Skew         float64
	// KeySpace selects dense or sparse keys.
	KeySpace workload.KeySpace
	// Mix is the operation mix. OpUpdate and OpInsert both map to PUT
	// (updates target resident keys, inserts draw fresh per-connection
	// sequences, mirroring the in-process driver).
	Mix workload.Mix
	// Duration is the measured run length.
	Duration time.Duration
	// ScanLen is the number of pairs requested per SCAN (default 16).
	ScanLen int
	// Latency enables sampled per-operation latency collection
	// (response-time of the sampled request, including queueing).
	Latency bool
	// SampleEvery is the throughput-timeline sampling interval
	// (DefaultSampleEvery when zero; negative disables the timeline).
	SampleEvery time.Duration
	// Live, when set, is pointed at this run's completed-operation
	// total so the -obs endpoint can serve client-side throughput.
	Live *obs.LiveSource `json:"-"`
	// Chaos, when it enables any fault, wraps every measured-phase
	// connection with client-side fault injection (the preload stays on
	// a clean transport). Chaos implies resilient mode: a pipelined
	// client cannot outlive injected resets, so workers switch to
	// self-healing synchronous clients.
	Chaos *faults.Config
	// Reconn forces resilient mode even without chaos: workers drive
	// wire.ReconnClient synchronously (Pipeline is ignored), retrying
	// and reconnecting per its policy instead of failing the run on the
	// first transport error.
	Reconn bool
	// MaxRetries is the per-request retry budget in resilient mode
	// (ReconnClient's default when zero).
	MaxRetries int
	// Trace, when set in resilient mode, attributes client-side stalls:
	// ReconnClient backoffs/re-dials and injector faults become trace
	// spans so chaos-run tail latency decomposes by cause.
	Trace *trace.Tracer `json:"-"`
}

// resilient reports whether workers use self-healing synchronous
// clients instead of raw pipelined connections.
func (c *NetConfig) resilient() bool { return c.Reconn || c.Chaos.Any() }

func (c *NetConfig) normalize() error {
	if c.Addr == "" {
		return fmt.Errorf("bench: NetConfig.Addr is required")
	}
	if c.Conns <= 0 {
		c.Conns = 1
	}
	if c.Pipeline <= 0 {
		c.Pipeline = 32
	}
	if c.Records <= 0 {
		c.Records = 100_000
	}
	if c.Distribution == "" {
		c.Distribution = "uniform"
	}
	if c.Skew == 0 {
		c.Skew = 0.2
	}
	if c.Duration == 0 {
		c.Duration = time.Second
	}
	if c.ScanLen == 0 {
		c.ScanLen = 16
	}
	if c.ScanLen > wire.MaxScan {
		c.ScanLen = wire.MaxScan
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = DefaultSampleEvery
	}
	return c.Mix.Validate()
}

func (c *NetConfig) distribution() (workload.Distribution, error) {
	n := uint64(c.Records)
	switch c.Distribution {
	case "uniform":
		return workload.NewUniform(n), nil
	case "selfsimilar":
		return workload.NewSelfSimilar(n, c.Skew), nil
	case "zipf":
		return workload.NewZipfian(n, c.Skew), nil
	}
	return nil, fmt.Errorf("bench: unknown distribution %q", c.Distribution)
}

// NetResult aggregates one networked benchmark run. PerOp/PerOpMiss
// are indexed by workload.OpKind like IndexResult's; a miss is a
// NOT_FOUND (lookup/delete/empty scan), a PUT that inserted where an
// update was intended, or a PUT that overwrote where an insert was
// intended.
type NetResult struct {
	Config    NetConfig
	Elapsed   time.Duration
	Ops       uint64
	PerOp     [5]uint64
	PerOpMiss [5]uint64
	// Errors counts requests answered with StatusErr, plus — in
	// resilient mode — requests that failed even after the retry
	// budget (surfaced per-op instead of aborting the run).
	Errors uint64
	// Overloaded counts requests whose final answer was
	// StatusOverloaded: the server shed them and the retry budget ran
	// out backing off.
	Overloaded uint64
	// Reconn aggregates the workers' ReconnClient stats (resilient
	// mode only).
	Reconn wire.ReconnStats
	// Counters is the client-side event snapshot (fault_*, cli_*) in
	// resilient mode, nil otherwise.
	Counters map[string]uint64
	// Hist is the sampled response-time distribution (nil unless
	// Config.Latency).
	Hist *hist.Histogram
	// Timeline is the per-interval completed-response series.
	Timeline *Timeline
}

// Mops returns client-observed throughput in million ops per second.
func (r NetResult) Mops() float64 {
	if s := r.Elapsed.Seconds(); s > 0 {
		return float64(r.Ops) / s / 1e6
	}
	return 0
}

// Report converts a networked run into a machine-readable run report.
func (r NetResult) Report(tool string) *obs.Report {
	rep := &obs.Report{
		Tool:           tool,
		Timestamp:      time.Now(),
		Host:           obs.CurrentHost(),
		Config:         r.Config,
		ElapsedSeconds: r.Elapsed.Seconds(),
		Ops:            r.Ops,
		Mops:           r.Mops(),
		Counters:       r.Counters,
		Timeline:       r.Timeline.Report(),
		Latency:        obs.LatencyReportFrom(r.Hist),
		Extra: map[string]any{
			"per_op":      r.PerOp,
			"per_op_miss": r.PerOpMiss,
			"net_errors":  r.Errors,
		},
	}
	if r.Config.resilient() {
		rep.Extra["overloaded"] = r.Overloaded
		rep.Extra["reconn"] = r.Reconn
	}
	rep.AttachContention(obs.ContentionFrom(r.Config.Trace))
	return rep
}

// preloadBatch is how many PUTs one preload BATCH request carries.
const preloadBatch = 512

// Preload inserts cfg.Records keys (value = key) through batched PUTs
// split across cfg.Conns connections. It is exported so servers
// started fresh can be populated without a measured run.
func Preload(cfg NetConfig) error {
	if err := cfg.normalize(); err != nil {
		return err
	}
	var wg sync.WaitGroup
	errs := make(chan error, cfg.Conns)
	per := (cfg.Records + cfg.Conns - 1) / cfg.Conns
	for w := 0; w < cfg.Conns; w++ {
		lo := w * per
		hi := lo + per
		if hi > cfg.Records {
			hi = cfg.Records
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			cl, err := wire.Dial(cfg.Addr)
			if err != nil {
				errs <- err
				return
			}
			defer func() { cl.Close() }()
			for at := lo; at < hi; at += preloadBatch {
				end := at + preloadBatch
				if end > hi {
					end = hi
				}
				sub := make([]wire.Request, 0, end-at)
				for i := at; i < end; i++ {
					k := cfg.KeySpace.Key(uint64(i))
					sub = append(sub, wire.Put(k, k))
				}
				// Preload PUTs are idempotent (value = key), so the whole
				// batch can simply be retried until every sub-op landed:
				// always after admission-control sheds, and — in resilient
				// mode — across transport failures on a fresh connection.
				backoff := time.Millisecond
				for attempt := 0; ; attempt++ {
					resp, err := cl.Do(wire.Batch(sub...))
					done := err == nil
					if err == nil {
						for i := range resp.Sub {
							if resp.Sub[i].Status == wire.StatusOverloaded {
								done = false
								break
							}
						}
					}
					if done {
						break
					}
					if err != nil {
						if !cfg.resilient() || attempt >= 20 {
							errs <- err
							return
						}
						cl.Close()
						time.Sleep(backoff)
						if cl, err = wire.Dial(cfg.Addr); err != nil {
							errs <- err
							return
						}
					} else {
						if attempt >= 50 {
							errs <- fmt.Errorf("bench: preload still shed after %d attempts", attempt)
							return
						}
						time.Sleep(backoff)
					}
					if backoff < 100*time.Millisecond {
						backoff *= 2
					}
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// netMiss reports whether a non-error response counts as a miss for
// the workload op kind that produced it: a NOT_FOUND, a PUT that
// inserted where an update was intended (or vice versa), or an empty
// scan.
func netMiss(kind workload.OpKind, resp *wire.Response) bool {
	if resp.Status == wire.StatusNotFound {
		return true
	}
	switch kind {
	case workload.OpUpdate:
		return resp.Inserted
	case workload.OpInsert:
		return !resp.Inserted
	case workload.OpScan:
		return len(resp.Pairs) == 0
	}
	return false
}

// RunNet preloads the server (unless cfg.SkipPreload) and measures
// one networked configuration: cfg.Conns workers each drive one
// pipelined connection with the configured mix for cfg.Duration, then
// drain their windows. Counts are client-observed completions.
//
// In resilient mode (cfg.Reconn, or any cfg.Chaos fault enabled) each
// worker instead drives a synchronous self-healing ReconnClient —
// with chaos, through fault-injected dials — and a request that fails
// even after the retry budget is counted in Errors rather than
// aborting the run.
func RunNet(cfg NetConfig) (NetResult, error) {
	if err := cfg.normalize(); err != nil {
		return NetResult{}, err
	}
	if !cfg.SkipPreload {
		if err := Preload(cfg); err != nil {
			return NetResult{}, err
		}
	}
	dist, err := cfg.distribution()
	if err != nil {
		return NetResult{}, err
	}

	// Resilient-mode plumbing: one injector shared by every worker's
	// dials, one registry collecting fault_* and cli_* events for the
	// report.
	var (
		reg *obs.Registry
		inj *faults.Injector
	)
	if cfg.resilient() {
		reg = obs.NewRegistry()
		if cfg.Chaos.Any() {
			chaos := *cfg.Chaos
			if chaos.Counters == nil {
				chaos.Counters = reg.NewCounters()
			}
			if chaos.Trace == nil {
				// One shared buffer: injector spans are recorded
				// unconditionally (Record is mutex-safe; Sample is not
				// called on a shared Buf).
				chaos.Trace = cfg.Trace.NewBuf(-1, -1)
			}
			inj = faults.NewInjector(chaos)
		}
	}

	type workerRes struct {
		ops        uint64
		perOp      [5]uint64
		perOpMiss  [5]uint64
		errors     uint64
		overloaded uint64
		rstats     wire.ReconnStats
		h          hist.Histogram
		err        error
	}
	results := make([]workerRes, cfg.Conns)
	smp := newSampler(cfg.Conns, cfg.SampleEvery)
	if cfg.Live != nil {
		cfg.Live.Set(nil, smp.total)
	}

	var (
		stop    atomic.Bool
		started sync.WaitGroup
		done    sync.WaitGroup
	)
	begin := make(chan struct{})
	for w := 0; w < cfg.Conns; w++ {
		w := w
		started.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			res := &results[w]
			rng := workload.NewRNG(uint64(w)*0x9E3779B97F4A7C15 + 1)
			insertSeq := uint64(cfg.Records) + uint64(w)<<40
			cell := smp.cell(w)

			// draw builds the next request per the configured mix.
			draw := func() (workload.OpKind, wire.Request) {
				op := cfg.Mix.Draw(rng)
				k := cfg.KeySpace.Key(dist.Next(rng))
				var req wire.Request
				switch op {
				case workload.OpLookup:
					req = wire.Get(k)
				case workload.OpUpdate:
					req = wire.Put(k, rng.Uint64())
				case workload.OpInsert:
					insertSeq++
					ik := cfg.KeySpace.Key(insertSeq)
					req = wire.Put(ik, insertSeq)
				case workload.OpDelete:
					req = wire.Del(k)
				case workload.OpScan:
					req = wire.Scan(k, uint32(cfg.ScanLen))
				}
				return op, req
			}

			if cfg.resilient() {
				rc := &wire.ReconnClient{
					Addr:       cfg.Addr,
					MaxRetries: cfg.MaxRetries,
					Counters:   reg.NewCounters(),
					Trace:      cfg.Trace.NewBuf(-1, w),
				}
				if inj != nil {
					rc.DialFunc = inj.Dial
				}
				defer rc.Close()
				defer func() { res.rstats = rc.Stats() }()
				started.Done()
				<-begin
				for !stop.Load() {
					kind, req := draw()
					var t0 time.Time
					if cfg.Latency && rng.Uint64n(16) == 0 {
						t0 = time.Now()
					}
					resp, err := rc.Do(req)
					if err != nil {
						// Retry budget exhausted (or an indeterminate
						// write): the failure is the data point.
						res.errors++
						continue
					}
					switch resp.Status {
					case wire.StatusErr:
						res.errors++
					case wire.StatusOverloaded:
						res.overloaded++
					default:
						if netMiss(kind, &resp) {
							res.perOpMiss[kind]++
						}
					}
					res.perOp[kind]++
					if !t0.IsZero() {
						res.h.Record(uint64(time.Since(t0)))
					}
					res.ops++
					cell.n.Add(1)
				}
				return
			}

			cl, err := wire.Dial(cfg.Addr)
			if err != nil {
				res.err = err
				started.Done()
				return
			}
			defer cl.Close()

			// inflight remembers each outstanding request's workload op
			// kind and send time, FIFO alongside the client's pending
			// queue.
			type sent struct {
				kind workload.OpKind
				t0   time.Time
			}
			inflight := make([]sent, 0, cfg.Pipeline)

			recvOne := func() bool {
				resp, err := cl.Recv()
				if err != nil {
					res.err = err
					return false
				}
				s := inflight[0]
				inflight = inflight[1:]
				miss := false
				switch resp.Status {
				case wire.StatusErr:
					res.errors++
				case wire.StatusOverloaded:
					res.overloaded++
				default:
					miss = netMiss(s.kind, &resp)
				}
				res.perOp[s.kind]++
				if miss {
					res.perOpMiss[s.kind]++
				}
				if !s.t0.IsZero() {
					res.h.Record(uint64(time.Since(s.t0)))
				}
				res.ops++
				cell.n.Add(1)
				return true
			}

			started.Done()
			<-begin
			for !stop.Load() && res.err == nil {
				// Fill the window, then complete at least one response.
				for len(inflight) < cfg.Pipeline && !stop.Load() {
					op, req := draw()
					var t0 time.Time
					if cfg.Latency && rng.Uint64n(16) == 0 {
						t0 = time.Now()
					}
					if err := cl.Send(req); err != nil {
						res.err = err
						break
					}
					inflight = append(inflight, sent{op, t0})
				}
				if res.err != nil {
					break
				}
				if len(inflight) == 0 {
					continue
				}
				if !recvOne() {
					break
				}
			}
			// Drain the window so every sent request is accounted for.
			if res.err == nil {
				cl.Flush()
				for len(inflight) > 0 {
					if !recvOne() {
						break
					}
				}
			}
		}()
	}
	started.Wait()
	start := time.Now()
	close(begin)
	smp.start()
	time.Sleep(cfg.Duration)
	stop.Store(true)
	done.Wait()
	elapsed := time.Since(start)
	timeline := smp.finish()

	out := NetResult{Config: cfg, Elapsed: elapsed, Timeline: timeline}
	if cfg.Latency {
		out.Hist = new(hist.Histogram)
	}
	for i := range results {
		if results[i].err != nil && err == nil {
			err = results[i].err
		}
		out.Ops += results[i].ops
		out.Errors += results[i].errors
		out.Overloaded += results[i].overloaded
		out.Reconn.Dials += results[i].rstats.Dials
		out.Reconn.Reconnects += results[i].rstats.Reconnects
		out.Reconn.Retries += results[i].rstats.Retries
		out.Reconn.Overloaded += results[i].rstats.Overloaded
		out.Reconn.Failures += results[i].rstats.Failures
		for k := 0; k < 5; k++ {
			out.PerOp[k] += results[i].perOp[k]
			out.PerOpMiss[k] += results[i].perOpMiss[k]
		}
		if out.Hist != nil {
			out.Hist.Merge(&results[i].h)
		}
	}
	if reg != nil {
		out.Counters = reg.Snapshot().Map()
	}
	return out, err
}
