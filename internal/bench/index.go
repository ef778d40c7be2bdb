package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"optiql/internal/art"
	"optiql/internal/btree"
	"optiql/internal/core"
	"optiql/internal/hist"
	"optiql/internal/kv"
	"optiql/internal/locks"
	"optiql/internal/obs"
	"optiql/internal/obs/trace"
	"optiql/internal/workload"
)

// Index abstracts the two substrates for the benchmark driver.
type Index interface {
	Lookup(c *locks.Ctx, k uint64) (uint64, bool)
	Insert(c *locks.Ctx, k, v uint64) bool
	Update(c *locks.Ctx, k, v uint64) bool
	Delete(c *locks.Ctx, k uint64) bool
	// Scan reads up to n pairs starting at k into buf (reused across
	// calls so the measured loop does not allocate), returning how many
	// it saw; indexes without range support return -1.
	Scan(c *locks.Ctx, k uint64, n int, buf []kv.KV) int
}

type btreeIndex struct{ t *btree.Tree }

func (b btreeIndex) Lookup(c *locks.Ctx, k uint64) (uint64, bool) { return b.t.Lookup(c, k) }
func (b btreeIndex) Insert(c *locks.Ctx, k, v uint64) bool        { return b.t.Insert(c, k, v) }
func (b btreeIndex) Update(c *locks.Ctx, k, v uint64) bool        { return b.t.Update(c, k, v) }
func (b btreeIndex) Delete(c *locks.Ctx, k uint64) bool           { return b.t.Delete(c, k) }
func (b btreeIndex) Scan(c *locks.Ctx, k uint64, n int, buf []kv.KV) int {
	return len(b.t.Scan(c, k, n, buf[:0]))
}

type artIndex struct{ t *art.Tree }

func (a artIndex) Lookup(c *locks.Ctx, k uint64) (uint64, bool) { return a.t.Lookup(c, k) }
func (a artIndex) Insert(c *locks.Ctx, k, v uint64) bool        { return a.t.Insert(c, k, v) }
func (a artIndex) Update(c *locks.Ctx, k, v uint64) bool        { return a.t.Update(c, k, v) }
func (a artIndex) Delete(c *locks.Ctx, k uint64) bool           { return a.t.Delete(c, k) }
func (a artIndex) Scan(c *locks.Ctx, k uint64, n int, buf []kv.KV) int {
	return len(a.t.Scan(c, k, n, buf[:0]))
}

// IndexConfig parameterizes one index benchmark run.
type IndexConfig struct {
	// Index is "btree" or "art".
	Index string
	// Scheme is the lock variant name.
	Scheme string
	// Threads is the number of worker goroutines.
	Threads int
	// Records preloaded before the measured phase (paper: 100M; default
	// here 1M — see DESIGN.md).
	Records int
	// NodeSize is the B+-tree node size in bytes (default 256).
	NodeSize int
	// Distribution is "uniform", "selfsimilar" or "zipf".
	Distribution string
	// Skew is the self-similar skew factor (default 0.2) or the zipf
	// theta.
	Skew float64
	// KeySpace selects dense or sparse keys.
	KeySpace workload.KeySpace
	// Mix is the operation mix.
	Mix workload.Mix
	// Duration is the measured run length.
	Duration time.Duration
	// Latency enables sampled per-operation latency collection.
	Latency bool
	// ScanLen is the number of pairs per scan operation (default 16).
	ScanLen int
	// ARTExpandThreshold / ARTSampleInverse / ARTDisableExpansion tune
	// contention expansion (Section 6.2) for ablations.
	ARTExpandThreshold  uint32
	ARTSampleInverse    uint32
	ARTDisableExpansion bool
	// SampleEvery is the throughput-timeline sampling interval
	// (DefaultSampleEvery when zero; negative disables the timeline).
	SampleEvery time.Duration
	// DisableObs turns event counting off for the run — the control arm
	// of the overhead A/B benchmark; leave it false in normal use.
	DisableObs bool
	// Live, when set, is pointed at this run's counters and operation
	// total so an HTTP endpoint can serve them while the run is hot.
	Live *obs.LiveSource `json:"-"`
	// Trace, when set, samples lock-wait and tree-op spans into the
	// contention profiler (internal/obs/trace); the report then carries
	// lock-wait percentiles and hot-key rankings, and Live serves them
	// at /debug/contention.
	Trace *trace.Tracer `json:"-"`
}

func (c *IndexConfig) normalize() error {
	if c.Index != "btree" && c.Index != "art" {
		return fmt.Errorf("bench: unknown index %q", c.Index)
	}
	if _, err := locks.ByName(c.Scheme); err != nil {
		return err
	}
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.Records <= 0 {
		c.Records = 1_000_000
	}
	if c.NodeSize == 0 {
		c.NodeSize = btree.DefaultNodeSize
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
	if c.SampleEvery == 0 {
		c.SampleEvery = DefaultSampleEvery
	}
	return c.Mix.Validate()
}

func (c *IndexConfig) distribution() (workload.Distribution, error) {
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

// IndexResult aggregates one index benchmark run.
type IndexResult struct {
	Config  IndexConfig
	Elapsed time.Duration
	Ops     uint64
	// PerOp counts completed operations by kind (hits and misses).
	PerOp [5]uint64
	// PerOpMiss counts, per kind, the operations that did not find
	// their key (failed lookups/updates/deletes, inserts that fell back
	// to overwriting an existing key, scans returning nothing), so hit
	// rates are visible instead of conflated into PerOp.
	PerOpMiss [5]uint64
	// Hist is the sampled operation latency distribution (nil unless
	// Config.Latency).
	Hist *hist.Histogram
	// Expansions reports ART contention expansions during the run.
	Expansions int
	// Obs is the merged event-counter snapshot (nil when counting was
	// disabled).
	Obs *obs.Snapshot
	// Timeline is the per-interval throughput series (nil when sampling
	// was disabled).
	Timeline *Timeline
}

// Mops returns throughput in million operations per second (0 for an
// empty or unmeasured run rather than NaN/Inf).
func (r IndexResult) Mops() float64 {
	if s := r.Elapsed.Seconds(); s > 0 {
		return float64(r.Ops) / s / 1e6
	}
	return 0
}

// BuildIndex creates and preloads the index for cfg, returning it with
// the queue-node pool sized for the run. Exposed so callers can reuse
// one preloaded index across measured runs (as the repeated-runs
// methodology does).
func BuildIndex(cfg *IndexConfig) (Index, *core.Pool, error) {
	if err := cfg.normalize(); err != nil {
		return nil, nil, err
	}
	scheme := locks.MustByName(cfg.Scheme)
	var idx Index
	switch cfg.Index {
	case "btree":
		t, err := btree.New(btree.Config{Scheme: scheme, NodeSize: cfg.NodeSize})
		if err != nil {
			return nil, nil, err
		}
		idx = btreeIndex{t}
	case "art":
		t, err := art.New(art.Config{
			Scheme:           scheme,
			ExpandThreshold:  cfg.ARTExpandThreshold,
			SampleInverse:    cfg.ARTSampleInverse,
			DisableExpansion: cfg.ARTDisableExpansion,
		})
		if err != nil {
			return nil, nil, err
		}
		idx = artIndex{t}
	}
	pool := core.NewPool(core.MaxQNodes)

	// Parallel preload over disjoint ranges.
	loaders := cfg.Threads
	if loaders > 16 {
		loaders = 16
	}
	var wg sync.WaitGroup
	per := (cfg.Records + loaders - 1) / loaders
	for l := 0; l < loaders; l++ {
		lo := l * per
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
			c := locks.NewCtx(pool, 8)
			defer c.Close()
			for i := lo; i < hi; i++ {
				k := cfg.KeySpace.Key(uint64(i))
				idx.Insert(c, k, k)
			}
		}(lo, hi)
	}
	wg.Wait()
	return idx, pool, nil
}

// RunIndex builds, preloads and measures one configuration.
func RunIndex(cfg IndexConfig) (IndexResult, error) {
	idx, pool, err := BuildIndex(&cfg)
	if err != nil {
		return IndexResult{}, err
	}
	return MeasureIndex(cfg, idx, pool)
}

// MeasureIndex runs the measured phase against a preloaded index.
func MeasureIndex(cfg IndexConfig, idx Index, pool *core.Pool) (IndexResult, error) {
	if err := cfg.normalize(); err != nil {
		return IndexResult{}, err
	}
	dist, err := cfg.distribution()
	if err != nil {
		return IndexResult{}, err
	}

	type workerRes struct {
		ops       uint64
		perOp     [5]uint64
		perOpMiss [5]uint64
		h         hist.Histogram
	}
	results := make([]workerRes, cfg.Threads)

	// A nil registry hands out nil (disabled) counter sets, so the
	// workers need no enabled/disabled branches.
	var reg *obs.Registry
	if !cfg.DisableObs {
		reg = obs.NewRegistry()
	}
	smp := newSampler(cfg.Threads, cfg.SampleEvery)
	if cfg.Live != nil {
		cfg.Live.Set(reg.Snapshot, smp.total)
		if cfg.Trace != nil {
			tr := cfg.Trace
			cfg.Live.SetContention(func() *obs.ContentionReport {
				return obs.ContentionFrom(tr)
			})
		}
	}

	var (
		stop    atomic.Bool
		started sync.WaitGroup
		done    sync.WaitGroup
	)
	// Inserted keys beyond the preload range are drawn from per-thread
	// disjoint sequences, PiBench style.
	begin := make(chan struct{})
	for w := 0; w < cfg.Threads; w++ {
		w := w
		started.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			c := locks.NewCtx(pool, 8)
			defer c.Close()
			c.SetCounters(reg.NewCounters())
			tb := cfg.Trace.NewBuf(w)
			c.SetTrace(tb)
			rng := workload.NewRNG(uint64(w)*0x9E3779B97F4A7C15 + 1)
			insertSeq := uint64(cfg.Records) + uint64(w)<<40
			scanBuf := make([]kv.KV, 0, cfg.ScanLen)
			res := &results[w]
			cell := smp.cell(w)
			started.Done()
			<-begin
			for !stop.Load() {
				op := cfg.Mix.Draw(rng)
				k := cfg.KeySpace.Key(dist.Next(rng))
				sample := cfg.Latency && rng.Uint64n(16) == 0
				var t0 time.Time
				if sample {
					t0 = time.Now()
				}
				// Trace sampling is independent of the latency sampler:
				// it uses the buffer's own 1-in-N counter so the hot
				// path pays only an increment-and-mask when tracing is
				// on and nothing when tb is nil.
				ts := tb.Sample()
				var tt0 int64
				if ts {
					tt0 = tb.Now()
					tb.NoteKey(k)
				}
				hit := true
				switch op {
				case workload.OpLookup:
					_, hit = idx.Lookup(c, k)
				case workload.OpUpdate:
					hit = idx.Update(c, k, rng.Uint64())
				case workload.OpInsert:
					insertSeq++
					hit = idx.Insert(c, cfg.KeySpace.Key(insertSeq), insertSeq)
				case workload.OpDelete:
					hit = idx.Delete(c, k)
				case workload.OpScan:
					hit = idx.Scan(c, k, cfg.ScanLen, scanBuf) > 0
				}
				if ts {
					tb.Record(trace.KindTreeOp, uint8(op), tt0, tb.Now()-tt0, 0, k)
				}
				if sample {
					res.h.Record(uint64(time.Since(t0)))
				}
				res.perOp[op]++
				if !hit {
					res.perOpMiss[op]++
				}
				res.ops++
				cell.n.Add(1)
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

	out := IndexResult{Config: cfg, Elapsed: elapsed, Timeline: timeline}
	if cfg.Latency {
		out.Hist = new(hist.Histogram)
	}
	for i := range results {
		out.Ops += results[i].ops
		for k := 0; k < 5; k++ {
			out.PerOp[k] += results[i].perOp[k]
			out.PerOpMiss[k] += results[i].perOpMiss[k]
		}
		if out.Hist != nil {
			out.Hist.Merge(&results[i].h)
		}
	}
	if a, ok := idx.(artIndex); ok {
		out.Expansions = a.t.Expansions()
	}
	if reg != nil {
		s := reg.Snapshot()
		out.Obs = &s
	}
	return out, nil
}
