package optiql

// One testing.B benchmark per table and figure of the paper's
// evaluation. These are fixed-iteration, ns/op-style counterparts of
// the duration-based experiments in internal/experiments (run those
// via cmd/experiments for the paper-shaped tables). Parallel benches
// use b.SetParallelism so contention exists even at GOMAXPROCS=1;
// ns/op comparisons across schemes preserve the figures' who-wins
// ordering.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"optiql/internal/bench"
	"optiql/internal/btree"
	"optiql/internal/core"
	"optiql/internal/locks"
	"optiql/internal/obs"
	"optiql/internal/obs/trace"
	"optiql/internal/workload"
)

// parallelism multiplies GOMAXPROCS for RunParallel benches.
const parallelism = 8

func benchCtx(b *testing.B, pool *core.Pool) *locks.Ctx {
	b.Helper()
	c := locks.NewCtx(pool, 8)
	b.Cleanup(c.Close)
	return c
}

// newLoadedBTree builds a preloaded B+-tree for index benches.
func newLoadedBTree(b *testing.B, scheme string, nodeSize, records int) (*btree.Tree, *core.Pool) {
	b.Helper()
	t := btree.MustNew(btree.Config{Scheme: locks.MustByName(scheme), NodeSize: nodeSize})
	pool := core.NewPool(core.MaxQNodes)
	c := locks.NewCtx(pool, 8)
	for i := 0; i < records; i++ {
		t.Insert(c, workload.Dense.Key(uint64(i)), uint64(i))
	}
	c.Close()
	return t, pool
}

// BenchmarkFig1 is the headline comparison: B+-tree updates under
// uniform (low-contention) and self-similar (high-contention) key
// selection, OptLock vs OptiQL.
func BenchmarkFig1(b *testing.B) {
	const records = 100_000
	for _, dist := range []string{"uniform", "selfsimilar"} {
		for _, scheme := range []string{"OptLock", "OptiQL"} {
			b.Run(fmt.Sprintf("%s/%s", dist, scheme), func(b *testing.B) {
				t, pool := newLoadedBTree(b, scheme, 256, records)
				var d workload.Distribution
				if dist == "uniform" {
					d = workload.NewUniform(records)
				} else {
					d = workload.NewSelfSimilar(records, 0.2)
				}
				var seq atomic.Uint64
				b.SetParallelism(parallelism)
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					c := locks.NewCtx(pool, 8)
					defer c.Close()
					rng := workload.NewRNG(seq.Add(1))
					for pb.Next() {
						t.Update(c, workload.Dense.Key(d.Next(rng)), rng.Uint64())
					}
				})
			})
		}
	}
}

// BenchmarkFig6 stresses the pure-exclusive path of every lock variant
// on a single lock (the "extreme contention" panel).
func BenchmarkFig6(b *testing.B) {
	for _, scheme := range []string{"OptLock", "OptiQL-NOR", "OptiQL", "pthread", "MCS-RW", "TTS", "MCS"} {
		b.Run(scheme, func(b *testing.B) {
			l := locks.MustByName(scheme).NewLock()
			pool := core.NewPool(256)
			b.SetParallelism(parallelism)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				c := locks.NewCtx(pool, 4)
				defer c.Close()
				for pb.Next() {
					tok := l.AcquireEx(c)
					l.CloseWindow(tok)
					l.ReleaseEx(c, tok)
				}
			})
		})
	}
}

// BenchmarkFig7 runs the mixed 80/20 read/write ratio under high
// contention (5 locks) for the reader-capable schemes.
func BenchmarkFig7(b *testing.B) {
	for _, scheme := range []string{"OptLock", "OptiQL-NOR", "OptiQL", "pthread", "MCS-RW"} {
		b.Run(scheme, func(b *testing.B) {
			s := locks.MustByName(scheme)
			lockSet := make([]locks.Lock, bench.HighContention)
			for i := range lockSet {
				lockSet[i] = s.NewLock()
			}
			pool := core.NewPool(256)
			var seq atomic.Uint64
			b.SetParallelism(parallelism)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				c := locks.NewCtx(pool, 4)
				defer c.Close()
				rng := workload.NewRNG(seq.Add(1))
				for pb.Next() {
					l := lockSet[rng.Uint64n(uint64(len(lockSet)))]
					if rng.Uint64n(100) < 80 { // read
						for i := 0; ; i++ {
							tok, ok := l.AcquireSh(c)
							if ok && l.ReleaseSh(c, tok) {
								break
							}
							if i > 1_000_000 {
								b.Fatal("reader starved")
							}
						}
					} else {
						tok := l.AcquireEx(c)
						l.CloseWindow(tok)
						l.ReleaseEx(c, tok)
					}
				}
			})
		})
	}
}

// BenchmarkTable1 runs single read attempts against a standing writer
// queue and reports the validated-read success rate as a metric — the
// quantity Table 1 tabulates. Each iteration is one attempt (not a
// retry loop), so the benchmark completes regardless of how starved
// readers are on the current machine.
func BenchmarkTable1(b *testing.B) {
	for _, scheme := range []string{"OptiQL-NOR", "OptiQL"} {
		b.Run(scheme, func(b *testing.B) {
			l := locks.MustByName(scheme).NewLock()
			pool := core.NewPool(64)
			var stop atomic.Bool
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c := locks.NewCtx(pool, 4)
					defer c.Close()
					for !stop.Load() {
						tok := l.AcquireEx(c)
						l.CloseWindow(tok)
						l.ReleaseEx(c, tok)
					}
				}()
			}
			c := benchCtx(b, pool)
			successes := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tok, ok := l.AcquireSh(c)
				if ok && l.ReleaseSh(c, tok) {
					successes++
				}
			}
			b.StopTimer()
			stop.Store(true)
			wg.Wait()
			b.ReportMetric(float64(successes)/float64(b.N)*100, "%success")
		})
	}
}

// BenchmarkFig8 varies the critical-section length on a contended lock
// with an 80/20 read/write mix.
func BenchmarkFig8(b *testing.B) {
	for _, cs := range []int{5, 50, 200} {
		for _, scheme := range []string{"OptLock", "OptiQL-NOR", "OptiQL"} {
			b.Run(fmt.Sprintf("cs%d/%s", cs, scheme), func(b *testing.B) {
				res, err := bench.RunMicro(bench.MicroConfig{
					Scheme: scheme, Threads: 8, Locks: bench.HighContention,
					ReadPct: 80, CSLen: cs, Duration: 100_000_000, // 100ms
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Mops(), "Mops")
			})
		}
	}
}

// BenchmarkFig9 runs the skewed balanced workload on both indexes for
// each reader-capable scheme.
func BenchmarkFig9(b *testing.B) {
	const records = 100_000
	for _, index := range []string{"btree", "art"} {
		for _, scheme := range []string{"OptLock", "OptiQL-NOR", "OptiQL", "pthread", "MCS-RW"} {
			b.Run(fmt.Sprintf("%s/%s", index, scheme), func(b *testing.B) {
				cfg := bench.IndexConfig{
					Index: index, Scheme: scheme, Threads: 1, Records: records,
					Distribution: "selfsimilar", KeySpace: workload.Dense,
					Mix: workload.Balanced,
				}
				idx, pool, err := bench.BuildIndex(&cfg)
				if err != nil {
					b.Fatal(err)
				}
				d := workload.NewSelfSimilar(records, 0.2)
				var seq atomic.Uint64
				b.SetParallelism(parallelism)
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					c := locks.NewCtx(pool, 8)
					defer c.Close()
					rng := workload.NewRNG(seq.Add(1))
					for pb.Next() {
						k := workload.Dense.Key(d.Next(rng))
						if rng.Uint64n(100) < 50 {
							idx.Lookup(c, k)
						} else {
							idx.Update(c, k, rng.Uint64())
						}
					}
				})
			})
		}
	}
}

// BenchmarkFig10 runs the uniform balanced workload (low contention).
func BenchmarkFig10(b *testing.B) {
	const records = 100_000
	for _, index := range []string{"btree", "art"} {
		for _, scheme := range []string{"OptLock", "OptiQL"} {
			b.Run(fmt.Sprintf("%s/%s", index, scheme), func(b *testing.B) {
				cfg := bench.IndexConfig{
					Index: index, Scheme: scheme, Threads: 1, Records: records,
					Distribution: "uniform", KeySpace: workload.Dense,
					Mix: workload.Balanced,
				}
				idx, pool, err := bench.BuildIndex(&cfg)
				if err != nil {
					b.Fatal(err)
				}
				d := workload.NewUniform(records)
				var seq atomic.Uint64
				b.SetParallelism(parallelism)
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					c := locks.NewCtx(pool, 8)
					defer c.Close()
					rng := workload.NewRNG(seq.Add(1))
					for pb.Next() {
						k := workload.Dense.Key(d.Next(rng))
						if rng.Uint64n(100) < 50 {
							idx.Lookup(c, k)
						} else {
							idx.Update(c, k, rng.Uint64())
						}
					}
				})
			})
		}
	}
}

// BenchmarkFig11 sweeps B+-tree node sizes with the AOR variant
// included (skewed read-heavy workload).
func BenchmarkFig11(b *testing.B) {
	const records = 50_000
	for _, size := range []int{256, 1024, 4096, 16384} {
		for _, scheme := range []string{"OptiQL-NOR", "OptiQL", "OptiQL-AOR"} {
			b.Run(fmt.Sprintf("node%d/%s", size, scheme), func(b *testing.B) {
				t, pool := newLoadedBTree(b, scheme, size, records)
				d := workload.NewSelfSimilar(records, 0.2)
				var seq atomic.Uint64
				b.SetParallelism(parallelism)
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					c := locks.NewCtx(pool, 8)
					defer c.Close()
					rng := workload.NewRNG(seq.Add(1))
					for pb.Next() {
						k := workload.Dense.Key(d.Next(rng))
						if rng.Uint64n(100) < 80 {
							t.Lookup(c, k)
						} else {
							t.Update(c, k, rng.Uint64())
						}
					}
				})
			})
		}
	}
}

// BenchmarkFig12 reports per-update latency (ns/op) on the skewed
// workload — the throughput-side proxy for the tail-latency figure;
// cmd/latency prints the full percentile tables.
func BenchmarkFig12(b *testing.B) {
	const records = 100_000
	for _, scheme := range []string{"OptLock", "OptiQL-NOR", "OptiQL"} {
		b.Run(scheme, func(b *testing.B) {
			t, pool := newLoadedBTree(b, scheme, 256, records)
			d := workload.NewSelfSimilar(records, 0.2)
			var seq atomic.Uint64
			b.SetParallelism(parallelism)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				c := locks.NewCtx(pool, 8)
				defer c.Close()
				rng := workload.NewRNG(seq.Add(1))
				for pb.Next() {
					t.Update(c, workload.Dense.Key(d.Next(rng)), rng.Uint64())
				}
			})
		})
	}
}

// BenchmarkFig13 exercises ART with sparse keys (lazy expansion +
// contention expansion) under the skewed write-heavy workload.
func BenchmarkFig13(b *testing.B) {
	const records = 100_000
	for _, scheme := range []string{"OptLock", "OptiQL"} {
		for _, expand := range []bool{true, false} {
			name := scheme
			if !expand {
				name += "/noexpand"
			}
			b.Run(name, func(b *testing.B) {
				cfg := bench.IndexConfig{
					Index: "art", Scheme: scheme, Threads: 1, Records: records,
					Distribution: "selfsimilar", KeySpace: workload.Sparse,
					Mix: workload.WriteHeavy, ARTDisableExpansion: !expand,
				}
				idx, pool, err := bench.BuildIndex(&cfg)
				if err != nil {
					b.Fatal(err)
				}
				d := workload.NewSelfSimilar(records, 0.2)
				var seq atomic.Uint64
				b.SetParallelism(parallelism)
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					c := locks.NewCtx(pool, 8)
					defer c.Close()
					rng := workload.NewRNG(seq.Add(1))
					for pb.Next() {
						k := workload.Sparse.Key(d.Next(rng))
						if rng.Uint64n(100) < 20 {
							idx.Lookup(c, k)
						} else {
							idx.Update(c, k, rng.Uint64())
						}
					}
				})
			})
		}
	}
}

// BenchmarkObsOverhead is the enabled-vs-disabled A/B for the event
// counters: a uniform read-heavy B+-tree workload (the regime where a
// fixed per-op cost is most visible) run once with per-worker counters
// registered and once without. DESIGN.md records the measured delta;
// the counters are meant to be left on in normal runs.
func BenchmarkObsOverhead(b *testing.B) {
	const records = 100_000
	for _, scheme := range []string{"OptLock", "OptiQL"} {
		for _, arm := range []string{"disabled", "enabled"} {
			b.Run(fmt.Sprintf("%s/%s", scheme, arm), func(b *testing.B) {
				t, pool := newLoadedBTree(b, scheme, 256, records)
				var reg *obs.Registry
				if arm == "enabled" {
					reg = obs.NewRegistry()
				}
				d := workload.NewUniform(records)
				var seq atomic.Uint64
				b.SetParallelism(parallelism)
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					c := locks.NewCtx(pool, 8)
					defer c.Close()
					c.SetCounters(reg.NewCounters()) // nil registry -> disabled
					rng := workload.NewRNG(seq.Add(1))
					for pb.Next() {
						k := workload.Dense.Key(d.Next(rng))
						if rng.Uint64n(100) < 80 {
							t.Lookup(c, k)
						} else {
							t.Update(c, k, rng.Uint64())
						}
					}
				})
			})
		}
	}
}

// BenchmarkTraceOverhead is the acceptance A/B for the contention
// profiler: a uniform read-heavy B+-tree workload (fixed per-op costs
// are most visible here) run with tracing off, with production 1-in-
// 1024 sampling, and with every operation sampled. The budget: the
// off arm within 1% of BenchmarkObsOverhead's enabled arm, sampled-
// 1024 within 3% (DESIGN.md §11 records the measured deltas). The
// loop mirrors bench.MeasureIndex's per-op tracing exactly.
func BenchmarkTraceOverhead(b *testing.B) {
	const records = 100_000
	for _, scheme := range []string{"OptLock", "OptiQL"} {
		for _, arm := range []string{"off", "sampled-1024", "sampled-1"} {
			b.Run(fmt.Sprintf("%s/%s", scheme, arm), func(b *testing.B) {
				t, pool := newLoadedBTree(b, scheme, 256, records)
				reg := obs.NewRegistry()
				var tracer *trace.Tracer
				switch arm {
				case "sampled-1024":
					tracer = trace.New(trace.Config{SampleEvery: 1024})
				case "sampled-1":
					tracer = trace.New(trace.Config{SampleEvery: 1})
				}
				d := workload.NewUniform(records)
				var seq atomic.Uint64
				b.SetParallelism(parallelism)
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					c := locks.NewCtx(pool, 8)
					defer c.Close()
					c.SetCounters(reg.NewCounters())
					w := seq.Add(1)
					tb := tracer.NewBuf(int(w)) // nil tracer -> nil buf, all no-ops
					c.SetTrace(tb)
					rng := workload.NewRNG(w)
					for pb.Next() {
						k := workload.Dense.Key(d.Next(rng))
						ts := tb.Sample()
						var t0 int64
						if ts {
							t0 = tb.Now()
							tb.NoteKey(k)
						}
						if rng.Uint64n(100) < 80 {
							t.Lookup(c, k)
						} else {
							t.Update(c, k, rng.Uint64())
						}
						if ts {
							tb.Record(trace.KindTreeOp, 0, t0, tb.Now()-t0, 0, k)
						}
					}
				})
			})
		}
	}
}

// BenchmarkQNodeTranslation isolates the cost DESIGN.md calls out as
// OptiQL's compactness tradeoff: translating queue-node IDs through
// the pool array on the contended acquire path, versus the pointer
// MCS lock that needs no translation.
func BenchmarkQNodeTranslation(b *testing.B) {
	pool := core.NewPool(16)
	b.Run("pool-get-put", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := pool.Get()
			pool.Put(q)
		}
	})
	b.Run("translate", func(b *testing.B) {
		q := pool.Get()
		defer pool.Put(q)
		id := q.ID()
		var sink *core.QNode
		for i := 0; i < b.N; i++ {
			sink = pool.At(id)
		}
		_ = sink
	})
}
