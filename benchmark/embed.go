package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"optiql/internal/art"
	"optiql/internal/btree"
	"optiql/internal/core"
	"optiql/internal/kv"
	"optiql/internal/locks"
	"optiql/internal/obs"
)

// index is the method set btree.Tree and art.Tree share; the timed
// loop calls the trees' public methods through it.
type index interface {
	Lookup(c *locks.Ctx, k uint64) (uint64, bool)
	Insert(c *locks.Ctx, k, v uint64) bool
	Update(c *locks.Ctx, k, v uint64) bool
	Delete(c *locks.Ctx, k uint64) bool
	Scan(c *locks.Ctx, start uint64, max int, out []kv.KV) []kv.KV
	Len() int
}

// nullIndex answers without touching any layer: the loop that calls it
// is "the loop with the index call removed" (harness.ring_read_ns).
type nullIndex struct{}

func (nullIndex) Lookup(_ *locks.Ctx, k uint64) (uint64, bool)            { return k, true }
func (nullIndex) Insert(_ *locks.Ctx, _, _ uint64) bool                   { return false }
func (nullIndex) Update(_ *locks.Ctx, _, _ uint64) bool                   { return true }
func (nullIndex) Delete(_ *locks.Ctx, _ uint64) bool                      { return false }
func (nullIndex) Len() int                                                { return 0 }
func (nullIndex) Scan(_ *locks.Ctx, _ uint64, _ int, out []kv.KV) []kv.KV { return out }

const (
	embedSampleEvery = 64 // one op in 64 is timed, keeping clock reads under 2% of the loop
	embedSampleCap   = 1 << 19
	embedSpanCap     = 1 << 18
)

func newIndex(s *spec) index {
	scheme := locks.MustByName("OptiQL")
	if s.index == "art" {
		return art.MustNew(art.Config{Scheme: scheme})
	}
	return btree.MustNew(btree.Config{Scheme: scheme, NodeSize: 256})
}

// buildIndex creates the index and preloads keys 1..records with
// v = k from `workers` loaders over disjoint ranges.
func buildIndex(s *spec, records, workers int, pool *core.Pool) index {
	idx := newIndex(s)
	var wg sync.WaitGroup
	per := (records + workers - 1) / workers
	for l := 0; l < workers; l++ {
		lo, hi := l*per, min((l+1)*per, records)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := locks.NewCtx(pool, 0)
			defer c.Close()
			for i := lo; i < hi; i++ {
				k := uint64(i + 1)
				idx.Insert(c, k, k)
			}
		}()
	}
	wg.Wait()
	return idx
}

// embedWorker is one closed-loop caller: it reads its ring and calls
// the index, nothing else.
type embedWorker struct {
	ctx      *locks.Ctx
	ring     []uint64
	pos      int
	tag      uint64
	mustFind bool // no deletes in the mix: a lookup miss is a wrong answer
	scan     []kv.KV
	lat      *latLog
	start    int64 // when the current round began
	rec      *recorder

	ops, wrong, inserted, deleted uint64

	_   [64]byte
	pub atomic.Uint64 // ops so far, for the 100 ms windows
	_   [64]byte
}

// call makes the index call for one ring entry; scans land in w.scan.
func (w *embedWorker) call(idx index, kind uint8, k uint64) (v uint64, ok bool) {
	switch kind {
	case opLookup:
		return idx.Lookup(w.ctx, k)
	case opUpdate:
		return 0, idx.Update(w.ctx, k, k^w.tag)
	case opInsert:
		return 0, idx.Insert(w.ctx, k, k^w.tag)
	case opDelete:
		return 0, idx.Delete(w.ctx, k)
	case opScan:
		w.scan = idx.Scan(w.ctx, k, scanLen, w.scan[:0])
	}
	return 0, false
}

// check verifies the answer to one call and counts what the final
// full-scan check needs.
func (w *embedWorker) check(kind uint8, k, v uint64, ok bool) {
	switch kind {
	case opLookup:
		if ok && !valueOK(k, v) || !ok && w.mustFind {
			w.wrong++
		}
	case opInsert:
		if ok {
			w.inserted++
		}
	case opDelete:
		if ok {
			w.deleted++
		}
	case opScan:
		if !scanOK(w.scan, k) || w.mustFind && len(w.scan) == 0 {
			w.wrong++
		}
	}
}

// do runs one ring entry against the index and checks the answer.
func (w *embedWorker) do(idx index, e uint64) {
	kind, k := uint8(e>>opShift), e&keyMask
	v, ok := w.call(idx, kind, k)
	w.check(kind, k, v, ok)
}

// scanOK checks that pairs start at or after `start`, ascend strictly
// and carry values that belong to their keys.
func scanOK(pairs []kv.KV, start uint64) bool {
	prev := start
	for i, p := range pairs {
		if p.Key < prev || i > 0 && p.Key == prev || !valueOK(p.Key, p.Value) {
			return false
		}
		prev = p.Key
	}
	return true
}

// traced runs one sampled entry with the span recorder on: the ring
// read and the index call are children of the op span; what is left is
// the answer check.
func (w *embedWorker) traced(idx index, i int) {
	t0 := now()
	e := w.ring[i&(len(w.ring)-1)]
	kind, k := uint8(e>>opShift), e&keyMask
	t1 := now()
	v, ok := w.call(idx, kind, k)
	t2 := now()
	w.check(kind, k, v, ok)
	t3 := now()
	w.lat.add(t0-w.start, t3-t0)
	if w.rec.room(3) {
		req := w.ops
		p := w.rec.add(spOp, t0, t3, -1, req)
		w.rec.add(spRingRead, t0, t1, p, req)
		w.rec.add(spLookup+kind, t1, t2, p, req)
	}
}

// loop is the timed loop: blocks of 64 ring entries, the first one
// timed. The phase shifts by one entry per pass over the ring so every
// slot is sampled eventually.
func (w *embedWorker) loop(idx index, stop *atomic.Bool) {
	mask := len(w.ring) - 1
	i := w.pos
	for !stop.Load() {
		if w.rec != nil {
			w.traced(idx, i)
		} else {
			t0 := now()
			w.do(idx, w.ring[i&mask])
			w.lat.add(t0-w.start, now()-t0)
		}
		for j := 1; j < embedSampleEvery; j++ {
			w.do(idx, w.ring[(i+j)&mask])
		}
		i += embedSampleEvery
		if i&mask < embedSampleEvery {
			i++
		}
		w.ops += embedSampleEvery
		w.pub.Store(w.ops)
	}
	w.pos = i
}

// embedRound is what one round of the closed loop measured.
type embedRound struct {
	opsS, cpuUSPerOp      float64
	p50ns, p99ns          []float64 // per latency window
	minSamples            int       // in any latency window
	fairness, windowFloor float64
	ops                   uint64
}

// runEmbedRound runs every worker for dur and reads the clock, rusage
// and the published counts around them.
func runEmbedRound(ws []*embedWorker, idx index, dur time.Duration) embedRound {
	var stop atomic.Bool
	var wg sync.WaitGroup
	before := make([]uint64, len(ws))
	cpu0 := selfCPU()
	t0 := now()
	logs := make([]*latLog, len(ws))
	for i, w := range ws {
		before[i] = w.ops
		w.lat.reset()
		w.start = t0
		logs[i] = w.lat
	}
	for _, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.loop(idx, &stop)
		}()
	}
	floor := windowFloor(t0, dur, func() uint64 { return sumPub(ws) })
	stop.Store(true)
	wg.Wait()
	elapsed := float64(now()-t0) / 1e9
	cpu := selfCPU() - cpu0

	var r embedRound
	lo, hi := ^uint64(0), uint64(0)
	for i, w := range ws {
		n := w.ops - before[i]
		r.ops += n
		lo, hi = min(lo, n), max(hi, n)
	}
	r.p50ns, r.p99ns, r.minSamples = windowPercentiles(logs, int(dur/latWindow))
	r.opsS = float64(r.ops) / elapsed
	r.cpuUSPerOp = cpu * 1e6 / float64(r.ops)
	r.fairness = float64(hi) / float64(max(lo, 1))
	r.windowFloor = floor
	return r
}

// windowFloor sleeps until t0+dur, reading count() about every 100 ms,
// and returns the 5th percentile of the windows' rates over their
// median (locks.window_floor_frac): how far throughput dips.
func windowFloor(t0 int64, dur time.Duration, count func() uint64) float64 {
	var rates []float64
	last, lastT := count(), t0
	for end := t0 + int64(dur); ; {
		left := end - now()
		if left <= 0 {
			break
		}
		time.Sleep(min(time.Duration(left), 100*time.Millisecond))
		cur, t := count(), now()
		if t-lastT > int64(50*time.Millisecond) {
			rates = append(rates, float64(cur-last)/float64(t-lastT))
		}
		last, lastT = cur, t
	}
	if len(rates) < 5 {
		return 0
	}
	slices.Sort(rates)
	return percentile(rates, 0.05) / median(rates)
}

func sumPub(ws []*embedWorker) uint64 {
	var s uint64
	for _, w := range ws {
		s += w.pub.Load()
	}
	return s
}

// selfCPU is this process's user+system CPU time in seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func heapInuseMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// fullScan walks the whole index and returns the number of pairs, or
// an error text if the output is not strictly ascending or a value
// does not belong to its key.
func fullScan(idx index, c *locks.Ctx) (int, string) {
	var buf []kv.KV
	count, start := 0, uint64(0)
	for {
		buf = idx.Scan(c, start, 4096, buf[:0])
		if len(buf) == 0 {
			return count, ""
		}
		if !scanOK(buf, start) {
			return count, fmt.Sprintf("scan from key %d is not strictly ascending with matching values", start)
		}
		count += len(buf)
		start = buf[len(buf)-1].Key + 1
	}
}

// runEmbedded runs one embedded workload: the untraced end-to-end pass
// or, with traced set, the per-layer pass.
func runEmbedded(e *env, s *spec, p params, traced bool, plant func(idx index, c *locks.Ctx)) *result {
	res := newResult(s, p.seed)
	records := p.records(s)
	pool := core.NewPool(core.MaxQNodes)
	reg := obs.NewRegistry()

	// Set-up: build and preload, p.setups times; setup_s is the median.
	var idx index
	var setups []float64
	for i := 0; i < p.setups; i++ {
		idx = nil
		runtime.GC()
		t0 := now()
		idx = buildIndex(s, records, p.workers, pool)
		setups = append(setups, float64(now()-t0)/1e9)
	}
	mem := heapInuseMiB()

	mustFind := s.share(opDelete) == 0
	d := newDist(s, records)
	ws := make([]*embedWorker, p.workers)
	for i := range ws {
		c := locks.NewCtx(pool, 0)
		defer c.Close()
		c.SetCounters(reg.NewCounters())
		ws[i] = &embedWorker{
			ctx: c, ring: genRing(s, d, records, p.ringLen, p.seed, i, p.workers),
			tag: uint64(i+1) << tagShift, mustFind: mustFind,
			scan: make([]kv.KV, 0, scanLen), lat: newLatLog(embedSampleCap),
		}
	}
	if plant != nil {
		plant(idx, ws[0].ctx)
	}

	var calib []float64
	round := func(sec float64) embedRound {
		calib = append(calib, calibrate())
		return runEmbedRound(ws, idx, time.Duration(sec*float64(time.Second)))
	}
	round(p.warmup())
	ev0 := reg.Snapshot()
	ops0 := totalOps(ws)
	T := p.roundSeconds(s)

	if !traced {
		var opsS, cpu []float64
		var lat latWindows
		for i := 0; i < p.rounds(s); i++ {
			r := round(T)
			opsS, cpu = append(opsS, r.opsS), append(cpu, r.cpuUSPerOp)
			lat.add(r.p50ns, r.p99ns, r.minSamples)
		}
		res.setRounds("ops_s", opsS)
		res.setRounds("cpu_us_per_op", cpu)
		res.set("mem_mb", mem, 1)
		res.setRounds("setup_s", setups)
		lat.report(res, "closed loop, 1 op in 64", closedLoopWindow, p.smoke)
		res.note("closed loop, %d callers that each wait for the reply; latency sampled 1 in %d", p.workers, embedSampleEvery)
	} else {
		// U T U T: the untraced rounds give the base for the overhead.
		recs := make([]*recorder, len(ws))
		for i := range recs {
			recs[i] = newRecorder(embedSpanCap)
		}
		var un, tr, fair, floor []float64
		for i := 0; i < 2; i++ {
			r := round(T)
			un = append(un, r.opsS)
			fair, floor = append(fair, r.fairness), append(floor, r.windowFloor)
			for j, w := range ws {
				w.rec = recs[j]
			}
			tr = append(tr, round(T).opsS)
			for _, w := range ws {
				w.rec = nil
			}
		}
		ev := reg.Snapshot()
		kops := float64(totalOps(ws)-ops0) / 1e3
		delta := func(e obs.Event) float64 { return float64(ev.Get(e) - ev0.Get(e)) }
		layerLocks(res, delta, kops)
		res.set("locks.fairness_ratio", median(fair), len(fair))
		res.set("locks.window_floor_frac", median(floor), len(floor))
		res.set("trace.overhead_frac", (median(un)-median(tr))/median(un), len(un)+len(tr))
		res.Rounds["ops_s.untraced"], res.Rounds["ops_s.traced"] = un, tr

		byName := durationsByName(recs)
		for kind := 0; kind < numOps; kind++ {
			name := fmt.Sprintf("%s.%s_ns", s.index, spanNames[spLookup+kind])
			if _, ok := defOf(name); !ok {
				continue
			}
			if ds := byName[spLookup+kind]; len(ds) > 0 {
				res.set(name, float64(percentile(ds, 0.5)), len(ds))
			}
		}
		if s.index == "btree" {
			res.set("btree.split_per_kop", delta(obs.EvBTreeSplit)/kops, int(kops))
		} else if t, ok := idx.(*art.Tree); ok {
			res.set("art.expansion_count", float64(t.Expansions()), 1)
		}
		if err := writeTrace(e.tracePath(s.name), s.name, p.seed, recs); err != nil {
			res.note("trace file not written: %v", err)
		}

		// The loop with the index call removed, on workers of its own
		// so that its "answers" are not counted as the index's.
		null := make([]*embedWorker, len(ws))
		for i, w := range ws {
			null[i] = &embedWorker{ring: w.ring, lat: w.lat}
		}
		r := runEmbedRound(null, nullIndex{}, time.Duration(min(T, 0.5)*float64(time.Second)))
		res.set("harness.ring_read_ns", float64(p.workers)*1e9/r.opsS, int(r.ops))
		res.note("loop time per op = workers/ops_s = %.1f ns untraced; index self time = loop time - harness.ring_read_ns", float64(p.workers)*1e9/median(un))
	}
	setCalib(res, calib)

	// Correctness: answers were checked op by op; now the whole index.
	var wrong, ins, del uint64
	for _, w := range ws {
		wrong, ins, del = wrong+w.wrong, ins+w.inserted, del+w.deleted
	}
	res.Attempted = totalOps(ws)
	res.Failed = wrong
	count, bad := fullScan(idx, ws[0].ctx)
	want := records + int(ins) - int(del)
	switch {
	case bad != "":
		res.fail("%s", bad)
	case count != want || idx.Len() != want:
		res.fail("full scan found %d pairs, Len %d, want preload %d + inserts %d - deletes %d = %d", count, idx.Len(), records, ins, del, want)
	default:
		res.check("full scan: %d pairs = preload %d + inserts %d - deletes %d, strictly ascending, values match keys", count, records, ins, del)
	}
	if wrong > 0 {
		res.fail("%d answers failed the value/key check or missed a key that must exist", wrong)
	} else {
		res.check("%d answers checked against their keys", res.Attempted)
	}
	if !traced {
		res.set("ok_frac", 1-res.failedFrac(), int(min(res.Attempted, 1<<31)))
	} else {
		res.set("load.failed_frac", res.failedFrac(), int(min(res.Attempted, 1<<31)))
		absentFor(res, s)
	}
	return res
}

func totalOps(ws []*embedWorker) uint64 {
	var n uint64
	for _, w := range ws {
		n += w.ops
	}
	return n
}

// layerLocks turns lock-event counter deltas into the locks.* metrics.
func layerLocks(res *result, d func(obs.Event) float64, kops float64) {
	n := int(kops)
	grants := d(obs.EvExFree) + d(obs.EvExHandover) + d(obs.EvUpgradeOK)
	res.set("locks.handover_frac", d(obs.EvExHandover)/max(grants, 1), int(grants))
	res.set("locks.restart_per_kop", d(obs.EvOpRestart)/kops, n)
	res.set("locks.validate_fail_per_kop", d(obs.EvShValidateFail)/kops, n)
	res.set("locks.opportunistic_admit_per_kop", d(obs.EvShOpportunistic)/kops, n)
}
