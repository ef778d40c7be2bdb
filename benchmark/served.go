package main

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"optiql/internal/obs"
	"optiql/internal/server/wire"
)

const (
	preloadBatch  = 1024
	preloadWindow = 4
	restartSample = 1000 // keys per connection checked after the kill -9 restart
)

// servedRun is one daemon with its connections.
type servedRun struct {
	e       *env
	s       *spec
	p       params
	records int
	d       *daemon
	walDir  string
	rmWAL   func()
	conns   []*loadConn
}

// setUp spawns the daemon, waits for it, connects and preloads keys
// 1..records with v = k by batched PUTs. Its duration is setup_s; with
// the WAL on it includes logging the preload.
func (r *servedRun) setUp() error {
	if r.s.wal {
		dir, rm, err := r.e.tempDir("wal-")
		if err != nil {
			return err
		}
		r.walDir, r.rmWAL = dir, rm
	}
	d, err := r.e.startDaemon(r.p.workers, r.walDir)
	if err != nil {
		return err
	}
	r.d = d
	r.conns = make([]*loadConn, r.p.workers)
	for i := range r.conns {
		c, err := dialConn(d.addr)
		if err != nil {
			return err
		}
		r.conns[i] = newLoadConn(c, nil, nil)
	}
	return r.preload()
}

// preload splits the key range over the connections; each keeps a few
// BATCH requests in flight.
func (r *servedRun) preload() error {
	errs := make([]error, len(r.conns))
	var wg sync.WaitGroup
	per := (r.records + len(r.conns) - 1) / len(r.conns)
	for i, l := range r.conns {
		lo, hi := i*per+1, min((i+1)*per, r.records)+1
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = preloadRange(l.c, uint64(lo), uint64(hi))
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

func preloadRange(c *conn, lo, hi uint64) error {
	var reqs []wire.Request
	recv := func() error {
		payload, err := c.readFrame()
		if err != nil {
			return err
		}
		resp, err := wire.ParseResponse(payload, &reqs[0])
		if err != nil {
			return err
		}
		if resp.Status != wire.StatusOK || len(resp.Sub) != len(reqs[0].Sub) {
			return fmt.Errorf("batch answered status %d with %d of %d sub-responses", resp.Status, len(resp.Sub), len(reqs[0].Sub))
		}
		for _, sub := range resp.Sub {
			if sub.Status != wire.StatusOK || !sub.Inserted {
				return fmt.Errorf("preload PUT answered status %d inserted=%v", sub.Status, sub.Inserted)
			}
		}
		reqs = reqs[1:]
		return nil
	}
	for k := lo; k < hi; {
		sub := make([]wire.Request, 0, preloadBatch)
		for ; k < hi && len(sub) < preloadBatch; k++ {
			sub = append(sub, wire.Put(k, k))
		}
		req := wire.Batch(sub...)
		reqs = append(reqs, req)
		if err := c.encode(&req); err != nil {
			return err
		}
		if err := c.flush(); err != nil {
			return err
		}
		if len(reqs) >= preloadWindow {
			if err := recv(); err != nil {
				return err
			}
		}
	}
	for len(reqs) > 0 {
		if err := recv(); err != nil {
			return err
		}
	}
	return nil
}

// tearDown closes the connections and kills the daemon; used between
// set-up repetitions and on errors.
func (r *servedRun) tearDown() {
	for _, l := range r.conns {
		if l != nil {
			l.c.close()
		}
	}
	r.conns = nil
	if r.d != nil {
		r.d.kill()
		r.d = nil
	}
	if r.rmWAL != nil {
		r.rmWAL()
		r.rmWAL = nil
	}
}

// closedRound is what one closed-loop round measured.
type closedRound struct {
	opsS, fairness, windowFloor float64
	ops                         uint64
	// Latency from encode to checked answer, per latency window.
	p50ns, p99ns []float64
	minSamples   int
	// CPU seconds over the round, for the budget table.
	genCPU, dUser, dSys, idle, elapsed float64
}

func (r *servedRun) doneSum() uint64 {
	var n uint64
	for _, l := range r.conns {
		n += l.done.Load()
	}
	return n
}

// closedRound runs nproc connections x window for dur.
func (r *servedRun) closedRound(dur time.Duration) closedRound {
	var stop atomic.Bool
	var wg sync.WaitGroup
	before := make([]uint64, len(r.conns))
	for i, l := range r.conns {
		before[i] = l.done.Load()
		l.lat.reset()
	}
	gen0, idle0 := selfCPU(), systemIdle()
	ps0, _ := readProc(r.d.pid())
	t0 := now()
	for _, l := range r.conns {
		l.start = t0
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.closedLoop(&stop, r.s.window)
		}()
	}
	floor := windowFloor(t0, dur, r.doneSum)
	stop.Store(true)
	wg.Wait()
	cr := closedRound{elapsed: float64(now()-t0) / 1e9}
	ps1, _ := readProc(r.d.pid())
	cr.genCPU, cr.idle = selfCPU()-gen0, systemIdle()-idle0
	cr.dUser, cr.dSys = ps1.user-ps0.user, ps1.sys-ps0.sys
	lo, hi := ^uint64(0), uint64(0)
	for i, l := range r.conns {
		n := l.done.Load() - before[i]
		cr.ops += n
		lo, hi = min(lo, n), max(hi, n)
	}
	cr.opsS = float64(cr.ops) / cr.elapsed
	cr.fairness = float64(hi) / float64(max(lo, 1))
	cr.windowFloor = floor
	logs := make([]*latLog, len(r.conns))
	for i, l := range r.conns {
		logs[i] = l.lat
	}
	cr.p50ns, cr.p99ns, cr.minSamples = windowPercentiles(logs, int(dur/latWindow))
	return cr
}

// openStats is what one open-loop round measured over all connections.
type openStats struct {
	p50ns, p99ns                []float64 // per latency window
	minSamples                  int       // in any latency window
	cpuUSPerOp                  float64
	lateP99us, achieved, sloMis float64
	samples                     int
	scheduled                   int
	answered                    int
	userUS, sysUS, ctxsw        float64 // daemon, per answered op
	genCPUFrac                  float64
}

// openRound sends at the workload's frozen rate for dur.
func (r *servedRun) openRound(dur time.Duration) openStats {
	interval := 1e9 * float64(len(r.conns)) / float64(r.s.openRate)
	failed0 := r.failedSum()
	gen0 := selfCPU()
	ps0, _ := readProc(r.d.pid())
	start := now() + int64(2*time.Millisecond)
	end := start + int64(dur)
	logs := make([]*latLog, len(r.conns))
	for i, l := range r.conns {
		l.lat.reset()
		l.late = l.late[:0]
		l.start = start
		logs[i] = l.lat
	}
	rounds := make([]openRound, len(r.conns))
	var wg sync.WaitGroup
	for i, l := range r.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Stagger the connections across one interval.
			off := int64(interval) * int64(i) / int64(len(r.conns))
			rounds[i] = l.openLoop(start+off, end, interval)
		}()
	}
	wg.Wait()
	ps1, _ := readProc(r.d.pid())
	gen := selfCPU() - gen0

	var os openStats
	var late []uint32
	sent, over := 0, 0
	slo := uint32(r.s.sloUS * 1e3)
	for i, l := range r.conns {
		os.scheduled += rounds[i].scheduled
		sent += rounds[i].sent
		os.answered += rounds[i].answered
		os.samples += len(l.lat.ns)
		late = append(late, l.late...)
		for _, ns := range l.lat.ns {
			if ns > slo {
				over++
			}
		}
	}
	slices.Sort(late)
	os.p50ns, os.p99ns, os.minSamples = windowPercentiles(logs, int(dur/latWindow))
	os.lateP99us = float64(percentile(late, 0.99)) / 1e3
	os.achieved = float64(sent) / float64(max(os.scheduled, 1))
	missed := over + (os.scheduled - os.answered) + int(r.failedSum()-failed0)
	os.sloMis = float64(missed) / float64(max(os.scheduled, 1))
	n := float64(max(os.answered, 1))
	os.userUS, os.sysUS = (ps1.user-ps0.user)*1e6/n, (ps1.sys-ps0.sys)*1e6/n
	os.ctxsw = (ps1.ctxsw - ps0.ctxsw) / n
	os.cpuUSPerOp = os.userUS + os.sysUS
	if total := gen + (ps1.user - ps0.user) + (ps1.sys - ps0.sys); total > 0 {
		os.genCPUFrac = gen / total
	}
	return os
}

func (r *servedRun) failedSum() uint64 {
	var n uint64
	for _, l := range r.conns {
		n += l.st.failed
	}
	return n
}

// scanAll walks the daemon's whole key space with SCAN requests and
// returns the number of pairs, or an error text.
func scanAll(c *conn) (int, string) {
	count, start := 0, uint64(0)
	for {
		req := wire.Scan(start, wire.MaxScan)
		resp, err := c.roundTrip(req)
		if err != nil || resp.Status != wire.StatusOK {
			return count, fmt.Sprintf("scan from key %d: status %d err %v", start, resp.Status, err)
		}
		if len(resp.Pairs) == 0 {
			return count, ""
		}
		if !scanOK(resp.Pairs, start) {
			return count, fmt.Sprintf("scan from key %d is not strictly ascending with matching values", start)
		}
		count += len(resp.Pairs)
		start = resp.Pairs[len(resp.Pairs)-1].Key + 1
	}
}

// runServed runs one served workload against the real optiqld binary.
func runServed(e *env, s *spec, p params, traced bool) (res *result, err error) {
	res = newResult(s, p.seed)
	if err := e.buildDaemon(); err != nil {
		return nil, err
	}
	r := &servedRun{e: e, s: s, p: p, records: p.records(s)}
	defer func() { r.tearDown() }()

	var setups []float64
	for i := 0; i < p.setups; i++ {
		r.tearDown()
		t0 := now()
		if err := r.setUp(); err != nil {
			return nil, err
		}
		setups = append(setups, float64(now()-t0)/1e9)
	}

	d := newDist(s, r.records)
	for i, l := range r.conns {
		l.st = newConnState(s, i, len(r.conns), r.records)
		l.ring = genRing(s, d, r.records, p.ringLen, p.seed, i, len(r.conns))
		l.c.nc.SetDeadline(time.Time{})
	}
	var calib []float64
	T := time.Duration(p.roundSeconds(s) * float64(time.Second))
	closed := func(dur time.Duration) closedRound {
		calib = append(calib, calibrate())
		return r.closedRound(dur)
	}
	open := func(dur time.Duration) openStats {
		calib = append(calib, calibrate())
		return r.openRound(dur)
	}
	closed(time.Duration(p.warmup() * float64(time.Second)))
	m0, m0err := r.d.scrapeMetrics()
	var w0 *obs.WALReport
	if s.wal {
		w0, _ = r.d.scrapeWAL()
	}

	var opens []openStats
	if !traced {
		// A closed-only workload spends the open loop's rounds in the
		// closed loop; its open loop runs in the traced pass.
		nClosed, nOpen := p.rounds(s), p.rounds(s)
		if s.closedOnly {
			nClosed, nOpen = 2*p.rounds(s), 0
		}
		var opsS, closedCPU []float64
		var closedLat, openLat latWindows
		for i := 0; i < nClosed; i++ {
			cr := closed(T)
			opsS = append(opsS, cr.opsS)
			closedCPU = append(closedCPU, (cr.dUser+cr.dSys)*1e6/float64(max(cr.ops, 1)))
			closedLat.add(cr.p50ns, cr.p99ns, cr.minSamples)
		}
		for i := 0; i < nOpen; i++ {
			o := open(T)
			opens = append(opens, o)
			openLat.add(o.p50ns, o.p99ns, o.minSamples)
		}
		res.setRounds("ops_s", opsS)
		if s.closedOnly {
			res.setRounds("cpu_us_per_op", closedCPU)
			closedLat.report(res, "closed loop", closedLoopWindow, p.smoke)
			res.note("throughput, latency and daemon CPU per op: closed loop, %d connections x window %d; the open loop at %d req/s runs in the traced pass only", len(r.conns), s.window, s.openRate)
		} else {
			res.setRounds("cpu_us_per_op", pick(opens, func(o openStats) float64 { return o.cpuUSPerOp }))
			openLat.report(res, "open loop, from the due time", openLoopWindow, p.smoke)
			res.note("throughput: closed loop, %d connections x window %d; latency and daemon CPU per op: open loop at %d req/s", len(r.conns), s.window, s.openRate)
		}
		res.setRounds("setup_s", setups)
		if ps, err := readProc(r.d.pid()); err == nil {
			res.set("mem_mb", ps.rssMiB, 1)
		}
	} else {
		recs := make([]*recorder, len(r.conns))
		for i := range recs {
			recs[i] = newRecorder(servedSpanCap)
		}
		setRec := func(on bool) {
			for i, l := range r.conns {
				l.rec = nil
				if on {
					l.rec = recs[i]
				}
			}
		}
		var un, tr []closedRound
		for i := 0; i < 2; i++ {
			un = append(un, closed(T))
			setRec(true)
			tr = append(tr, closed(T))
			setRec(false)
		}
		// Only the open-loop spans are kept: p50_us is an open-loop number.
		for _, rec := range recs {
			rec.spans, rec.dropped = rec.spans[:0], 0
		}
		opens = append(opens, open(T))
		setRec(true)
		tracedOpen := open(T)
		setRec(false)
		opens = append(opens, tracedOpen)

		unOps := pick(un, func(c closedRound) float64 { return c.opsS })
		trOps := pick(tr, func(c closedRound) float64 { return c.opsS })
		res.set("trace.overhead_frac", (median(unOps)-median(trOps))/median(unOps), len(unOps)+len(trOps))
		res.Rounds["ops_s.untraced"], res.Rounds["ops_s.traced"] = unOps, trOps
		res.set("locks.fairness_ratio", median(pick(un, func(c closedRound) float64 { return c.fairness })), len(un))
		res.set("locks.window_floor_frac", median(pick(un, func(c closedRound) float64 { return c.windowFloor })), len(un))
		budgetClosed(res, un, p.workers)

		o := opens[0]
		res.set("server.user_us_per_op", o.userUS, o.answered)
		res.set("server.sys_us_per_op", o.sysUS, o.answered)
		res.set("server.ctxsw_per_op", o.ctxsw, o.answered)
		res.set("load.gen_cpu_frac", o.genCPUFrac, o.answered)
		res.set("load.late_p99_us", o.lateP99us, o.samples)
		res.set("load.achieved_rate_frac", o.achieved, o.scheduled)
		res.set("load.slo_miss_frac", o.sloMis, o.scheduled)
		res.set("load.open_p50_us", median(o.p50ns)/1e3, len(o.p50ns))
		res.set("load.open_p99_us", median(o.p99ns)/1e3, len(o.p99ns))
		clientSpans(res, recs, median(o.p50ns)/1e3)
		if err := writeTrace(e.tracePath(s.name), s.name, p.seed, recs); err != nil {
			res.note("trace file not written: %v", err)
		}
	}
	for i, o := range opens {
		if o.achieved < 0.98 {
			res.note("open-loop round %d overloaded: only %.1f%% of the schedule was sent; its latency is not a latency at %d req/s", i, o.achieved*100, s.openRate)
		}
	}
	setCalib(res, calib)

	// Per-layer numbers from the daemon's public surfaces, scraped
	// before it is stopped. A failed scrape leaves them absent.
	var attempted, failed, wrong, shed, ins, del uint64
	for _, l := range r.conns {
		attempted, failed = attempted+l.st.attempted, failed+l.st.failed
		wrong, shed = wrong+l.st.wrong, shed+l.st.shed
		ins, del = ins+l.st.inserted, del+l.st.deleted
	}
	if traced {
		m1, err := r.d.scrapeMetrics()
		if m0err != nil || err != nil {
			res.note("warning: /metrics scrape failed (%v / %v); lock and shed metrics are absent", m0err, err)
			res.absent("/metrics scrape failed", "locks.handover_frac", "locks.restart_per_kop", "locks.validate_fail_per_kop",
				"locks.opportunistic_admit_per_kop", "btree.split_per_kop", "server.shed_frac")
		} else {
			layerLocksServed(res, m0, m1, float64(attempted))
		}
		if s.wal {
			w1, err := r.d.scrapeWAL()
			if w0 == nil || err != nil {
				res.note("warning: /debug/wal scrape failed (%v); wal metrics are absent", err)
				res.absent("/debug/wal scrape failed", "wal.ops_per_fsync", "wal.bytes_per_op", "wal.fsync_p50_us", "wal.fsync_p99_us", "wal.lag_shed_frac", "server.ops_per_batch")
			} else {
				layerWAL(res, w0, w1, float64(attempted))
			}
		}
	}

	// Correctness. Every answer was checked as it arrived; now the
	// whole key space, then (durable) the kill -9 restart.
	for _, l := range r.conns {
		if l.err != nil {
			res.fail("connection %d: %v", l.st.id, l.err)
		}
	}
	for _, o := range opens {
		lost := uint64(o.scheduled - o.answered)
		attempted, failed = attempted+lost, failed+lost
	}
	res.Attempted, res.Failed = attempted, failed
	if res.Correct {
		r.finalChecks(res, ins, del, traced)
	}
	if wrong > 0 {
		res.fail("%d wrong answers (value/key mismatch, missing key, wrong inserted flag or read-your-writes violation)", wrong)
	} else {
		res.check("%d answers checked (values match keys; striped keys against the connection's own model)", attempted)
	}
	if failed > 0 {
		res.note("%d of %d requests failed (%d shed, %d wrong)", failed, attempted, shed, wrong)
	}
	if !traced {
		res.set("ok_frac", 1-res.failedFrac(), int(min(attempted, 1<<31)))
	} else {
		res.set("load.failed_frac", res.failedFrac(), int(min(attempted, 1<<31)))
		absentFor(res, s)
	}
	if r.d != nil {
		r.d.stop()
		r.d = nil
	}
	return res, nil
}

func pick[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// finalChecks scans the whole daemon and, with the WAL on, kills it
// with SIGKILL, restarts it on the same directory and looks up the last
// acknowledged state of a striped sample of written keys. The page
// cache survives a kill, so this checks replay, not power loss.
func (r *servedRun) finalChecks(res *result, ins, del uint64, traced bool) {
	c := r.conns[0].c
	c.nc.SetDeadline(time.Now().Add(30 * time.Second))
	count, bad := scanAll(c)
	want := r.records + int(ins) - int(del)
	switch {
	case bad != "":
		res.fail("%s", bad)
	case count != want:
		res.fail("full scan found %d pairs, want preload %d + inserts %d - deletes %d = %d", count, r.records, ins, del, want)
	default:
		res.check("full scan: %d pairs = preload %d + inserts %d - deletes %d, strictly ascending, values match keys", count, r.records, ins, del)
	}
	if !r.s.wal {
		return
	}
	for _, l := range r.conns {
		l.c.close()
	}
	r.d.kill()
	t0 := now()
	d, err := r.e.startDaemon(r.p.workers, r.walDir)
	if err != nil {
		res.fail("restart on the same WAL dir: %v", err)
		r.d = nil
		return
	}
	r.d = d
	restart := float64(now()-t0) / 1e9
	checked, missing := 0, 0
	for _, l := range r.conns {
		nc, err := dialConn(d.addr)
		if err != nil {
			res.fail("dial after restart: %v", err)
			return
		}
		l.c = nc
		nc.nc.SetDeadline(time.Now().Add(30 * time.Second))
		var keys []uint64
		for k := range l.st.written {
			if l.st.written[k] {
				keys = append(keys, uint64(k))
			}
		}
		step := max(len(keys)/restartSample, 1)
		for i := 0; i < len(keys); i += step {
			k := keys[i]
			resp, err := nc.roundTrip(wire.Get(k))
			if err != nil {
				res.fail("GET after restart: %v", err)
				return
			}
			want := l.st.model[k]
			found := resp.Status == wire.StatusOK
			if found != (want != keyAbsent) || found && resp.Value != want {
				missing++
			}
			checked++
		}
	}
	if missing > 0 {
		res.fail("after kill -9 and restart, %d of %d sampled keys do not hold their last acknowledged state", missing, checked)
	} else {
		res.check("kill -9 + restart on the same WAL dir: all %d sampled keys hold their last acknowledged state (page cache survives a kill: this checks replay, not power loss)", checked)
	}
	if traced {
		if w, err := d.scrapeWAL(); err == nil && w.ReplayedOps > 0 {
			res.set("wal.replay_ops_s", float64(w.ReplayedOps)/restart, int(w.ReplayedOps))
		} else {
			res.absent(fmt.Sprintf("/debug/wal after restart unusable (%v)", err), "wal.replay_ops_s")
		}
	}
}

// layerLocksServed derives locks.* and the shed share from two
// /metrics scrapes of the daemon.
func layerLocksServed(res *result, a, b map[string]float64, attempted float64) {
	kops := (b["ops"] - a["ops"]) / 1e3
	if kops <= 0 {
		res.absent("daemon reported no completed ops between scrapes", "locks.handover_frac", "locks.restart_per_kop",
			"locks.validate_fail_per_kop", "locks.opportunistic_admit_per_kop", "btree.split_per_kop", "server.shed_frac")
		return
	}
	d := func(e obs.Event) float64 { return b[e.Name()] - a[e.Name()] }
	layerLocks(res, d, kops)
	res.set("btree.split_per_kop", d(obs.EvBTreeSplit)/kops, int(kops))
	res.set("server.shed_frac", d(obs.EvSrvShed)/max(attempted, 1), int(attempted))
}

// layerWAL derives wal.* and ops per executor batch from two
// /debug/wal scrapes (one WAL record per executor batch).
func layerWAL(res *result, a, b *obs.WALReport, attempted float64) {
	ops := float64(b.AppendedOps - a.AppendedOps)
	if syncs := float64(b.Syncs - a.Syncs); syncs > 0 {
		res.set("wal.ops_per_fsync", ops/syncs, int(syncs))
	}
	if ops > 0 {
		res.set("wal.bytes_per_op", float64(b.AppendedBytes-a.AppendedBytes)/ops, int(ops))
	}
	if recs := float64(b.AppendedRecords - a.AppendedRecords); recs > 0 {
		res.set("server.ops_per_batch", ops/recs, int(recs))
	}
	res.set("wal.lag_shed_frac", float64(b.LagSheds-a.LagSheds)/max(attempted, 1), int(attempted))
	if f := b.FsyncLatency; f != nil && f.Count > 0 {
		res.set("wal.fsync_p50_us", float64(f.Percentiles["50%"])/1e3, int(f.Count))
		res.set("wal.fsync_p99_us", float64(f.Percentiles["99%"])/1e3, int(f.Count))
	}
}

// clientSpans decomposes the median request of the traced open-loop
// round: the child spans of the requests between the 45th and 55th
// percentile of request time, averaged. The five children tile a
// request exactly, so their sum is compared with the untraced p50.
func clientSpans(res *result, recs []*recorder, untracedP50us float64) {
	type reqSpans struct {
		total int64
		child [5]int64
	}
	var reqs []reqSpans
	for _, rec := range recs {
		for i := 0; i+5 < len(rec.spans); i++ {
			if rec.spans[i].name != spRequest {
				continue
			}
			rs := reqSpans{total: rec.spans[i].end - rec.spans[i].start}
			for j := 0; j < 5; j++ {
				c := rec.spans[i+1+j]
				rs.child[j] = c.end - c.start
			}
			reqs = append(reqs, rs)
			i += 5
		}
	}
	if len(reqs) < 20 {
		res.absent("fewer than 20 traced requests", "client.sched_us", "client.encode_ns", "client.flush_us", "client.wait_us", "client.decode_ns", "client.account_frac")
		return
	}
	slices.SortFunc(reqs, func(a, b reqSpans) int { return int(a.total - b.total) })
	band := reqs[len(reqs)*45/100 : len(reqs)*55/100]
	var sum [5]float64
	for _, rs := range band {
		for j, c := range rs.child {
			sum[j] += float64(c)
		}
	}
	n := float64(len(band))
	res.set("client.sched_us", sum[0]/n/1e3, len(band))
	res.set("client.encode_ns", sum[1]/n, len(band))
	res.set("client.flush_us", sum[2]/n/1e3, len(band))
	res.set("client.wait_us", sum[3]/n/1e3, len(band))
	res.set("client.decode_ns", sum[4]/n, len(band))
	total := (sum[0] + sum[1] + sum[2] + sum[3] + sum[4]) / n / 1e3
	res.set("client.account_frac", total/untracedP50us, len(band))
	res.note("client spans of the median request sum to %.1f us; untraced open-loop p50 is %.1f us", total, untracedP50us)
}
