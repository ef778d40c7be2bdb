package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"optiql/internal/core"
	"optiql/internal/kv"
	"optiql/internal/locks"
	"optiql/internal/server/wire"
	"optiql/internal/simd"
	"optiql/internal/wal"
)

const (
	rungReps    = 5
	rungSeconds = 0.2
	rungChunk   = 1024 // calls per clock read
)

// ladderSink keeps rung results alive so the calls are not removed.
var ladderSink uint64

// rung times f, which makes rungChunk calls, for about sec seconds and
// returns ns per call and the number of calls.
func rung(sec float64, f func()) (float64, int) {
	f() // warm
	calls := 0
	t0 := now()
	end := t0 + int64(sec*1e9)
	t := t0
	for t < end {
		f()
		calls += rungChunk
		t = now()
	}
	return float64(t-t0) / float64(calls), calls
}

// medianRung is the median of rungReps repetitions.
func medianRung(scale float64, f func()) (float64, int) {
	var vs []float64
	total := 0
	for i := 0; i < rungReps; i++ {
		v, n := rung(rungSeconds*scale, f)
		vs = append(vs, v)
		total += n
	}
	return median(vs), total
}

// runLadder times isolated loops around public functions of each
// layer. It does not depend on the workload.
func runLadder(e *env, res *result, p params) {
	scale := p.ladderScale
	set := func(name string, f func()) {
		v, n := medianRung(scale, f)
		res.set(name, v, n)
	}
	pool := core.NewPool(64)

	// core: the concrete lock.
	{
		var l core.OptiQL
		q := pool.Get()
		set("core.ex_pair_ns", func() {
			for i := 0; i < rungChunk; i++ {
				l.AcquireEx(q)
				l.ReleaseEx(q)
			}
		})
		pool.Put(q)
		res.set("core.ex_pair_2t_ns", contendedPair(pool, scale), 2)
	}
	// locks: the same lock behind the interface the indexes use.
	{
		c := locks.NewCtx(pool, 0)
		var l locks.Lock = locks.MustByName("OptiQL").NewLock()
		set("locks.ex_pair_ns", func() {
			for i := 0; i < rungChunk; i++ {
				t := l.AcquireEx(c)
				l.ReleaseEx(c, t)
			}
		})
		set("locks.opt_read_ns", func() {
			ok := 0
			for i := 0; i < rungChunk; i++ {
				t, _ := l.AcquireSh(c)
				if l.ReleaseSh(c, t) {
					ok++
				}
			}
			ladderSink += uint64(ok)
		})
		c.Close()
	}
	// simd: node kernels at the sizes the trees use.
	{
		keys := make([]uint64, 64)
		for i := range keys {
			keys[i] = uint64(i) * 3
		}
		fp := make([]byte, 16)
		for i := range fp {
			fp[i] = byte(i * 7)
		}
		r := rng{s: 7}
		probes := make([]uint64, rungChunk)
		for i := range probes {
			probes[i] = r.below(64 * 3)
		}
		set("simd.count_less_14_ns", func() {
			s := 0
			for _, k := range probes {
				s += simd.CountLess(keys, 14, k)
			}
			ladderSink += uint64(s)
		})
		set("simd.lower_bound_62_ns", func() {
			s := 0
			for _, k := range probes {
				s += simd.LowerBound(keys, 62, k)
			}
			ladderSink += uint64(s)
		})
		set("simd.match16_ns", func() {
			var s uint32
			for _, k := range probes {
				s += simd.Match16(fp, byte(k))
			}
			ladderSink += uint64(s)
		})
	}
	ladderWire(res, set)
	ladderWAL(e, res, scale)
	ladderServer(e, res, p)
}

// contendedPair is the handover path: two goroutines take and release
// one core.OptiQL; the value is wall time per acquire+release pair.
func contendedPair(pool *core.Pool, scale float64) float64 {
	var vs []float64
	for rep := 0; rep < rungReps; rep++ {
		var l core.OptiQL
		var stop atomic.Bool
		var pairs atomic.Uint64
		var wg sync.WaitGroup
		t0 := now()
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				q := pool.Get()
				defer pool.Put(q)
				n := uint64(0)
				for !stop.Load() {
					for i := 0; i < 64; i++ {
						l.AcquireEx(q)
						l.ReleaseEx(q)
					}
					n += 64
				}
				pairs.Add(n)
			}()
		}
		time.Sleep(time.Duration(rungSeconds * scale * float64(time.Second)))
		stop.Store(true)
		wg.Wait()
		vs = append(vs, float64(now()-t0)/float64(max(pairs.Load(), 1)))
	}
	return median(vs)
}

func ladderWire(res *result, set func(string, func())) {
	get := wire.Get(123456)
	getResp := wire.Response{Status: wire.StatusOK, Value: 123456}
	scan := wire.Scan(1000, scanLen)
	scanResp := wire.Response{Status: wire.StatusOK, Pairs: make([]kv.KV, scanLen)}
	for i := range scanResp.Pairs {
		scanResp.Pairs[i] = kv.KV{Key: uint64(1000 + i), Value: uint64(1000 + i)}
	}
	reqFrame, _ := wire.AppendRequest(nil, &get)
	respFrame, _ := wire.AppendResponse(nil, &get, &getResp)
	buf := make([]byte, 0, 4096)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ops := 0
	counted := func(name string, f func()) {
		before := res.Layer[name].N
		set(name, f)
		ops += res.Layer[name].N - before
	}
	counted("wire.req_encode_ns", func() {
		for i := 0; i < rungChunk; i++ {
			buf, _ = wire.AppendRequest(buf[:0], &get)
		}
		ladderSink += uint64(len(buf))
	})
	counted("wire.req_parse_ns", func() {
		var s uint64
		for i := 0; i < rungChunk; i++ {
			r, _ := wire.ParseRequest(reqFrame[4:])
			s += r.Key
		}
		ladderSink += s
	})
	counted("wire.resp_encode_ns", func() {
		for i := 0; i < rungChunk; i++ {
			buf, _ = wire.AppendResponse(buf[:0], &get, &getResp)
		}
		ladderSink += uint64(len(buf))
	})
	counted("wire.resp_parse_ns", func() {
		var s uint64
		for i := 0; i < rungChunk; i++ {
			r, _ := wire.ParseResponse(respFrame[4:], &get)
			s += r.Value
		}
		ladderSink += s
	})
	runtime.ReadMemStats(&m1)
	// +1 warm call per repetition is not in N; the error is under 1%.
	res.set("wire.allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/float64(max(ops, 1)), ops)
	set("wire.scan16_resp_ns", func() {
		var s uint64
		for i := 0; i < rungChunk; i++ {
			buf, _ = wire.AppendResponse(buf[:0], &scan, &scanResp)
			r, _ := wire.ParseResponse(buf[4:], &scan)
			s += uint64(len(r.Pairs))
		}
		ladderSink += s
	})
}

// ackErr is the wal.Committer of the ladder: Commit skips the fsync
// when nobody waits for the acknowledgement.
type ackErr struct{ err error }

func (a *ackErr) Committed(err error) {
	if err != nil {
		a.err = err
	}
}

// ladderWAL times the log in a temporary directory: appending a 64-op
// record with no fsync, and append+commit under `always`, which is the
// fsync floor of this filesystem.
func ladderWAL(e *env, res *result, scale float64) {
	ops := make([]wal.Op, 64)
	for i := range ops {
		ops[i] = wal.Op{Op: wal.OpPut, Key: uint64(i + 1), Val: uint64(i + 1)}
	}
	// once opens a fresh log and returns us per call.
	once := func(policy string, calls int) (float64, error) {
		dir, rm, err := e.tempDir("ladder-wal-")
		if err != nil {
			return 0, err
		}
		defer rm()
		l, _, err := wal.Open(dir, wal.Config{Policy: policy}, func(uint64, []wal.Op) {})
		if err != nil {
			return 0, err
		}
		defer l.Close()
		var ack ackErr
		t0 := now()
		for i := 0; i < calls; i++ {
			seq, err := l.Append(ops)
			if err != nil {
				return 0, err
			}
			if policy == wal.SyncAlways {
				l.Commit(seq, len(ops), &ack) // fsyncs inline before acking
			}
		}
		return float64(now()-t0) / float64(calls) / 1e3, ack.err
	}
	run := func(name, policy string, calls int) {
		var vs []float64
		for rep := 0; rep < rungReps; rep++ {
			v, err := once(policy, calls)
			if err != nil {
				res.absent(fmt.Sprintf("wal: %v", err), name)
				return
			}
			vs = append(vs, v)
		}
		res.set(name, median(vs), calls*rungReps)
	}
	run("wal.append64_us", wal.SyncOff, max(int(8192*scale), 256))
	run("wal.commit_always_us", wal.SyncAlways, max(int(200*scale), 20))
}

// ladderServer times the served path at its simplest: one connection,
// one request in flight, and 200 sequential dial+GET+close.
func ladderServer(e *env, res *result, p params) {
	names := []string{"server.rtt_sync_us", "server.conn_setup_us"}
	if err := e.buildDaemon(); err != nil {
		res.absent(err.Error(), names...)
		return
	}
	d, err := e.startDaemon(p.workers, "")
	if err != nil {
		res.absent(err.Error(), names...)
		return
	}
	defer d.stop()
	c, err := dialConn(d.addr)
	if err != nil {
		res.absent(err.Error(), names...)
		return
	}
	defer c.close()
	c.nc.SetDeadline(time.Now().Add(60 * time.Second))
	for k := uint64(1); k <= 1000; k++ {
		if _, err := c.roundTrip(wire.Put(k, k)); err != nil {
			res.absent(err.Error(), names...)
			return
		}
	}
	var vs []float64
	total := 0
	for rep := 0; rep < rungReps; rep++ {
		n := 0
		t0 := now()
		for end := t0 + int64(rungSeconds*p.ladderScale*1e9); now() < end; n++ {
			resp, err := c.roundTrip(wire.Get(uint64(n%1000 + 1)))
			if err != nil || resp.Status != wire.StatusOK {
				res.absent(fmt.Sprintf("GET failed: status %d err %v", resp.Status, err), names...)
				return
			}
		}
		vs = append(vs, float64(now()-t0)/float64(max(n, 1))/1e3)
		total += n
	}
	res.set("server.rtt_sync_us", median(vs), total)

	const dials = 200
	vs = vs[:0]
	for i := 0; i < dials; i++ {
		t0 := now()
		dc, err := dialConn(d.addr)
		if err != nil {
			res.absent(fmt.Sprintf("dial %d: %v", i, err), "server.conn_setup_us")
			return
		}
		dc.nc.SetDeadline(time.Now().Add(5 * time.Second))
		_, err = dc.roundTrip(wire.Get(1))
		dc.close()
		if err != nil {
			res.absent(fmt.Sprintf("GET on dial %d: %v", i, err), "server.conn_setup_us")
			return
		}
		vs = append(vs, float64(now()-t0)/1e3)
	}
	res.set("server.conn_setup_us", median(vs), dials)
}
