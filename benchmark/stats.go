package main

import (
	"math"
	"slices"
	"time"
)

// median returns the middle of vs (mean of the two middles when even);
// NaN for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the q-quantile (0..1) of an ascending slice by
// nearest rank.
func percentile[T int64 | uint32 | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		var zero T
		return zero
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func minMax(vs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range vs {
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, hi
}

// iqrShare is the driver's steadiness measure: the distance between
// the first and third quartile (exclusive method, as Python's
// statistics.quantiles(n=4)) as a share of the median.
func iqrShare(vs []float64) float64 {
	n := len(vs)
	if n < 2 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	q := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (q(3) - q(1)) / median(s)
}

// latWindow is the length of one latency window. Percentiles are taken
// per window over every worker's samples, and the reported p50 and p99
// are a quantile over all windows of the measured phase (which one: see
// closedLoopWindow). The host steals the vCPUs in bursts of several
// milliseconds a few times per second; a percentile over a whole round
// is set by how many bursts the round caught, a quantile over many short
// windows is not, as long as enough windows hold no burst: with 200 ms
// windows a noisy quarter of an hour made served p99_us spread twice as
// far as with 100 ms (interleaved runs, median over windows). 100 ms
// holds 6000 samples at served-read-mostly's open-loop rate, about 1700
// in served-durable-write's closed loop and 4800 in the slower embedded
// workload; only served-durable-write's open loop, which is not gated,
// has fewer than 1000 (600).
const latWindow = 100 * time.Millisecond

// latLog holds one worker's latency samples of one round in time
// order, each tagged with the window it belongs to.
type latLog struct {
	ns  []uint32
	win []uint16
}

func newLatLog(capacity int) *latLog {
	return &latLog{ns: make([]uint32, 0, capacity), win: make([]uint16, 0, capacity)}
}

func (l *latLog) reset() { l.ns, l.win = l.ns[:0], l.win[:0] }

// add records a latency for an operation that began (embedded) or fell
// due (open loop) sinceStart ns into the round; it drops the sample
// when the log is full.
func (l *latLog) add(sinceStart, latency int64) {
	if len(l.ns) == cap(l.ns) {
		return
	}
	l.ns = append(l.ns, uint32(min(latency, 1<<32-1)))
	l.win = append(l.win, uint16(min(max(sinceStart, 0)/int64(latWindow), 1<<16-1)))
}

// windowPercentiles merges the workers' logs window by window and
// returns the p50 and p99 (ns) of each of the first `full` windows,
// plus the smallest sample count among them. A partial last window is
// left out by passing only the number of complete ones.
func windowPercentiles(logs []*latLog, full int) (p50, p99 []float64, minSamples int) {
	cur := make([]int, len(logs))
	var buf []uint32
	for k := 0; k < full; k++ {
		buf = buf[:0]
		for i, l := range logs {
			j := cur[i]
			for j < len(l.win) && int(l.win[j]) <= k {
				j++
			}
			buf = append(buf, l.ns[cur[i]:j]...)
			cur[i] = j
		}
		if len(buf) == 0 {
			continue
		}
		slices.Sort(buf)
		p50 = append(p50, float64(percentile(buf, 0.50)))
		p99 = append(p99, float64(percentile(buf, 0.99)))
		if minSamples == 0 || len(buf) < minSamples {
			minSamples = len(buf)
		}
	}
	return p50, p99, minSamples
}

// latWindows collects the per-window percentiles of every round of a
// measured phase.
type latWindows struct {
	p50ns, p99ns []float64
	minSamples   int
}

func (l *latWindows) add(p50ns, p99ns []float64, minSamples int) {
	l.p50ns, l.p99ns = append(l.p50ns, p50ns...), append(l.p99ns, p99ns...)
	if l.minSamples == 0 || minSamples < l.minSamples {
		l.minSamples = minSamples
	}
}

// Which window stands for the run. In a closed loop a host stall only
// stretches the operations in flight, nothing queues behind it, so the
// quietest windows show the program and the rest show the neighbours:
// the first decile over the windows is reported. When the host ran slow
// for minutes, embed-btree-read's window p99 sat at 1.5 us or at 4 us and
// the median over windows flipped between the two from run to run (spread
// 0.49 over ten runs; first quartile 0.20, first decile 0.11);
// served-durable-write's closed-loop p99 spread 0.09-0.11 by the median
// and 0.04-0.09 by the first decile. In an open loop every request that
// falls due during a stall waits it out, at 60000 req/s nearly every
// window holds one, and no decile of windows is quiet (spread 0.20-0.33
// against 0.11-0.12 for the median): there the median is reported.
const (
	closedLoopWindow = 0.10
	openLoopWindow   = 0.50
)

// windowValue is the q-quantile over the windows; q = 0.5 is the median.
func windowValue(windows []float64, q float64) float64 {
	if q == 0.5 || len(windows) == 0 {
		return median(windows)
	}
	s := slices.Clone(windows)
	slices.Sort(s)
	return percentile(s, q)
}

// report sets p50_us and p99_us to the q-quantile over the windows of
// the window's percentile; loop says which loop the samples came from.
func (l *latWindows) report(res *result, loop string, q float64, smoke bool) {
	for _, m := range []struct {
		name string
		ns   []float64
	}{{"p50_us", l.p50ns}, {"p99_us", l.p99ns}} {
		us := make([]float64, len(m.ns))
		for i, v := range m.ns {
			us[i] = v / 1e3
		}
		res.Rounds[m.name] = us
		res.set(m.name, windowValue(us, q), len(us))
	}
	res.note("p50_us and p99_us (%s): %.2f-quantile over %d windows of %v of the window's percentile, at least %d samples per window", loop, q, len(l.p50ns), latWindow, l.minSamples)
	if l.minSamples < 1000 && !smoke {
		res.note("p99_us rests on fewer than 1000 samples in some window")
	}
}
