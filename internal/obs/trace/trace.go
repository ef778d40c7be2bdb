// Package trace is the contention profiler under internal/obs: sampled,
// allocation-free span recording into per-worker fixed-capacity ring
// buffers, per-shard lock-wait histograms (internal/hist) and
// space-saving top-K sketches of hot keys and hot tree nodes.
//
// The design follows the same constraint as the event counters one
// package up: the lock word and its operations stay untouched, so all
// recording happens in the lock adapters, the index substrates, the
// server request path and the benchmark drivers — one *Buf per worker
// goroutine, threaded through locks.Ctx.
//
// Hot-path discipline (enforced by optiqlvet's noalloc analyzer and the
// dynamic alloc tests):
//
//   - Sample is a counter increment and a mask test on the owner
//     goroutine; no atomics, no clock read, no mutex. A nil *Buf
//     samples false, so disabled tracing costs one nil check.
//   - The monotonic clock (Now) is read only after Sample says yes —
//     the "amortized by sampling" clock strategy: at 1/1024 sampling
//     the two time.Since calls per sampled span amortize to ~nothing.
//   - Record/LockWait take the buffer's mutex. The mutex is
//     uncontended in steady state (the owner records; snapshot readers
//     take it only on scrape) and exists so live /debug/contention
//     scrapes are race-clean under -race without per-field atomics.
//   - The ring overwrites: a Buf keeps the most recent BufCap spans
//     and counts what it dropped. Histograms and sketches are NOT
//     ring-bounded — they aggregate every sampled observation — so
//     overwrite semantics only affect the exported span timeline.
//
// Buffers are single-producer: exactly one goroutine may call Sample
// on a Buf (Record alone is mutex-safe from a second goroutine, which
// the server's reader/writer pairs rely on).
package trace

import (
	"sync"
	"time"

	"optiql/internal/hist"
)

// Kind enumerates span types. The taxonomy mirrors what the paper's
// evaluation needs to attribute tail latency: where lock time goes
// (wait, validation failure, restart), where request time goes (decode,
// queue, execute, respond) and what the environment injected (faults,
// client retries).
type Kind uint8

const (
	// KindLockWait is one exclusive acquisition: Dur is the time from
	// entering AcquireEx to the grant, Key is the lock identity and
	// FlagHandover distinguishes queue handover from a free-word CAS.
	KindLockWait Kind = iota
	// KindLockReadFail is an optimistic read whose validation failed at
	// ReleaseSh (Key = lock identity).
	KindLockReadFail
	// KindLockOpportunistic is a shared read admitted through an open
	// opportunistic read window (Key = lock identity).
	KindLockOpportunistic
	// KindLockUpgradeFail is a failed shared-to-exclusive upgrade
	// (Key = lock identity); the caller restarts.
	KindLockUpgradeFail
	// KindOpRestart is an index operation restarting from the top
	// (Key = the operation's search key).
	KindOpRestart
	// KindTreeOp is one whole index operation in a benchmark worker
	// loop (Flags = workload op kind, Key = search key).
	KindTreeOp
	// KindReqDecode is the server parsing one request frame
	// (Flags = opcode, ID = request span).
	KindReqDecode
	// KindReqExec is the index call itself, run on the connection
	// goroutine (ID = request span, Key = the operation's key).
	KindReqExec
	// KindReqWrite is encoding and writing one response
	// (ID = request span).
	KindReqWrite
	// KindFault is an injected fault (Flags = the injector's fault
	// code; Dur = injected delay for latency/stall faults).
	KindFault
	// KindCliRetry is a client backoff sleep before a retry.
	KindCliRetry
	// KindCliReconnect is a client re-establishing its connection
	// (Dur = dial time).
	KindCliReconnect

	numKinds
)

// kindNames are the stable identifiers used in the Chrome export.
var kindNames = [numKinds]string{
	KindLockWait:          "lock.wait",
	KindLockReadFail:      "lock.read_fail",
	KindLockOpportunistic: "lock.opportunistic",
	KindLockUpgradeFail:   "lock.upgrade_fail",
	KindOpRestart:         "op.restart",
	KindTreeOp:            "tree.op",
	KindReqDecode:         "req.decode",
	KindReqExec:           "req.exec",
	KindReqWrite:          "req.write",
	KindFault:             "fault",
	KindCliRetry:          "cli.retry",
	KindCliReconnect:      "cli.reconnect",
}

// Name returns the kind's stable identifier.
func (k Kind) Name() string {
	if k >= numKinds {
		return "unknown"
	}
	return kindNames[k]
}

// FlagHandover marks a KindLockWait span granted by queue handover
// rather than a free-word CAS.
const FlagHandover uint8 = 1 << 0

// Span is one fixed-size trace record. Start and Dur are nanoseconds
// on the tracer's monotonic clock (Start is since the tracer epoch).
// ID stitches the phases of one server request into one trace tree; 0
// means unstitched. Key is kind-dependent: the operation key, the lock
// identity, or a batch size.
type Span struct {
	Kind   Kind
	Flags  uint8
	Shard  int16
	Worker int32
	Start  int64
	Dur    int64
	ID     uint64
	Key    uint64
}

// Config parameterizes a Tracer. The zero value gets defaults.
type Config struct {
	// BufCap is each ring buffer's span capacity, rounded up to a power
	// of two (default 4096). The ring keeps the most recent spans.
	BufCap int
	// SampleEvery records 1 in N sampling decisions, rounded up to a
	// power of two (default 1024; 1 records every decision).
	SampleEvery int
	// Shards partitions the hot-key sketches (default 1). Keys are
	// attributed to the shard the caller names; the hot-node sketch is
	// global (a lock's shard is not known at the lock layer).
	Shards int
	// TopK is each sketch's capacity (default 32).
	TopK int
	// DecayEvery halves every sketch count after that many offers, so
	// the hot set follows workload shift (default 8192; negative
	// disables decay).
	DecayEvery int
}

func (c *Config) normalize() {
	if c.BufCap <= 0 {
		c.BufCap = 4096
	}
	c.BufCap = ceilPow2(c.BufCap)
	if c.SampleEvery <= 0 {
		c.SampleEvery = 1024
	}
	c.SampleEvery = ceilPow2(c.SampleEvery)
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.TopK <= 0 {
		c.TopK = 32
	}
	if c.DecayEvery == 0 {
		c.DecayEvery = 8192
	}
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// shardSketch is one shard's hot-key sketch behind its own mutex.
// Offers happen only on sampled operations, so contention on the mutex
// is negligible at production sampling rates.
type shardSketch struct {
	mu sync.Mutex
	s  sketch
}

// Tracer owns a run's trace state: the epoch of its monotonic clock,
// every worker Buf it handed out, the per-shard hot-key sketches and
// the global hot-node sketch. A nil *Tracer hands out nil (disabled)
// Bufs, so callers can thread one pointer through unconditionally.
type Tracer struct {
	cfg   Config
	epoch time.Time

	mu   sync.Mutex
	bufs []*Buf

	keys  []shardSketch
	nodes shardSketch
}

// New builds a tracer for cfg and starts its clock.
func New(cfg Config) *Tracer {
	cfg.normalize()
	t := &Tracer{cfg: cfg, epoch: time.Now()}
	t.keys = make([]shardSketch, cfg.Shards)
	for i := range t.keys {
		t.keys[i].s.init(cfg.TopK, cfg.DecayEvery)
	}
	t.nodes.s.init(cfg.TopK, cfg.DecayEvery)
	return t
}

// SampleEvery returns the tracer's (normalized) sampling interval.
func (t *Tracer) SampleEvery() int {
	if t == nil {
		return 0
	}
	return t.cfg.SampleEvery
}

// NewBuf creates and registers one worker's span buffer. shard labels
// the buffer's lock-wait histogram and default key-sketch partition
// (negative = unsharded: a client or connection-reader buffer, folded
// into the merged histogram only); worker labels the Chrome-export
// row. On a nil tracer it returns nil, a valid disabled buffer.
func (t *Tracer) NewBuf(shard, worker int) *Buf {
	if t == nil {
		return nil
	}
	b := &Buf{
		tr:     t,
		epoch:  t.epoch,
		shard:  int16(shard),
		worker: int32(worker),
		mask:   uint64(t.cfg.SampleEvery - 1),
		ring:   make([]Span, t.cfg.BufCap),
	}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// Buf is one worker's trace state: the sampling counter (owner
// goroutine only), the span ring, and the lock-wait histogram, the
// latter two behind a mutex so live scrapes are race-clean. All
// methods are safe (no-ops) on a nil *Buf.
type Buf struct {
	tr     *Tracer
	epoch  time.Time
	shard  int16
	worker int32

	// ctr/mask implement 1-in-N sampling. ctr is unsynchronized by
	// design: only the owner goroutine may call Sample.
	ctr  uint64
	mask uint64

	mu   sync.Mutex
	pos  uint64 // spans ever recorded; ring index = pos & (len-1)
	ring []Span
	wait hist.Histogram // KindLockWait durations, ns
}

// Sample draws one sampling decision: true 1 in SampleEvery calls.
// Owner goroutine only. False on a nil (disabled) buffer.
//
//optiql:noalloc
func (b *Buf) Sample() bool {
	if b == nil {
		return false
	}
	b.ctr++
	return b.ctr&b.mask == 0
}

// Now reads the tracer's monotonic clock (ns since the epoch). Call it
// only after Sample said yes — that is what amortizes the clock cost.
// Zero on a nil buffer.
//
//optiql:noalloc
func (b *Buf) Now() int64 {
	if b == nil {
		return 0
	}
	return int64(time.Since(b.epoch))
}

// Record appends one span to the ring, overwriting the oldest if full.
// Mutex-protected: safe against concurrent Record calls and snapshot
// reads (but Sample stays owner-only).
//
//optiql:noalloc
func (b *Buf) Record(k Kind, flags uint8, start, dur int64, id, key uint64) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.ring[b.pos&uint64(len(b.ring)-1)] = Span{
		Kind: k, Flags: flags, Shard: b.shard, Worker: b.worker,
		Start: start, Dur: dur, ID: id, Key: key,
	}
	b.pos++
	b.mu.Unlock()
}

// Event records a zero-duration span at the current clock.
//
//optiql:noalloc
func (b *Buf) Event(k Kind, flags uint8, key uint64) {
	if b == nil {
		return
	}
	b.Record(k, flags, b.Now(), 0, 0, key)
}

// LockWait records one exclusive-acquisition wait: the span, the
// buffer's lock-wait histogram bucket and a hot-node offer for the
// lock identity, all per one sampled acquire.
//
//optiql:noalloc
func (b *Buf) LockWait(start, dur int64, flags uint8, lock uint64) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.ring[b.pos&uint64(len(b.ring)-1)] = Span{
		Kind: KindLockWait, Flags: flags, Shard: b.shard, Worker: b.worker,
		Start: start, Dur: dur, Key: lock,
	}
	b.pos++
	b.wait.Record(uint64(dur))
	b.mu.Unlock()
	b.NoteNode(lock)
}

// NoteKey offers a key to shard's hot-key sketch (shard < 0 uses the
// buffer's own shard; unsharded buffers fall back to partition 0).
//
//optiql:noalloc
func (b *Buf) NoteKey(shard int, key uint64) {
	if b == nil {
		return
	}
	if shard < 0 {
		shard = int(b.shard)
	}
	if shard < 0 || shard >= len(b.tr.keys) {
		shard = 0
	}
	ss := &b.tr.keys[shard]
	ss.mu.Lock()
	ss.s.offer(key)
	ss.mu.Unlock()
}

// NoteNode offers a lock/node identity to the global hot-node sketch.
//
//optiql:noalloc
func (b *Buf) NoteNode(id uint64) {
	if b == nil {
		return
	}
	ns := &b.tr.nodes
	ns.mu.Lock()
	ns.s.offer(id)
	ns.mu.Unlock()
}

// HotItem is one sketch entry: an approximate count and its maximum
// overestimate (the space-saving error bound).
type HotItem struct {
	Key   uint64
	Count uint64
	Err   uint64
}

// ShardSnap is one shard's merged view.
type ShardSnap struct {
	// Wait merges the lock-wait histograms of this shard's buffers.
	Wait hist.Histogram
	// Keys is the shard's hot-key ranking, hottest first.
	Keys []HotItem
}

// Snapshot is a point-in-time merged view of a tracer. Safe to take
// while workers are still recording.
type Snapshot struct {
	SampleEvery int
	// Recorded counts spans ever recorded; Dropped counts those since
	// overwritten by ring wraparound. Retained = Recorded - Dropped.
	Recorded uint64
	Dropped  uint64
	// Wait merges every buffer's lock-wait histogram (sharded and
	// unsharded alike).
	Wait hist.Histogram
	// Shards holds the per-shard views (buffers with shard < 0
	// contribute to Wait only).
	Shards []ShardSnap
	// Keys is the cross-shard hot-key ranking; Nodes the global
	// hot-node ranking. Hottest first, capped at TopK.
	Keys  []HotItem
	Nodes []HotItem
}

// Snapshot merges every buffer and sketch. Nil-safe (returns nil).
func (t *Tracer) Snapshot() *Snapshot {
	if t == nil {
		return nil
	}
	snap := &Snapshot{SampleEvery: t.cfg.SampleEvery}
	snap.Shards = make([]ShardSnap, t.cfg.Shards)
	t.mu.Lock()
	bufs := t.bufs
	t.mu.Unlock()
	for _, b := range bufs {
		b.mu.Lock()
		snap.Recorded += b.pos
		if b.pos > uint64(len(b.ring)) {
			snap.Dropped += b.pos - uint64(len(b.ring))
		}
		snap.Wait.Merge(&b.wait)
		if s := int(b.shard); s >= 0 && s < len(snap.Shards) {
			snap.Shards[s].Wait.Merge(&b.wait)
		}
		b.mu.Unlock()
	}
	merged := make(map[uint64]HotItem)
	for i := range t.keys {
		ss := &t.keys[i]
		ss.mu.Lock()
		items := ss.s.ranked()
		ss.mu.Unlock()
		snap.Shards[i].Keys = items
		for _, it := range items {
			m := merged[it.Key]
			m.Key = it.Key
			m.Count += it.Count
			m.Err += it.Err
			merged[it.Key] = m
		}
	}
	snap.Keys = rank(merged, t.cfg.TopK)
	t.nodes.mu.Lock()
	snap.Nodes = t.nodes.s.ranked()
	t.nodes.mu.Unlock()
	return snap
}

// Spans returns the retained spans of every buffer, oldest first.
// Nil-safe (returns nil).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	bufs := t.bufs
	t.mu.Unlock()
	var out []Span
	for _, b := range bufs {
		b.mu.Lock()
		n := b.pos
		cap64 := uint64(len(b.ring))
		start := uint64(0)
		if n > cap64 {
			start = n - cap64
		}
		for i := start; i < n; i++ {
			out = append(out, b.ring[i&(cap64-1)])
		}
		b.mu.Unlock()
	}
	sortSpans(out)
	return out
}
