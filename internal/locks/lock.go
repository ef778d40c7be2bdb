// Package locks provides the lock primitives evaluated in the OptiQL
// paper behind one uniform interface: the centralized optimistic lock
// (OptLock), TTS and MCS exclusive locks, a fair queue-based
// reader-writer lock (MCS-RW), a blocking reader-writer lock backed by
// sync.RWMutex (the "pthread" variant), and the OptiQL variants
// (default, NOR, AOR) built on internal/core.
//
// The interface mirrors the paper's API split: shared ("reader")
// operations are optimistic try-style calls that never block on
// optimistic locks, while exclusive ("writer") operations block until
// granted and, for queue-based locks, consume a queue node from the
// caller's Ctx.
package locks

import (
	"sync/atomic"
	"unsafe"

	"optiql/internal/core"
	"optiql/internal/kv"
	"optiql/internal/obs"
	"optiql/internal/obs/trace"
)

// ctxSeq seeds each Ctx's private RNG distinctly.
var ctxSeq atomic.Uint64

// Token carries per-acquisition state between an acquire and its
// matching release: the version snapshot for optimistic readers, and
// the queue node for queue-based locks. It is a value type, and it
// stays on the caller's stack because no Lock method takes its address:
// a *Token passed through the interface would escape to the heap at
// every call site (scripts/escape_check.sh holds that line).
type Token struct {
	// Version is the lock-word snapshot for optimistic shared
	// acquisitions, used for validation at ReleaseSh.
	Version uint64
	q       *core.QNode
	rw      *rwNode
	clh     *clhNode
}

// QNode returns the OptiQL queue node held by this token, if any.
func (t Token) QNode() *core.QNode { return t.q }

// Lock is the uniform lock interface used by the index substrates and
// the microbenchmark framework.
//
// Optimistic locks implement AcquireSh/ReleaseSh as non-blocking
// snapshot/validate pairs that may fail (ok=false), in which case the
// caller restarts its operation. Pessimistic locks block in AcquireSh
// and always succeed.
type Lock interface {
	// AcquireSh begins a shared (read) access. For optimistic locks it
	// never writes shared memory and may return ok=false, meaning the
	// caller must retry. For pessimistic locks it blocks until granted.
	AcquireSh(c *Ctx) (Token, bool)
	// ReleaseSh ends a shared access. For optimistic locks it validates
	// the token's version and returns false if the protected data may
	// have changed; for pessimistic locks it unlocks and returns true.
	ReleaseSh(c *Ctx, t Token) bool
	// AcquireEx blocks until the lock is granted exclusively.
	AcquireEx(c *Ctx) Token
	// ReleaseEx releases an exclusive acquisition.
	ReleaseEx(c *Ctx, t Token)
	// Upgrade attempts to convert a shared acquisition into an
	// exclusive one without blocking. On success the returned token is
	// the one to pass to ReleaseEx; on failure t comes back unchanged.
	// Locks that do not support upgrading return (t, false).
	Upgrade(c *Ctx, t Token) (Token, bool)
	// CloseWindow closes the opportunistic read window on locks that
	// defer closing it (the AOR variant); a no-op elsewhere. Callers
	// invoke it after read-only preparation and before the first
	// modification of the protected data.
	CloseWindow(t Token)
	// Pessimistic reports whether shared acquisitions block (and thus
	// never fail validation).
	Pessimistic() bool
}

// Ctx holds the per-thread resources lock operations draw from: OptiQL
// queue nodes reserved from a core.Pool and locally allocated
// reader-writer queue nodes. A Ctx must not be used concurrently;
// create one per worker goroutine.
type Ctx struct {
	pool *core.Pool
	q    []*core.QNode
	rw   []*rwNode
	rng  uint64
	// free is this worker's node-recycling cache: one small stack per
	// Recycler slot (see recycle.go), dropped with the Ctx.
	free [recycleSlots]freeCache
	// obs is this worker's event counter set; nil disables counting
	// (obs.Counters methods are nil-safe no-ops). Lock adapters and the
	// index substrates bump it — never internal/core, whose 8-byte word
	// operations stay instrumentation-free by design.
	obs *obs.Counters
	// tr is this worker's sampled trace buffer; nil disables tracing
	// (trace.Buf methods are nil-safe no-ops). Same layering rule as
	// obs: lock adapters and substrates record, internal/core never.
	tr *trace.Buf
	// scanStage is this worker's staging buffer for index scans over
	// fanouts too large for the scanner's stack scratch. Lazily grown,
	// then reused for the Ctx's lifetime, so steady-state scans stay
	// allocation-free at any fanout. Single-threaded like the rest of
	// the Ctx: the scan must finish with the buffer before returning.
	scanStage []kv.KV
}

// ScanStage returns a per-worker scratch buffer with capacity for at
// least n pairs and length zero. The buffer is owned by the Ctx — the
// caller must stop using it before the next ScanStage call on the
// same Ctx (index scans stage one leaf at a time and copy out, so
// this holds by construction).
func (c *Ctx) ScanStage(n int) []kv.KV {
	if cap(c.scanStage) < n {
		c.scanStage = make([]kv.KV, 0, n)
	}
	return c.scanStage[:0]
}

// SetCounters attaches the worker's event counter set (nil disables
// counting). Call it right after NewCtx, before the Ctx is used.
func (c *Ctx) SetCounters(ctr *obs.Counters) { c.obs = ctr }

// Counters returns the attached counter set; it may be nil, which all
// obs.Counters methods treat as a disabled no-op set, so callers can
// bump events unconditionally: c.Counters().Inc(obs.EvOpRestart).
func (c *Ctx) Counters() *obs.Counters { return c.obs }

// SetTrace attaches the worker's sampled trace buffer (nil disables
// tracing). Call it right after NewCtx, before the Ctx is used.
func (c *Ctx) SetTrace(b *trace.Buf) { c.tr = b }

// Trace returns the attached trace buffer; it may be nil, which all
// trace.Buf methods treat as a disabled no-op buffer.
func (c *Ctx) Trace() *trace.Buf { return c.tr }

// TraceRestart records a sampled operation-restart event for the key
// an index operation is retrying, feeding both the span ring and the
// hot-key sketch — restart chains on one key are the clearest hot-spot
// signal the contention profiler has.
//
//optiql:noalloc
func (c *Ctx) TraceRestart(key uint64) {
	tb := c.tr
	if !tb.Sample() {
		return
	}
	tb.Event(trace.KindOpRestart, 0, key)
	tb.NoteKey(key)
}

// lockID derives a stable identity for a lock from its address, used
// as the hot-node key in trace sketches. Only the integer value is
// recorded; the pointer itself never escapes the lock layer.
//
//optiql:noalloc
func lockID(p unsafe.Pointer) uint64 { return uint64(uintptr(p)) }

// Rand returns the next value of a per-thread xorshift64* generator,
// used for cheap probabilistic decisions on lock-protected paths (such
// as sampling the ART contention counter) without contending on a
// shared RNG.
func (c *Ctx) Rand() uint64 {
	x := c.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	c.rng = x
	return x * 0x2545F4914F6CDD1D
}

// NewCtx reserves nq queue nodes from pool for this thread's lock
// operations; nq = 0 reserves none. The reserve grows on demand: a
// queue-based acquire that finds it empty takes a node from the pool,
// and the Ctx keeps that node until Close or Unreserve. A Ctx that
// only ever reads (a connection's reader, a lookup worker) therefore
// holds no pool nodes at all.
func NewCtx(pool *core.Pool, nq int) *Ctx {
	c := &Ctx{pool: pool}
	c.rng = uint64(ctxSeq.Add(1))*0x9E3779B97F4A7C15 | 1
	c.q = make([]*core.QNode, 0, max(nq, 2))
	for i := 0; i < nq; i++ {
		c.q = append(c.q, pool.Get())
	}
	c.rw = make([]*rwNode, 0, 16)
	for i := 0; i < 16; i++ {
		c.rw = append(c.rw, new(rwNode))
	}
	return c
}

// Close returns the reserved queue nodes, including any taken on
// demand, to the pool. The Ctx must not be used afterwards.
func (c *Ctx) Close() {
	c.Unreserve()
	c.q = nil
	c.rw = nil
}

// Reserve tops the queue-node reserve up to n nodes with
// core.Pool.TryGet, so an operation holding at most n queue-based
// locks never reaches the pool mid-acquire. If the pool runs short it
// returns every reserved node and reports false.
func (c *Ctx) Reserve(n int) bool {
	for len(c.q) < n {
		q, ok := c.pool.TryGet()
		if !ok {
			c.Unreserve()
			return false
		}
		c.q = append(c.q, q)
	}
	return true
}

// Unreserve returns the reserved queue nodes to the pool; nodes in use
// by held locks are not in the reserve.
func (c *Ctx) Unreserve() {
	for _, q := range c.q {
		c.pool.Put(q)
	}
	c.q = c.q[:0]
}

// getQ pops a queue node from the reserve, taking one from the pool
// when the reserve is empty (core.Pool.Get panics only if the pool is
// exhausted). putQ returns it to the reserve, never to the pool.
func (c *Ctx) getQ() *core.QNode {
	n := len(c.q)
	if n == 0 {
		return c.pool.Get()
	}
	q := c.q[n-1]
	c.q = c.q[:n-1]
	return q
}

func (c *Ctx) putQ(q *core.QNode) { c.q = append(c.q, q) }

func (c *Ctx) getRW() *rwNode {
	n := len(c.rw)
	if n == 0 {
		panic("locks: Ctx out of reader-writer queue nodes")
	}
	r := c.rw[n-1]
	c.rw = c.rw[:n-1]
	return r
}

func (c *Ctx) putRW(r *rwNode) { c.rw = append(c.rw, r) }
