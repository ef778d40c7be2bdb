// Package server exposes the OptiQL index substrates as a sharded
// network key-value service: a TCP listener speaking the
// length-prefixed binary protocol of internal/server/wire, a shard
// router over N independent index instances, per-shard batching write
// executors and per-connection pipelined read loops.
//
// The sharding and batching put the lock protocols where they pay off:
// reads run concurrently on the connection goroutines (optimistic
// shared acquisitions), while each shard's writes are funneled through
// one executor goroutine that drains whole groups of queued mutations
// per wakeup. Graceful shutdown stops accepting, unblocks idle
// readers, lets every admitted request complete and drains the
// executor queues — an in-flight batch is never dropped.
package server

import (
	"context"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"optiql/internal/core"
	"optiql/internal/faults"
	"optiql/internal/locks"
	"optiql/internal/obs"
	"optiql/internal/obs/trace"
)

// Config parameterizes a Server.
type Config struct {
	// Addr is the TCP listen address (e.g. ":4440", "127.0.0.1:0").
	Addr string
	// Index is the substrate kind: "btree" or "art".
	Index string
	// Scheme is the lock scheme name (locks.ByName).
	Scheme string
	// Shards is the number of independent index partitions (default 4).
	Shards int
	// NodeSize is the B+-tree node size in bytes (btree only).
	NodeSize int
	// BatchMax caps how many queued writes one executor wakeup groups
	// (default 64).
	BatchMax int
	// ReadTimeout bounds how long the server waits for a complete
	// request frame: connections idle longer are reaped and slow-loris
	// peers (trickling a frame forever) cannot pin a goroutine. Zero
	// disables the bound.
	ReadTimeout time.Duration
	// WriteTimeout bounds each response write/flush; a peer that stops
	// reading gets its connection dropped instead of wedging the
	// writer. Zero disables the bound.
	WriteTimeout time.Duration
	// InflightMax, when positive, is the per-shard admission budget:
	// writes arriving while that many are already queued on the shard
	// are shed with wire.StatusOverloaded instead of queuing (bounded
	// degradation under oversubscription — the TXSQL move). Zero keeps
	// the seed behavior: a full executor queue blocks the submitting
	// connection, pushing backpressure to that client.
	InflightMax int
	// Chaos, when it enables any fault, wraps the listener and every
	// accepted connection with the fault-injection layer (used by
	// `optiqld -chaos` and the chaos e2e tests).
	Chaos *faults.Config
	// Trace, when set, enables the contention profiler: sampled lock
	// and request-phase spans, per-shard lock-wait histograms and
	// hot-key sketches (internal/obs/trace). Its Shards field is
	// overridden with the server's shard count.
	Trace *trace.Config
	// Combine enables the contention engine's reaction half: each
	// shard's executor runs an obs.CombinePolicy over its write keys
	// and, while the policy is armed, coalesces same-key runs within a
	// drained batch into one tree descent (flat-combining). Off by
	// default; uniform workloads pay only the policy's sampled counter
	// even when on.
	Combine bool
	// CombineThreshold is the top-key traffic share at which a shard's
	// policy arms (obs.DefaultCombineThreshold when zero). The policy
	// disarms below half this value (hysteresis).
	CombineThreshold float64
	// WALDir, when set, enables the per-shard write-ahead log rooted
	// there (one subdirectory per shard): startup replays existing
	// segments into the shards, every executor batch is appended before
	// it is applied, and client acks wait for the Fsync policy.
	WALDir string
	// Fsync is the WAL ack policy: wal.SyncAlways, wal.SyncInterval
	// (default) or wal.SyncOff. Ignored without WALDir.
	Fsync string
	// FsyncInterval is the syncer's tick (wal.Config.Interval): the off
	// policy's flush cadence, not a wait that acks sit out; zero means
	// the wal default.
	FsyncInterval time.Duration
	// WALSegmentBytes / WALCheckpointBytes size segment rotation and the
	// checkpoint trigger; zero means the wal defaults.
	WALSegmentBytes    int64
	WALCheckpointBytes int64
	// WALSyncQueueMax bounds appended-but-unsynced ops per shard before
	// writes are shed with StatusOverloaded (interval policy only; zero
	// disables shedding).
	WALSyncQueueMax int
	// WALLogf receives WAL recovery/failure notices (nil discards).
	WALLogf func(format string, args ...any)
	// WALSyncFile overrides the log's fsync call — the fault-injection
	// seam (internal/faults.SlowSync / FailSyncAfter). Nil means a real
	// (*os.File).Sync.
	WALSyncFile func(f *os.File) error
}

func (c *Config) normalize() error {
	if c.Index == "" {
		c.Index = "btree"
	}
	if c.Index != "btree" && c.Index != "art" {
		return fmt.Errorf("server: unknown index kind %q", c.Index)
	}
	if c.Scheme == "" {
		c.Scheme = "OptiQL"
	}
	if _, err := locks.ByName(c.Scheme); err != nil {
		return err
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 64
	}
	return nil
}

// execQDepth bounds queued writes per shard; a full queue blocks the
// submitting reader, propagating backpressure to that client.
const execQDepth = 1024

// closedDeadline is a long-expired read deadline, used to unblock
// readers at shutdown.
var closedDeadline = time.Unix(1, 0)

type serverStats struct {
	conns, gets, puts, deletes, scans, batches, errors, ops atomic.Uint64
	panics, shed, reaped                                    atomic.Uint64
}

// Stats is a point-in-time sample of the server's operation counters.
// Ops counts individual completed operations (batch sub-operations
// individually; the batch envelope is counted only in Batches).
type Stats struct {
	Conns   uint64 `json:"conns"`
	Gets    uint64 `json:"gets"`
	Puts    uint64 `json:"puts"`
	Deletes uint64 `json:"deletes"`
	Scans   uint64 `json:"scans"`
	Batches uint64 `json:"batches"`
	Errors  uint64 `json:"errors"`
	Ops     uint64 `json:"ops"`
	// Panics counts handler panics recovered (each answered with
	// StatusErr; the process survived all of them).
	Panics uint64 `json:"panics"`
	// Shed counts writes answered with StatusOverloaded by admission
	// control instead of being queued.
	Shed uint64 `json:"shed"`
	// Reaped counts connections closed by the read deadline (idle or
	// slow-loris peers).
	Reaped uint64 `json:"reaped"`
}

// Server is the sharded KV service. Create with New, bind with Listen
// (or Start), stop with Shutdown.
type Server struct {
	cfg    Config
	scheme *locks.Scheme
	pool   *core.Pool
	reg    *obs.Registry
	shards []*shard
	inj    *faults.Injector
	// walDefersAcks is true when the WAL policy parks write acks on a
	// later fsync (interval/always): only then do pendings carry the
	// applied barrier that lets reads pass waiting acks. Under off (or
	// no WAL) acks land at apply time and ready doubles as the barrier.
	walDefersAcks bool
	// resil is the dedicated counter set for server-level resilience
	// events (recovered panics, sheds, reaped connections).
	resil *obs.Counters

	// tracer is the contention profiler (nil when Config.Trace is nil;
	// every downstream call no-ops on nil). Connection reader buffers
	// are recycled through tbFree because each conn needs a Buf it
	// exclusively owns (the sampling counter is unsynchronized), and
	// churning connections must not grow the tracer's buffer list
	// without bound.
	tracer  *trace.Tracer
	tbMu    sync.Mutex
	tbFree  []*trace.Buf
	connSeq atomic.Uint64

	ln      net.Listener
	mu      sync.Mutex
	conns   map[*conn]struct{}
	closing atomic.Bool
	closeEx sync.Once

	connWG sync.WaitGroup
	execWG sync.WaitGroup

	stats serverStats
	hooks testHooks
}

// testHooks are in-package fault hooks the chaos tests use to inject
// failures the transport layer cannot: a key whose operations panic
// inside the handler, and an artificial per-write executor delay that
// builds a standing queue so admission control has something to shed.
// Both are inert (zero) outside tests.
type testHooks struct {
	panicKey  atomic.Uint64 // panic on ops touching this key (0 = off)
	execDelay atomic.Int64  // ns slept per executor write (0 = off)
}

// maybePanic fires the injected handler panic for key k.
func (s *Server) maybePanic(k uint64) {
	if pk := s.hooks.panicKey.Load(); pk != 0 && pk == k {
		panic(fmt.Sprintf("injected handler panic on key %#x", k))
	}
}

// noteRecoveredPanic accounts one survived handler panic.
func (s *Server) noteRecoveredPanic() {
	s.stats.panics.Add(1)
	s.stats.errors.Add(1)
	s.resil.Inc(obs.EvSrvPanic)
}

// New builds the shards and starts their write executors. The server
// does not accept connections until Listen/Start.
func New(cfg Config) (*Server, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		scheme: locks.MustByName(cfg.Scheme),
		pool:   core.NewPool(core.MaxQNodes),
		reg:    obs.NewRegistry(),
		conns:  make(map[*conn]struct{}),
	}
	s.resil = s.reg.NewCounters()
	if cfg.Trace != nil {
		tc := *cfg.Trace
		tc.Shards = cfg.Shards
		s.tracer = trace.New(tc)
	}
	if cfg.Chaos.Any() {
		chaos := *cfg.Chaos
		if chaos.Counters == nil {
			// Injections surface in the server's own counter registry
			// (and therefore its /metrics and exit summary).
			chaos.Counters = s.reg.NewCounters()
		}
		s.inj = faults.NewInjector(chaos)
	}
	for i := 0; i < cfg.Shards; i++ {
		idx, err := newIndex(cfg.Index, s.scheme, cfg.NodeSize)
		if err != nil {
			return nil, err
		}
		e := &executor{
			idx:      idx,
			ch:       make(chan writeOp, execQDepth),
			batchMax: cfg.BatchMax,
			ctx:      locks.NewCtx(s.pool, 8),
			srv:      s,
			tb:       s.tracer.NewBuf(i, i),
		}
		if cfg.Combine {
			e.pol = obs.NewCombinePolicy(cfg.CombineThreshold)
			e.gid = make([]int32, 0, cfg.BatchMax)
			e.nxt = make([]int32, cfg.BatchMax)
		}
		e.ctx.SetCounters(s.reg.NewCounters())
		e.ctx.SetTrace(e.tb)
		s.shards = append(s.shards, &shard{idx: idx, exec: e})
	}
	// Recovery replays into the shard indexes on the executors' Ctxs, so
	// it runs before the executor goroutines start.
	if cfg.WALDir != "" {
		if err := s.openWALs(); err != nil {
			return nil, err
		}
	}
	for _, sh := range s.shards {
		s.execWG.Add(1)
		go sh.exec.run()
	}
	return s, nil
}

// getConnBuf hands out a trace buffer for one connection's reader, a
// recycled one when available. A recycled buffer keeps its original
// worker label — the Chrome-export row — but span IDs carry the real
// connection identity, so stitching stays correct. Nil when tracing
// is off.
func (s *Server) getConnBuf(worker int) *trace.Buf {
	if s.tracer == nil {
		return nil
	}
	s.tbMu.Lock()
	if n := len(s.tbFree); n > 0 {
		b := s.tbFree[n-1]
		s.tbFree = s.tbFree[:n-1]
		s.tbMu.Unlock()
		return b
	}
	s.tbMu.Unlock()
	return s.tracer.NewBuf(-1, worker)
}

// putConnBuf returns a closed connection's trace buffer for reuse.
func (s *Server) putConnBuf(b *trace.Buf) {
	if b == nil {
		return
	}
	s.tbMu.Lock()
	s.tbFree = append(s.tbFree, b)
	s.tbMu.Unlock()
}

// shardIdx routes a key to its partition index.
func (s *Server) shardIdx(k uint64) int {
	return int(shardHash(k) % uint64(len(s.shards)))
}

// Listen binds the configured address and returns it (useful with
// port 0). Call Serve afterwards, or use Start. With chaos configured
// the listener (and every connection it accepts) is fault-wrapped.
func (s *Server) Listen() (net.Addr, error) {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return nil, err
	}
	addr := ln.Addr()
	if s.inj != nil {
		s.ln = s.inj.WrapListener(ln)
	} else {
		s.ln = ln
	}
	return addr, nil
}

// Serve accepts connections until Shutdown closes the listener. It
// returns nil on a shutdown-initiated stop. Transient accept failures
// — injected chaos, EMFILE under fd pressure — are retried after a
// short pause instead of killing the accept loop.
func (s *Server) Serve() error {
	if s.ln == nil {
		if _, err := s.Listen(); err != nil {
			return err
		}
	}
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			if s.closing.Load() {
				return nil
			}
			if te, ok := err.(interface{ Temporary() bool }); ok && te.Temporary() {
				time.Sleep(time.Millisecond)
				continue
			}
			return err
		}
		s.serveConn(nc)
	}
}

// FaultInjector returns the server's chaos injector (nil when no
// chaos was configured). Live experiments and the e2e harness use it
// to read injection stats or disable faults for a verification phase.
func (s *Server) FaultInjector() *faults.Injector { return s.inj }

// Start is Listen plus Serve in a background goroutine.
func (s *Server) Start() (net.Addr, error) {
	addr, err := s.Listen()
	if err != nil {
		return nil, err
	}
	go s.Serve()
	return addr, nil
}

// Shutdown gracefully stops the server: it stops accepting, unblocks
// readers waiting for new requests, waits for every admitted request
// to be executed and answered, then drains and stops the shard
// executors. Requests a client has sent but the server has not yet
// read may go unanswered (clients wanting a clean drain should
// half-close and read to EOF); requests admitted — including every
// write queued at an executor — are always completed. Returns
// ctx.Err() if the context expires first, leaving the remaining
// teardown running in the background.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closing.Store(true)
	if s.ln != nil {
		s.ln.Close()
	}
	s.mu.Lock()
	for c := range s.conns {
		c.nc.SetReadDeadline(closedDeadline)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		// No connection goroutines remain, so nothing can submit to the
		// executors: close their queues, letting them drain and exit.
		s.closeEx.Do(func() {
			for _, sh := range s.shards {
				close(sh.exec.ch)
			}
		})
		s.execWG.Wait()
		// Every admitted write is now appended and applied; seal the
		// shard logs (flush + fsync + close) so a restart replays this
		// state with no torn tail, under every fsync policy.
		s.closeWALs()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stats samples the operation counters.
func (s *Server) Stats() Stats {
	return Stats{
		Conns:   s.stats.conns.Load(),
		Gets:    s.stats.gets.Load(),
		Puts:    s.stats.puts.Load(),
		Deletes: s.stats.deletes.Load(),
		Scans:   s.stats.scans.Load(),
		Batches: s.stats.batches.Load(),
		Errors:  s.stats.errors.Load(),
		Ops:     s.stats.ops.Load(),
		Panics:  s.stats.panics.Load(),
		Shed:    s.stats.shed.Load(),
		Reaped:  s.stats.reaped.Load(),
	}
}

// Counters merges the lock/index event counters of every connection
// and executor Ctx the server has handed out.
func (s *Server) Counters() obs.Snapshot { return s.reg.Snapshot() }

// Len sums the shard index sizes (exact when quiescent).
func (s *Server) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.idx.Len()
	}
	return n
}

// AttachLive points a live observability source (the -obs /metrics
// endpoint) at this server's event counters, completed-operation
// total and — when tracing is on — the /debug/contention report.
func (s *Server) AttachLive(src *obs.LiveSource) {
	src.Set(s.reg.Snapshot, func() uint64 { return s.stats.ops.Load() })
	if s.tracer != nil || s.cfg.Combine {
		src.SetContention(s.Contention)
	}
	if s.WALEnabled() {
		src.SetWAL(s.WALReport)
	}
}

// Tracer returns the server's contention profiler (nil when tracing
// is off); optiqld uses it for the -trace Chrome export at shutdown.
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// Contention builds the live contention report: the tracer snapshot
// plus the instantaneous per-shard executor queue depths, and — when
// the contention engine is on — the combine section (policy arming and
// batch-grant/flat-combining counters). Nil when both tracing and
// combining are off.
func (s *Server) Contention() *obs.ContentionReport {
	if s.tracer == nil && !s.cfg.Combine {
		return nil
	}
	depths := make([]int64, len(s.shards))
	for i, sh := range s.shards {
		depths[i] = sh.exec.inflight.Load()
	}
	rep := obs.ContentionFrom(s.tracer, depths)
	if rep == nil {
		rep = &obs.ContentionReport{QueueDepth: depths}
	}
	if s.cfg.Combine {
		policies := make([]*obs.CombinePolicy, len(s.shards))
		threshold := obs.DefaultCombineThreshold
		for i, sh := range s.shards {
			policies[i] = sh.exec.pol
			if t := sh.exec.pol.Threshold(); t > 0 {
				threshold = t
			}
		}
		rep.Combine = obs.CombineReportFrom(true, threshold, policies, s.reg.Snapshot())
	}
	return rep
}
