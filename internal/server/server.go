// Package server exposes an OptiQL index substrate as a network
// key-value service: a TCP listener speaking the length-prefixed
// binary protocol of internal/server/wire, one shared index and
// per-connection pipelined request loops.
//
// Each connection's reader runs its requests on its own lock context,
// reads and writes alike. Without a write-ahead log, concurrent writers
// from different connections meet on the index's locks — the case the
// OptiQL queue and handover exist for. With one, a request's writes
// are appended as one record and applied under the server's WAL
// mutex, and their acks ride the log's group commit. Graceful shutdown
// stops accepting, unblocks idle readers and lets every admitted
// request complete before it seals the log.
package server

import (
	"context"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"optiql/internal/art"
	"optiql/internal/btree"
	"optiql/internal/core"
	"optiql/internal/faults"
	"optiql/internal/locks"
	"optiql/internal/obs"
	"optiql/internal/obs/trace"
	"optiql/internal/server/wire"
	"optiql/internal/wal"
)

// Config parameterizes a Server.
type Config struct {
	// Addr is the TCP listen address (e.g. ":4440", "127.0.0.1:0").
	Addr string
	// Index is the substrate kind: "btree" or "art".
	Index string
	// Scheme is the lock scheme name (locks.ByName).
	Scheme string
	// NodeSize is the B+-tree node size in bytes (btree only).
	NodeSize int
	// ReadTimeout bounds how long the server waits for a complete
	// request frame: connections idle longer are reaped and slow-loris
	// peers (trickling a frame forever) cannot pin a goroutine. Zero
	// disables the bound.
	ReadTimeout time.Duration
	// WriteTimeout bounds each response write/flush; a peer that stops
	// reading gets its connection dropped instead of wedging the
	// writer. Zero disables the bound.
	WriteTimeout time.Duration
	// Chaos, when it enables any fault, wraps the listener and every
	// accepted connection with the fault-injection layer (used by
	// `optiqld -chaos` and the chaos e2e tests).
	Chaos *faults.Config
	// Trace, when set, enables the contention profiler: sampled lock
	// and request-phase spans, lock-wait histograms and hot-key and
	// hot-node sketches (internal/obs/trace).
	Trace *trace.Config
	// WALDir, when set, enables the write-ahead log in that directory:
	// startup replays its checkpoint and segments into the index, a
	// request's writes are appended as one record before they are
	// applied, and client acks wait for the Fsync policy.
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
	// WALSyncQueueMax bounds appended-but-unsynced ops before
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
	return nil
}

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
	// Shed counts writes answered with StatusOverloaded instead of
	// being applied: the WAL's fsync queue was over budget, or the
	// queue-node pool could not cover the write.
	Shed uint64 `json:"shed"`
	// Reaped counts connections closed by the read deadline (idle or
	// slow-loris peers).
	Reaped uint64 `json:"reaped"`
}

// Server is the KV service. Create with New, bind with Listen
// (or Start), stop with Shutdown.
type Server struct {
	cfg    Config
	scheme *locks.Scheme
	pool   *core.Pool
	reg    *obs.Registry
	idx    Index
	inj    *faults.Injector
	// wal is the write-ahead log (nil without Config.WALDir), set by
	// New and kept after closeWAL seals it. walMu is held from a
	// record's Append through its applies to NoteApplied, so the log's
	// order is the index's apply order and Append has one caller at a
	// time.
	wal      *wal.Log
	walMu    sync.Mutex
	walClose sync.Once
	// ckptCtx is the checkpoint snapshot scanner's lock context; it
	// runs concurrently with the writers, so it has its own.
	ckptCtx *locks.Ctx
	// writeQNodes is the most pool queue nodes one write holds at once
	// (0 when the scheme's writers take none); a write reserves them
	// before it touches the index.
	writeQNodes int
	// walDefersAcks is true when the WAL policy parks write acks on a
	// later fsync (interval/always). Under off (or no WAL) acks land at
	// apply time.
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

	connWG sync.WaitGroup

	stats serverStats
	// panicKey is the chaos tests' in-package fault hook: operations on
	// this key panic inside the handler (0 = off, always outside tests).
	panicKey atomic.Uint64
}

// maybePanic fires the injected handler panic for key k.
func (s *Server) maybePanic(k uint64) {
	if pk := s.panicKey.Load(); pk != 0 && pk == k {
		panic(fmt.Sprintf("injected handler panic on key %#x", k))
	}
}

// answerPanic answers slot for a recovered handler panic r and
// accounts it.
func (s *Server) answerPanic(slot *wire.Response, r any) {
	slot.Status = wire.StatusErr
	slot.Err = fmt.Sprintf("internal error: %v", r)
	s.stats.panics.Add(1)
	s.stats.errors.Add(1)
	s.resil.Inc(obs.EvSrvPanic)
}

// New builds the index and, with a WAL, replays the log into it.
// The server does not accept connections until Listen/Start.
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
	if s.scheme.QueueWriters {
		s.writeQNodes = btree.WriteQNodes
		if cfg.Index == "art" {
			s.writeQNodes = art.WriteQNodes
		}
	}
	s.resil = s.reg.NewCounters()
	if cfg.Trace != nil {
		s.tracer = trace.New(*cfg.Trace)
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
	idx, err := newIndex(cfg.Index, s.scheme, cfg.NodeSize)
	if err != nil {
		return nil, err
	}
	s.idx = idx
	if cfg.WALDir != "" {
		if err := s.openWAL(); err != nil {
			return nil, err
		}
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
	return s.tracer.NewBuf(worker)
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
// to be executed and answered, then seals the log. Requests a
// client has sent but the server has not yet read may go unanswered
// (clients wanting a clean drain should half-close and read to EOF);
// admitted requests are always completed. Returns ctx.Err() if the
// context expires first, leaving the remaining teardown running in
// the background.
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
		// No connection goroutines remain, so every admitted write is
		// appended, applied and answered; seal the log (flush + fsync +
		// close) so a restart replays this state with no torn tail, under
		// every fsync policy.
		s.closeWAL()
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
// Ctx the server has handed out.
func (s *Server) Counters() obs.Snapshot { return s.reg.Snapshot() }

// Len is the number of keys in the index (exact when quiescent).
func (s *Server) Len() int { return s.idx.Len() }

// AttachLive points a live observability source (the -obs /metrics
// endpoint) at this server's event counters, completed-operation
// total and — when tracing is on — the /debug/contention report.
func (s *Server) AttachLive(src *obs.LiveSource) {
	src.Set(s.reg.Snapshot, func() uint64 { return s.stats.ops.Load() })
	if s.tracer != nil {
		src.SetContention(s.Contention)
	}
	if s.WALEnabled() {
		src.SetWAL(s.WALReport)
	}
}

// Tracer returns the server's contention profiler (nil when tracing
// is off); optiqld uses it for the -trace Chrome export at shutdown.
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// Contention builds the live contention report from the tracer
// snapshot. Nil when tracing is off.
func (s *Server) Contention() *obs.ContentionReport {
	return obs.ContentionFrom(s.tracer)
}
