package server

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"optiql/internal/hist"
	"optiql/internal/locks"
	"optiql/internal/obs"
	"optiql/internal/server/wire"
	"optiql/internal/wal"
)

// This file is the server side of the durability path: opening the
// write-ahead log (replaying it into the index before the server
// accepts connections), a connection's append-and-apply of its logged
// writes, the deferred-acknowledgement batches that ride the log's
// group commit, and the durability report.

// walMetaName is the layout marker at the WAL root, and walLayout its
// content: one log, whose segments and checkpoints sit at the root.
// The marker keeps a later layout change from replaying this one by
// mistake.
const (
	walMetaName = "META"
	walLayout   = "optiql-wal v2\n"
)

// openWAL opens (and recovers) the log in cfg.WALDir. Called from New
// after the index exists but before the server accepts connections,
// so replay has the index to itself.
func (s *Server) openWAL() error {
	if err := s.checkWALLayout(); err != nil {
		return err
	}
	s.walDefersAcks = s.cfg.Fsync != wal.SyncOff
	replayCtx := locks.NewCtx(s.pool, 0)
	defer replayCtx.Close()
	// The checkpoint writer scans the index concurrently with the
	// writers, so it gets its own Ctx (closed in closeWAL). It only
	// reads, and no read path takes a pool queue node, so it reserves
	// none.
	ckptCtx := locks.NewCtx(s.pool, 0)
	ckptCtx.SetCounters(s.reg.NewCounters())
	idx := s.idx
	wcfg := wal.Config{
		Policy:          s.cfg.Fsync,
		Interval:        s.cfg.FsyncInterval,
		SegmentBytes:    s.cfg.WALSegmentBytes,
		CheckpointBytes: s.cfg.WALCheckpointBytes,
		SyncQueueMax:    s.cfg.WALSyncQueueMax,
		SyncFile:        s.cfg.WALSyncFile,
		Snapshot:        func(emit func(k, v uint64) error) error { return snapshotIndex(idx, ckptCtx, emit) },
		Counters:        s.reg.NewCounters(),
		Logf:            s.cfg.WALLogf,
	}
	l, _, err := wal.Open(s.cfg.WALDir, wcfg, func(_ uint64, ops []wal.Op) {
		for j := range ops {
			o := &ops[j]
			if o.Op == wal.OpPut {
				idx.Insert(replayCtx, o.Key, o.Val)
			} else {
				idx.Delete(replayCtx, o.Key)
			}
		}
	})
	if err != nil {
		ckptCtx.Close()
		return err
	}
	s.wal = l
	s.ckptCtx = ckptCtx
	return nil
}

// closeWAL seals the log (fsync + close) and releases the checkpoint
// context, once however many times Shutdown calls it, after no
// connection can write. s.wal stays set: WALReport and WALRecovery read
// it unsynchronized, during a drain too, and a sealed log still reports.
func (s *Server) closeWAL() {
	s.walClose.Do(func() {
		if s.wal == nil {
			return
		}
		if err := s.wal.Close(); err != nil && s.cfg.WALLogf != nil {
			s.cfg.WALLogf("wal: close: %v", err)
		}
		s.ckptCtx.Close()
	})
}

// checkWALLayout validates the WAL root, writing the layout marker on
// first use. A root in the old sharded layout (a v1 marker, or a
// shard-NNN directory of per-shard logs) is refused untouched:
// replaying it as one log, or starting empty beside it, would lose
// acknowledged writes.
func (s *Server) checkWALLayout() error {
	dir := s.cfg.WALDir
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return fmt.Errorf("wal dir: %w", err)
	}
	path := filepath.Join(dir, walMetaName)
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("wal dir: %w", err)
	}
	// Glob's only error is a malformed pattern, and this one is fixed.
	shardDirs, _ := filepath.Glob(filepath.Join(dir, "shard-[0-9][0-9][0-9]"))
	switch {
	case len(shardDirs) > 0 || strings.HasPrefix(string(data), "optiql-wal v1\n"):
		return fmt.Errorf("wal dir %s holds the old sharded layout (META v1, one log per shard-NNN directory), which this server does not replay; refusing to start", dir)
	case err == nil && string(data) != walLayout:
		return fmt.Errorf("wal dir %s: unreadable %s file", dir, walMetaName)
	case err == nil:
		return nil
	}
	if err := os.WriteFile(path, []byte(walLayout), 0o666); err != nil {
		return fmt.Errorf("wal dir: %w", err)
	}
	return nil
}

// snapshotIndex streams the index's pairs to emit in key chunks via the
// zero-alloc Scan path (the chunk buffer is reused across the whole
// snapshot; Scan appends into it without per-pair allocation).
func snapshotIndex(idx Index, ctx *locks.Ctx, emit func(k, v uint64) error) error {
	const chunk = 1024
	buf := make([]wire.KV, 0, chunk)
	start := uint64(0)
	for {
		buf = idx.Scan(ctx, start, chunk, buf[:0])
		for _, p := range buf {
			if err := emit(p.Key, p.Value); err != nil {
				return err
			}
		}
		if len(buf) < chunk {
			return nil
		}
		last := buf[len(buf)-1].Key
		if last == ^uint64(0) {
			return nil
		}
		start = last + 1
	}
}

// loggedWrite is one write of the request being dispatched, held
// until the connection appends the request's record (commitLogged).
type loggedWrite struct {
	req  *wire.Request
	slot *wire.Response
}

// ackBatch is the pooled wal.Committer for one request's logged
// writes: the connection fills slots while it applies, then hands the
// batch to wal.Commit. Committed runs on the log's syncer goroutine
// (or inline, policy-dependent) and is the point where the client
// finally hears back.
type ackBatch struct {
	p     *pending
	slots []*wire.Response
}

// ackBatchCap is a new ackBatch's slot capacity. A larger BATCH grows
// it, and the grown batch goes back to the pool: slots never exceed
// wire.MaxBatch pointers (8 KiB).
const ackBatchCap = 64

var ackBatchPool = sync.Pool{New: func() any {
	return &ackBatch{slots: make([]*wire.Response, 0, ackBatchCap)}
}}

// Committed implements wal.Committer: on fsync failure every slot is
// rewritten to StatusErr — the write may be in the index but is not
// durable, and an error answer keeps it in the client's indeterminate
// set rather than its acked set. The batch goes back to the pool
// before the acks: after the request's last opDone the writer may
// recycle its pending, slots included.
func (a *ackBatch) Committed(err error) {
	if err != nil {
		msg := "wal: " + err.Error()
		for _, slot := range a.slots {
			slot.Status = wire.StatusErr
			slot.Err = msg
		}
	}
	p, n := a.p, len(a.slots)
	clear(a.slots)
	*a = ackBatch{slots: a.slots[:0]}
	ackBatchPool.Put(a)
	for range n {
		p.opDone()
	}
}

// commitLogged writes the request's logged writes through the log as
// one record, in request order: append first (nothing may become
// observable unlogged), then apply, then hand the acks to the commit
// policy. walMu spans the append through NoteApplied, so the log's
// order is the apply order; Commit, which fsyncs inline under the
// always policy, runs after it. A panicking apply is answered
// StatusErr while the rest still apply, so the index keeps every
// logged write; it reports false.
func (c *conn) commitLogged(ctx *locks.Ctx, p *pending) bool {
	s := c.srv
	ws := c.logged
	ops := c.walOps[:0]
	for _, w := range ws {
		o := wal.Op{Op: wal.OpPut, Key: w.req.Key, Val: w.req.Value}
		if w.req.Op == wire.OpDelete {
			o = wal.Op{Op: wal.OpDelete, Key: w.req.Key}
		}
		ops = append(ops, o)
	}
	c.walOps = ops
	s.walMu.Lock()
	seq, err := s.wal.Append(ops)
	if err != nil {
		s.walMu.Unlock()
		// Poisoned or closed log: fail the writes without touching the
		// index. Applying an unlogged write would let a client read
		// state that silently vanishes on restart.
		msg := "wal: " + err.Error()
		for _, w := range ws {
			w.slot.Status = wire.StatusErr
			w.slot.Err = msg
			p.opDone()
		}
		s.stats.errors.Add(uint64(len(ws)))
		return true
	}
	ok := true
	for _, w := range ws {
		if !c.applyWrite(ctx, p, w.req, w.slot) {
			ok = false
		}
	}
	s.wal.NoteApplied(seq)
	s.walMu.Unlock()
	if !s.walDefersAcks {
		// Off policy: the ack never waits on an fsync, so it lands at
		// apply time, exactly like the no-WAL path.
		for range ws {
			p.opDone()
		}
		return ok
	}
	ab := ackBatchPool.Get().(*ackBatch)
	ab.p = p
	for _, w := range ws {
		ab.slots = append(ab.slots, w.slot)
	}
	s.wal.Commit(seq, len(ws), ab)
	return ok
}

// WALEnabled reports whether this server runs with a write-ahead log.
func (s *Server) WALEnabled() bool { return s.cfg.WALDir != "" }

// WALRecovery returns the recovery stats of the startup replay (zero
// without a WAL).
func (s *Server) WALRecovery() wal.RecoveryStats {
	if s.wal == nil {
		return wal.RecoveryStats{}
	}
	return s.wal.Recovery()
}

// WALReport is the durability report served at /debug/wal and
// embedded in run reports. Nil without a WAL.
func (s *Server) WALReport() *obs.WALReport {
	if !s.WALEnabled() {
		return nil
	}
	rep := &obs.WALReport{
		Enabled: true,
		Policy:  s.cfg.Fsync,
		Dir:     s.cfg.WALDir,
	}
	if rep.Policy == "" {
		rep.Policy = wal.SyncInterval
	}
	l := s.wal
	st := l.Stats()
	rec := l.Recovery()
	rep.AppendedRecords = st.AppendedRecords
	rep.AppendedOps = st.AppendedOps
	rep.AppendedBytes = st.AppendedBytes
	rep.Syncs = st.Syncs
	rep.Rotations = st.Rotations
	rep.Checkpoints = st.Checkpoints
	rep.SegmentsReclaimed = st.SegmentsReclaimed
	rep.LagSheds = st.LagSheds
	rep.DurableSeq = st.DurableSeq
	rep.AppliedSeq = st.AppliedSeq
	rep.PendingOps = st.PendingOps
	rep.ReplayedRecords = rec.RecordsReplayed
	rep.ReplayedOps = rec.OpsReplayed
	rep.TornTruncations = uint64(rec.TornRecords)
	rep.CheckpointPairs = rec.CheckpointPairs
	var fh hist.Histogram
	l.FsyncHist(&fh)
	rep.FsyncLatency = obs.LatencyReportFrom(&fh)
	return rep
}

// walGate pre-screens a write against the log: a poisoned log answers
// StatusErr (reads keep serving), a lagging fsync queue sheds with
// StatusOverloaded. Reports whether the write was answered here.
func (c *conn) walGate(p *pending, slot *wire.Response) bool {
	l := c.srv.wal
	if err := l.Err(); err != nil {
		slot.Status = wire.StatusErr
		slot.Err = "wal: " + err.Error()
		c.srv.stats.errors.Add(1)
		p.opDone()
		return true
	}
	if l.Lagging() {
		l.NoteShed()
		c.shed(p, slot)
		return true
	}
	return false
}
