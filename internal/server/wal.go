package server

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"optiql/internal/hist"
	"optiql/internal/locks"
	"optiql/internal/obs"
	"optiql/internal/server/wire"
	"optiql/internal/wal"
)

// This file is the server side of the durability path: opening one
// write-ahead log per shard (replaying it into the shard's index
// before the executors start), the deferred-acknowledgement batches
// that ride the log's group commit, and the merged durability report.

// walMetaName is the layout descriptor at the WAL root. Shard routing
// is baked into the per-shard log directories, so reopening a log tree
// with a different shard count would replay keys into the wrong
// shards; the meta file turns that mistake into a startup error.
const walMetaName = "META"

// openWALs opens (and recovers) one log per shard under cfg.WALDir.
// Called from New after the shards exist but before their executors
// start, so replay owns each executor's Ctx without racing it.
func (s *Server) openWALs() error {
	if err := s.checkWALMeta(); err != nil {
		return err
	}
	s.walDefersAcks = s.cfg.Fsync != wal.SyncOff
	for i, sh := range s.shards {
		dir := filepath.Join(s.cfg.WALDir, fmt.Sprintf("shard-%03d", i))
		e := sh.exec
		// The checkpoint writer scans the shard concurrently with the
		// executor, so it gets its own Ctx (closed in closeWALs).
		ckptCtx := locks.NewCtx(s.pool, 8)
		ckptCtx.SetCounters(s.reg.NewCounters())
		idx := sh.idx
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
		l, _, err := wal.Open(dir, wcfg, func(_ uint64, ops []wal.Op) {
			for j := range ops {
				o := &ops[j]
				if o.Op == wal.OpPut {
					idx.Insert(e.ctx, o.Key, o.Val)
				} else {
					idx.Delete(e.ctx, o.Key)
				}
			}
		})
		if err != nil {
			ckptCtx.Close()
			s.closeWALs()
			return fmt.Errorf("shard %d: %w", i, err)
		}
		sh.wal = l
		sh.ckptCtx = ckptCtx
		e.wal = l
		e.walOps = make([]wal.Op, 0, s.cfg.BatchMax)
	}
	return nil
}

// closeWALs seals every open shard log (fsync + close) and releases
// the checkpoint contexts. Called after the executors have exited.
func (s *Server) closeWALs() {
	for _, sh := range s.shards {
		if sh.wal != nil {
			if err := sh.wal.Close(); err != nil && s.cfg.WALLogf != nil {
				s.cfg.WALLogf("wal: close: %v", err)
			}
			sh.wal = nil
			sh.exec.wal = nil
		}
		if sh.ckptCtx != nil {
			sh.ckptCtx.Close()
			sh.ckptCtx = nil
		}
	}
}

// checkWALMeta validates the WAL root against this server's layout,
// writing the descriptor on first use.
func (s *Server) checkWALMeta() error {
	if err := os.MkdirAll(s.cfg.WALDir, 0o777); err != nil {
		return fmt.Errorf("wal dir: %w", err)
	}
	path := filepath.Join(s.cfg.WALDir, walMetaName)
	if data, err := os.ReadFile(path); err == nil {
		var shards int
		if n, serr := fmt.Sscanf(string(data), "optiql-wal v1\nshards=%d\n", &shards); n != 1 || serr != nil {
			return fmt.Errorf("wal dir %s: unreadable %s file", s.cfg.WALDir, walMetaName)
		}
		if shards != s.cfg.Shards {
			return fmt.Errorf("wal dir %s was written with %d shards, server configured for %d: refusing to misroute replay", s.cfg.WALDir, shards, s.cfg.Shards)
		}
		return nil
	}
	data := fmt.Sprintf("optiql-wal v1\nshards=%d\n", s.cfg.Shards)
	if err := os.WriteFile(path, []byte(data), 0o666); err != nil {
		return fmt.Errorf("wal dir: %w", err)
	}
	return nil
}

// snapshotIndex streams a shard's pairs to emit in key chunks via the
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

// ackItem is one write waiting on the log's commit policy; ackBatch is
// the pooled wal.Committer for one executor batch. The executor fills
// items while applying, then hands the batch to wal.Commit; Committed
// runs on the log's syncer goroutine (or inline, policy-dependent) and
// is the point where the batch's clients finally hear back.
type ackItem struct {
	p    *pending
	slot *wire.Response
}

type ackBatch struct {
	items []ackItem
}

var ackBatchPool = sync.Pool{New: func() any {
	return &ackBatch{items: make([]ackItem, 0, 64)}
}}

// Committed implements wal.Committer: on fsync failure every slot is
// rewritten to StatusErr — the write may be in the index but is not
// durable, and an error answer keeps it in the client's indeterminate
// set rather than its acked set.
func (a *ackBatch) Committed(err error) {
	if err != nil {
		msg := "wal: " + err.Error()
		for i := range a.items {
			a.items[i].slot.Status = wire.StatusErr
			a.items[i].slot.Err = msg
		}
	}
	for i := range a.items {
		a.items[i].p.opDone()
		a.items[i] = ackItem{}
	}
	a.items = a.items[:0]
	ackBatchPool.Put(a)
}

// execBatch runs one drained batch through the WAL when one is
// configured: append first (nothing may become observable unlogged),
// then apply to the index collecting deferred acks, then hand the acks
// to the commit policy.
func (e *executor) execBatch(buf []writeOp) {
	if e.wal == nil {
		e.applyBatch(buf)
		return
	}
	ops := e.walOps[:0]
	for i := range buf {
		w := &buf[i]
		o := wal.Op{Op: wal.OpPut, Key: w.key, Val: w.val}
		if w.op == wire.OpDelete {
			o = wal.Op{Op: wal.OpDelete, Key: w.key}
		}
		ops = append(ops, o)
	}
	e.walOps = ops
	seq, err := e.wal.Append(ops)
	if err != nil {
		// Poisoned or closed log: fail the whole batch without touching
		// the index. Applying an unlogged write would let a client read
		// state that silently vanishes on restart.
		msg := "wal: " + err.Error()
		for i := range buf {
			w := &buf[i]
			w.slot.Status = wire.StatusErr
			w.slot.Err = msg
			w.p.noteApplied()
			w.p.opDone()
			e.inflight.Add(-1)
		}
		e.srv.stats.errors.Add(uint64(len(buf)))
		return
	}
	if !e.srv.walDefersAcks {
		// Off policy: the ack never waits on an fsync, so skip the
		// deferred-ack batch entirely — completions land at apply time,
		// exactly like the no-WAL path, and the syncer's tick flushes.
		e.applyBatch(buf)
		e.wal.NoteApplied(seq)
		return
	}
	ab := ackBatchPool.Get().(*ackBatch)
	e.ack = ab
	e.applyBatch(buf)
	e.ack = nil
	e.wal.NoteApplied(seq)
	e.wal.Commit(seq, len(ab.items), ab)
}

// complete finishes one write: immediately without a WAL, otherwise by
// parking it on the current batch's deferred-ack set. Either way the
// write is in the index now, so the read-your-writes barrier releases
// here even though a deferred ack still waits on the fsync.
func (e *executor) complete(w *writeOp) {
	w.p.noteApplied()
	if e.ack != nil {
		e.ack.items = append(e.ack.items, ackItem{p: w.p, slot: w.slot})
		return
	}
	w.p.opDone()
}

// WALEnabled reports whether this server runs with a write-ahead log.
func (s *Server) WALEnabled() bool { return s.cfg.WALDir != "" }

// WALRecovery returns the per-shard recovery stats of the startup
// replay (nil without a WAL).
func (s *Server) WALRecovery() []wal.RecoveryStats {
	if !s.WALEnabled() {
		return nil
	}
	out := make([]wal.RecoveryStats, len(s.shards))
	for i, sh := range s.shards {
		if sh.wal != nil {
			out[i] = sh.wal.Recovery()
		}
	}
	return out
}

// WALReport merges the shard logs into the durability report served at
// /debug/wal and embedded in run reports. Nil without a WAL.
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
	var fh hist.Histogram
	for _, sh := range s.shards {
		l := sh.wal
		if l == nil {
			continue
		}
		st := l.Stats()
		rep.AppendedRecords += st.AppendedRecords
		rep.AppendedOps += st.AppendedOps
		rep.AppendedBytes += st.AppendedBytes
		rep.Syncs += st.Syncs
		rep.Rotations += st.Rotations
		rep.Checkpoints += st.Checkpoints
		rep.SegmentsReclaimed += st.SegmentsReclaimed
		rep.LagSheds += st.LagSheds
		rep.DurableSeq = append(rep.DurableSeq, st.DurableSeq)
		rep.AppliedSeq = append(rep.AppliedSeq, st.AppliedSeq)
		rep.PendingOps = append(rep.PendingOps, st.PendingOps)
		rec := l.Recovery()
		rep.ReplayedRecords += rec.RecordsReplayed
		rep.ReplayedOps += rec.OpsReplayed
		rep.TornTruncations += uint64(rec.TornRecords)
		rep.CheckpointPairs += rec.CheckpointPairs
		l.FsyncHist(&fh)
	}
	rep.FsyncLatency = obs.LatencyReportFrom(&fh)
	return rep
}

// walGate pre-screens a write against shard si's log: poisoned logs
// answer StatusErr (reads keep serving), a lagging fsync queue sheds
// with StatusOverloaded. Reports whether the write was answered here.
func (c *conn) walGate(si int, p *pending, slot *wire.Response) bool {
	l := c.srv.shards[si].wal
	if l == nil {
		return false
	}
	if err := l.Err(); err != nil {
		slot.Status = wire.StatusErr
		slot.Err = "wal: " + err.Error()
		c.srv.stats.errors.Add(1)
		p.opDone()
		return true
	}
	if l.Lagging() {
		slot.Status = wire.StatusOverloaded
		c.srv.stats.shed.Add(1)
		c.srv.resil.Inc(obs.EvSrvShed)
		l.NoteShed()
		p.opDone()
		return true
	}
	return false
}
