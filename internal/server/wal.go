package server

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"optiql/internal/hist"
	"optiql/internal/locks"
	"optiql/internal/obs"
	"optiql/internal/server/wire"
	"optiql/internal/wal"
)

// This file is the server side of the durability path: opening one
// write-ahead log per shard (replaying it into the shard's index
// before the server accepts connections), a connection's per-shard
// append-and-apply of its logged writes, the deferred-acknowledgement
// batches that ride the log's group commit, and the merged durability
// report.

// walMetaName is the layout descriptor at the WAL root. Shard routing
// is baked into the per-shard log directories, so reopening a log tree
// with a different shard count would replay keys into the wrong
// shards; the meta file turns that mistake into a startup error.
const walMetaName = "META"

// openWALs opens (and recovers) one log per shard under cfg.WALDir.
// Called from New after the shards exist but before the server
// accepts connections, so replay has the indexes to itself.
func (s *Server) openWALs() error {
	if err := s.checkWALMeta(); err != nil {
		return err
	}
	s.walDefersAcks = s.cfg.Fsync != wal.SyncOff
	replayCtx := locks.NewCtx(s.pool, 0)
	defer replayCtx.Close()
	for i, sh := range s.shards {
		dir := filepath.Join(s.cfg.WALDir, fmt.Sprintf("shard-%03d", i))
		// The checkpoint writer scans the shard concurrently with the
		// writers, so it gets its own Ctx (closed in closeWALs). It only
		// reads, and no read path takes a pool queue node, so it reserves
		// none.
		ckptCtx := locks.NewCtx(s.pool, 0)
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
					idx.Insert(replayCtx, o.Key, o.Val)
				} else {
					idx.Delete(replayCtx, o.Key)
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
	}
	return nil
}

// closeWALs seals every open shard log (fsync + close) and releases
// the checkpoint contexts. Called once no connection can write.
func (s *Server) closeWALs() {
	for _, sh := range s.shards {
		if sh.wal != nil {
			if err := sh.wal.Close(); err != nil && s.cfg.WALLogf != nil {
				s.cfg.WALLogf("wal: close: %v", err)
			}
			sh.wal = nil
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

// loggedWrite is one write of the request being dispatched, held
// until the connection appends its shard's share (commitLogged).
type loggedWrite struct {
	si   int
	req  *wire.Request
	slot *wire.Response
}

// ackBatch is the pooled wal.Committer for one request's writes to one
// shard: the connection fills slots while it applies, then hands the
// batch to wal.Commit. Committed runs on the log's syncer goroutine
// (or inline, policy-dependent) and is the point where the client
// finally hears back.
type ackBatch struct {
	p     *pending
	slots []*wire.Response
}

// ackBatchCap is a pooled ackBatch's slot capacity; one grown past it
// by a large BATCH goes to the GC rather than back to the pool.
const ackBatchCap = 64

var ackBatchPool = sync.Pool{New: func() any {
	return &ackBatch{slots: make([]*wire.Response, 0, ackBatchCap)}
}}

// Committed implements wal.Committer: on fsync failure every slot is
// rewritten to StatusErr — the write may be in the index but is not
// durable, and an error answer keeps it in the client's indeterminate
// set rather than its acked set.
func (a *ackBatch) Committed(err error) {
	if err != nil {
		msg := "wal: " + err.Error()
		for _, slot := range a.slots {
			slot.Status = wire.StatusErr
			slot.Err = msg
		}
	}
	for range a.slots {
		a.p.opDone()
	}
	if cap(a.slots) <= ackBatchCap {
		clear(a.slots)
		*a = ackBatch{slots: a.slots[:0]}
		ackBatchPool.Put(a)
	}
}

// commitLogged appends and applies the request's logged writes, one
// record per shard, and reports false if an apply panicked. Each
// shard's share keeps its request order.
func (c *conn) commitLogged(ctx *locks.Ctx, p *pending) bool {
	ws := c.logged
	slices.SortStableFunc(ws, func(a, b loggedWrite) int { return cmp.Compare(a.si, b.si) })
	ok := true
	for len(ws) > 0 {
		n := 1
		for n < len(ws) && ws[n].si == ws[0].si {
			n++
		}
		if !c.commitShard(ctx, p, c.srv.shards[ws[0].si], ws[:n]) {
			ok = false
		}
		ws = ws[n:]
	}
	clear(c.logged)
	c.logged = c.logged[:0]
	return ok
}

// commitShard writes one shard's share of a request through its log:
// append first (nothing may become observable unlogged), then apply,
// then hand the acks to the commit policy. The shard mutex spans the
// append through NoteApplied, so the log's order is the apply order;
// Commit, which fsyncs inline under the always policy, runs after it.
// A panicking apply is answered StatusErr while the rest still apply,
// so the index keeps every logged write.
func (c *conn) commitShard(ctx *locks.Ctx, p *pending, sh *shard, ws []loggedWrite) bool {
	s := c.srv
	ops := c.walOps[:0]
	for _, w := range ws {
		o := wal.Op{Op: wal.OpPut, Key: w.req.Key, Val: w.req.Value}
		if w.req.Op == wire.OpDelete {
			o = wal.Op{Op: wal.OpDelete, Key: w.req.Key}
		}
		ops = append(ops, o)
	}
	c.walOps = ops
	sh.mu.Lock()
	seq, err := sh.wal.Append(ops)
	if err != nil {
		sh.mu.Unlock()
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
		if !c.applyWrite(ctx, sh.idx, p, w.si, w.req, w.slot) {
			ok = false
		}
	}
	sh.wal.NoteApplied(seq)
	sh.mu.Unlock()
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
	sh.wal.Commit(seq, len(ws), ab)
	return ok
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

// walGate pre-screens a write against its shard's log: poisoned logs
// answer StatusErr (reads keep serving), a lagging fsync queue sheds
// with StatusOverloaded. Reports whether the write was answered here.
func (c *conn) walGate(sh *shard, p *pending, slot *wire.Response) bool {
	l := sh.wal
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
