// Package waltest holds the walorder golden cases, shaped after the
// server's connection write path: an Index apply must be dominated by
// a successful wal.Append (or be on the wal-disabled or replay path),
// and no op may be acked after a successful append unless the
// durability barrier is accounted for.
package waltest

import (
	"sync"

	"vettest/wal"
)

// Index mirrors the server's index interface: the apply primitives.
type Index interface {
	Insert(k, v uint64) bool
	Delete(k uint64) bool
}

type pending struct{ n int }

// opDone mirrors the per-op ack: the complete primitive.
func (p *pending) opDone() { p.n-- }

type write struct{ key, val uint64 }

// ackBatch mirrors the Committer the deferred acks ride: the log calls
// Committed once the record is durable.
type ackBatch struct {
	p *pending
	n int
}

func (a *ackBatch) Committed(err error) {
	for i := 0; i < a.n; i++ {
		a.p.opDone()
	}
}

type shard struct {
	idx Index
	wal *wal.Log
	mu  sync.Mutex
}

type conn struct {
	walDefersAcks bool
}

// applyWrite is the unguarded apply helper: it is not WAL-aware
// itself, so the ordering obligation lands on its callers.
func (c *conn) applyWrite(sh *shard, w write) bool {
	return sh.idx.Insert(w.key, w.val)
}

// walOps builds the record for a shard's share of a request.
func walOps(ws []write) []wal.Op {
	ops := make([]wal.Op, 0, len(ws))
	for _, w := range ws {
		ops = append(ops, wal.Op{Key: w.key, Val: w.val})
	}
	return ops
}

// goodCommit is the canonical commitShard shape: append under the
// shard mutex, apply, note the apply, then ack by policy — directly
// under the off policy, through Commit's Committer otherwise.
func (c *conn) goodCommit(sh *shard, p *pending, ws []write) {
	ops := walOps(ws)
	sh.mu.Lock()
	seq, err := sh.wal.Append(ops)
	if err != nil {
		sh.mu.Unlock()
		for range ws {
			p.opDone()
		}
		return
	}
	for _, w := range ws {
		c.applyWrite(sh, w)
	}
	sh.wal.NoteApplied(seq)
	sh.mu.Unlock()
	if !c.walDefersAcks {
		for range ws {
			p.opDone()
		}
		return
	}
	sh.wal.Commit(seq, len(ws), &ackBatch{p: p, n: len(ws)})
}

// goodNilWAL is the dispatch shape: a logged shard collects the write
// for the commit, and the apply runs only on the wal-disabled edge.
func (c *conn) goodNilWAL(sh *shard, p *pending, w write, logged *[]write) {
	if sh.wal != nil {
		*logged = append(*logged, w)
		return
	}
	c.applyWrite(sh, w)
	p.opDone()
}

// flagApplyBeforeAppend applies to the index before the record is in
// the log: a crash between the two loses the write.
func (c *conn) flagApplyBeforeAppend(sh *shard, ws []write) {
	ops := walOps(ws)
	c.applyWrite(sh, ws[0]) // want "index apply is not dominated by a wal.Append"
	seq, err := sh.wal.Append(ops)
	if err != nil {
		return
	}
	sh.wal.NoteApplied(seq)
}

// flagDirectInsert applies outside both the nil-WAL path and any
// append.
func (c *conn) flagDirectInsert(sh *shard, k, v uint64) {
	if sh.wal == nil {
		sh.idx.Insert(k, v)
		return
	}
	sh.idx.Insert(k, v) // want "index apply is not dominated by a wal.Append"
}

// flagAckWithoutBarrier acks each write as it applies after a
// successful append, with no error unwind and no policy exemption:
// under a deferring fsync policy the client hears success before the
// record is stable.
func (c *conn) flagAckWithoutBarrier(sh *shard, p *pending, ws []write) {
	seq, err := sh.wal.Append(walOps(ws))
	if err != nil {
		return
	}
	for _, w := range ws {
		sh.idx.Insert(w.key, w.val)
		p.opDone() // want "op completion after a successful wal.Append without the durability barrier"
	}
	sh.wal.NoteApplied(seq)
}

// flagAckRightAfterAppend acks before the applies even start.
func (c *conn) flagAckRightAfterAppend(sh *shard, p *pending, ws []write) {
	seq, err := sh.wal.Append(walOps(ws))
	if err != nil {
		return
	}
	p.opDone() // want "op completion after a successful wal.Append without the durability barrier"
	for _, w := range ws {
		c.applyWrite(sh, w)
	}
	sh.wal.Commit(seq, len(ws), &ackBatch{p: p, n: len(ws) - 1})
}

// flagAckAfterCommit acks once Commit returns: under the interval
// policy Commit only queues the ticket, so the record is not yet
// durable.
func (c *conn) flagAckAfterCommit(sh *shard, p *pending, ws []write) {
	seq, err := sh.wal.Append(walOps(ws))
	if err != nil {
		return
	}
	for _, w := range ws {
		c.applyWrite(sh, w)
	}
	sh.wal.Commit(seq, len(ws), nil)
	p.opDone() // want "op completion after a successful wal.Append without the durability barrier"
}

// goodOffPolicy takes the non-deferring policy fast path, where acks
// at apply time are correct by policy.
func (c *conn) goodOffPolicy(sh *shard, p *pending, ws []write) {
	seq, err := sh.wal.Append(walOps(ws))
	if err != nil {
		return
	}
	if !c.walDefersAcks {
		for _, w := range ws {
			sh.idx.Insert(w.key, w.val)
			p.opDone()
		}
		sh.wal.NoteApplied(seq)
	}
}

// goodPolicyCall observes the policy through a method instead of a
// field.
func (c *conn) goodPolicyCall(sh *shard, p *pending, ws []write, pol interface{ DefersAcks() bool }) {
	_, err := sh.wal.Append(walOps(ws))
	if err != nil {
		return
	}
	if !pol.DefersAcks() {
		for _, w := range ws {
			sh.idx.Insert(w.key, w.val)
			p.opDone()
		}
	}
}

// goodErrPath acks on the append-error unwind: the ops fail, and the
// error answer is the barrier.
func (c *conn) goodErrPath(sh *shard, p *pending, ws []write) {
	seq, err := sh.wal.Append(walOps(ws))
	if err != nil {
		for range ws {
			p.opDone()
		}
		return
	}
	for _, w := range ws {
		c.applyWrite(sh, w)
	}
	sh.wal.Commit(seq, len(ws), &ackBatch{p: p, n: len(ws)})
}

// goodReplay applies records drawn from the durable log itself: the
// recovery path is exempt by construction.
func (c *conn) goodReplay(sh *shard, recs []wal.Op) {
	for _, r := range recs {
		if r.Code == 0 {
			sh.idx.Insert(r.Key, r.Val)
		} else {
			sh.idx.Delete(r.Key)
		}
	}
}

// dispatch commits each shard's share through the fully guarded
// commit: calling a function whose applies are internally guarded
// imposes nothing here.
func (c *conn) dispatch(shards []*shard, p *pending, ws []write) {
	for _, sh := range shards {
		c.goodCommit(sh, p, ws)
	}
}
