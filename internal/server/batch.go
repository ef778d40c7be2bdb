package server

import (
	"fmt"
	"sync/atomic"
	"time"

	"optiql/internal/locks"
	"optiql/internal/obs"
	"optiql/internal/obs/trace"
	"optiql/internal/server/wire"
	"optiql/internal/wal"
)

// writeOp is one mutation funneled to a shard's executor. The
// executor fills slot (a sub-slot of p's response) and then marks the
// op done on p. span/enq carry the reader's sampling decision across
// the queue: span is the request's trace-tree ID (0 = unsampled) and
// enq the enqueue timestamp, so the executor can attribute the
// shard-queue wait without a clock read of its own.
type writeOp struct {
	op   byte // wire.OpPut or wire.OpDelete
	key  uint64
	val  uint64
	p    *pending
	slot *wire.Response
	span uint64
	enq  int64
}

// executor is a shard's write path: one goroutine owning one
// locks.Ctx, pulling mutations from a channel and executing them in
// grouped batches. Funneling writes through one goroutine per shard
// removes writer-vs-writer lock contention inside the shard entirely
// and amortizes channel wakeups: under a standing queue the executor
// drains whole groups per receive, which is exactly the regime
// OptiQL's local spinning is built for on the un-sharded path.
type executor struct {
	idx      Index
	ch       chan writeOp
	batchMax int
	ctx      *locks.Ctx
	srv      *Server
	// tb is the executor's trace buffer (nil when tracing is off):
	// shard-queue and execute spans for sampled writes, plus its own
	// sampled batch-size spans.
	tb *trace.Buf
	// inflight approximates the shard's queued-but-unexecuted writes;
	// admission control (Config.InflightMax) sheds against it. The
	// check-then-add on the submit side races benignly: the budget is a
	// degradation threshold, not an exact capacity.
	inflight atomic.Int64
	// pol is the shard's combine policy (nil when Config.Combine is
	// off): it watches this shard's write keys and arms flat-combining
	// when one key dominates. Owned by the executor goroutine.
	pol *obs.CombinePolicy
	// gid and nxt are applyCombined's per-batch scratch, sized to
	// batchMax once so the combining path allocates nothing: gid[i] is
	// op i's group (-1 for cold ops), nxt[i] chains the members of one
	// group in FIFO order so applyRun walks exactly its run instead of
	// rescanning the batch.
	gid []int32
	nxt []int32
	// wal is the shard's write-ahead log (nil without durability);
	// walOps is the per-batch record scratch and ack the deferred-ack
	// set being built while a logged batch applies (see wal.go). All
	// executor-goroutine-owned.
	wal    *wal.Log
	walOps []wal.Op
	ack    *ackBatch
}

// run is the executor goroutine. It exits when ch is closed and
// drained, so every admitted write is executed and answered before
// shutdown completes — in-flight batches are never dropped.
func (e *executor) run() {
	defer e.srv.execWG.Done()
	defer e.ctx.Close()
	buf := make([]writeOp, 0, e.batchMax)
	for op := range e.ch {
		buf = append(buf[:0], op)
		// Group whatever else is already queued, up to batchMax, without
		// blocking: one standing batch per wakeup.
	drain:
		for len(buf) < e.batchMax {
			select {
			case more, ok := <-e.ch:
				if !ok {
					break drain
				}
				buf = append(buf, more)
			default:
				break drain
			}
		}
		// The batch-size span samples on the executor's own counter (it
		// owns this buffer), keying the span by group size so Perfetto
		// shows how well the wakeup amortization is working.
		bs := e.tb.Sample()
		var bt0 int64
		if bs {
			bt0 = e.tb.Now()
		}
		e.execBatch(buf)
		if bs {
			e.tb.Record(trace.KindExecBatch, 0, bt0, e.tb.Now()-bt0, 0, uint64(len(buf)))
		}
	}
}

// applyBatch executes one drained batch. With combining off (or the
// policy disarmed) every op takes its own FIFO apply — byte-for-byte
// the seed behavior. With the policy armed, runs of ops on the same hot
// key are coalesced so one tree descent answers the whole run
// (applyCombined); the deterministic-schedule harness in batch_test.go
// holds the two paths equal on identical batches.
func (e *executor) applyBatch(buf []writeOp) {
	if p := e.pol; p != nil {
		for i := range buf {
			p.Note(buf[i].key)
		}
		if len(buf) > 1 && p.Armed() {
			e.applyCombined(buf)
			return
		}
	}
	for i := range buf {
		e.apply(&buf[i])
	}
}

// combineGroup is one hot key's run within a batch: how many ops target
// it, where the run starts, and where the last one sits (the run is
// applied there, after every member is known). Members between first
// and last are reached through the executor's nxt chain.
type combineGroup struct {
	key   uint64
	count int32
	first int32
	last  int32
}

// applyCombined is the flat-combining batch path. It classifies each op
// against the policy's hot set, then walks the batch in FIFO order:
// cold ops and singleton runs apply normally; a multi-op run is applied
// once, at its last member's position, with every member's response
// simulated from the run's initial presence (applyRun). Reordering a
// run's earlier members to its last position is linearizable: ops on
// different keys commute, per-connection response order is fixed by the
// pending slots, and concurrent readers block on the write's completion
// — moving the completion point within the batch just moves the
// linearization point.
func (e *executor) applyCombined(buf []writeOp) {
	var groups [combineHotGroups]combineGroup
	ng := int32(0)
	gid := e.gid[:0]
	if cap(e.nxt) < len(buf) {
		e.nxt = make([]int32, len(buf))
	}
	nxt := e.nxt[:len(buf)]
	for i := range buf {
		g := int32(-1)
		if e.pol.IsHot(buf[i].key) {
			for j := int32(0); j < ng; j++ {
				if groups[j].key == buf[i].key {
					g = j
					break
				}
			}
			if g < 0 && ng < combineHotGroups {
				groups[ng] = combineGroup{key: buf[i].key, first: int32(i)}
				g = ng
				ng++
			}
		}
		if g >= 0 {
			if groups[g].count > 0 {
				nxt[groups[g].last] = int32(i)
			}
			groups[g].count++
			groups[g].last = int32(i)
		}
		gid = append(gid, g)
	}
	e.gid = gid
	for i := range buf {
		g := gid[i]
		switch {
		case g < 0 || groups[g].count == 1:
			e.apply(&buf[i])
		case int32(i) == groups[g].last:
			e.applyRun(buf, nxt, &groups[g])
		}
	}
}

// combineHotGroups caps how many distinct hot keys one batch coalesces;
// it matches the policy's hot-set size.
const combineHotGroups = 8

// applyRun applies one multi-op same-key run with a single tree
// descent. Only the run's last op touches the tree — intermediate
// PUT/DELETEs are fully shadowed by it — and its return value reveals
// the key's presence before the run (a PUT that inserted, or a DELETE
// that found nothing, means the key was absent). Every member's
// response is then simulated forward from that initial presence,
// reproducing the FIFO answers exactly: PUT answers Inserted iff the
// key was absent at its turn and leaves it present; DELETE answers
// NotFound iff absent and leaves it absent.
//
// A panic from the index call is contained like apply's: every member
// is answered with StatusErr and completed, so no writer or Shutdown
// waits forever. The recover runs before any member was completed
// (the only panic sources — hooks and the index call — precede the
// completion loop), so members cannot be double-completed.
func (e *executor) applyRun(buf []writeOp, nxt []int32, g *combineGroup) {
	defer e.inflight.Add(-int64(g.count))
	defer func() {
		if r := recover(); r != nil {
			e.srv.noteRecoveredPanic()
			for i, n := g.first, int32(0); n < g.count; n++ {
				w := &buf[i]
				w.slot.Status = wire.StatusErr
				w.slot.Err = fmt.Sprintf("internal error: %v", r)
				e.complete(w)
				i = nxt[i]
			}
		}
	}()
	if d := e.srv.hooks.execDelay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	// Close the queue spans of every sampled member against one clock
	// read, then bracket the single descent. The chain walk visits
	// exactly the run's members (nxt[last] is garbage, but the count
	// bound stops the walk before reading it).
	sampled := false
	for i, n := g.first, int32(0); n < g.count; n++ {
		if buf[i].span != 0 {
			sampled = true
			break
		}
		i = nxt[i]
	}
	var t0 int64
	if sampled {
		t0 = e.tb.Now()
		for i, n := g.first, int32(0); n < g.count; n++ {
			if w := &buf[i]; w.span != 0 {
				e.tb.Record(trace.KindReqQueue, 0, w.enq, t0-w.enq, w.span, w.key)
				e.tb.NoteKey(-1, w.key)
			}
			i = nxt[i]
		}
	}
	e.srv.maybePanic(g.key)
	last := &buf[g.last]
	var present bool // the key's presence before the run
	switch last.op {
	case wire.OpPut:
		present = !e.idx.Insert(e.ctx, last.key, last.val)
	case wire.OpDelete:
		present = e.idx.Delete(e.ctx, last.key)
	}
	if sampled {
		t1 := e.tb.Now()
		for i, n := g.first, int32(0); n < g.count; n++ {
			if w := &buf[i]; w.span != 0 {
				e.tb.Record(trace.KindReqExec, 0, t0, t1-t0, w.span, w.key)
			}
			i = nxt[i]
		}
	}
	e.ctx.Counters().Add(obs.EvCombinedOps, uint64(g.count))
	e.ctx.Counters().Inc(obs.EvCombineDepth)
	// Simulate the FIFO responses forward from the initial presence.
	// Stats are tallied locally and published once per run: the counters
	// are monotonic totals, so coarser adds are observationally identical
	// and keep the hot loop free of shared-cacheline RMWs.
	var puts, deletes uint64
	for i, n := g.first, int32(0); n < g.count; n++ {
		w := &buf[i]
		switch w.op {
		case wire.OpPut:
			w.slot.Status = wire.StatusOK
			w.slot.Inserted = !present
			present = true
			puts++
		case wire.OpDelete:
			if present {
				w.slot.Status = wire.StatusOK
			} else {
				w.slot.Status = wire.StatusNotFound
			}
			present = false
			deletes++
		}
		e.complete(w)
		i = nxt[i]
	}
	if puts > 0 {
		e.srv.stats.puts.Add(puts)
	}
	if deletes > 0 {
		e.srv.stats.deletes.Add(deletes)
	}
	e.srv.stats.ops.Add(uint64(g.count))
}

// apply executes one mutation and completes its slot. A panic from an
// index call is contained: the slot is answered with StatusErr, the
// op is completed (the writer and Shutdown never wait on a slot
// nothing will fill), and the executor keeps draining its queue.
func (e *executor) apply(w *writeOp) {
	defer e.inflight.Add(-1)
	defer func() {
		if r := recover(); r != nil {
			w.slot.Status = wire.StatusErr
			w.slot.Err = fmt.Sprintf("internal error: %v", r)
			e.srv.noteRecoveredPanic()
			// Panics originate in the index calls, before the normal-path
			// completion below — completing here cannot double-complete.
			e.complete(w)
		}
	}()
	if d := e.srv.hooks.execDelay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	// A sampled write carries its enqueue timestamp: close the queue
	// span here and bracket the index call, stitching both into the
	// request tree via the span ID. The hot-key offer lands in this
	// shard's sketch.
	var t0 int64
	if w.span != 0 {
		t0 = e.tb.Now()
		e.tb.Record(trace.KindReqQueue, 0, w.enq, t0-w.enq, w.span, w.key)
		e.tb.NoteKey(-1, w.key)
	}
	e.srv.maybePanic(w.key)
	switch w.op {
	case wire.OpPut:
		inserted := e.idx.Insert(e.ctx, w.key, w.val)
		w.slot.Status = wire.StatusOK
		w.slot.Inserted = inserted
		e.srv.stats.puts.Add(1)
	case wire.OpDelete:
		if e.idx.Delete(e.ctx, w.key) {
			w.slot.Status = wire.StatusOK
		} else {
			w.slot.Status = wire.StatusNotFound
		}
		e.srv.stats.deletes.Add(1)
	}
	if w.span != 0 {
		e.tb.Record(trace.KindReqExec, 0, t0, e.tb.Now()-t0, w.span, w.key)
	}
	e.srv.stats.ops.Add(1)
	e.complete(w)
}
