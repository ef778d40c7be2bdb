package server

import (
	"fmt"
	"sync/atomic"
	"time"

	"optiql/internal/locks"
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

// applyBatch executes one drained batch in FIFO order, one apply per
// op.
func (e *executor) applyBatch(buf []writeOp) {
	for i := range buf {
		e.apply(&buf[i])
	}
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
