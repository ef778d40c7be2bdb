package server

import (
	"bufio"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"optiql/internal/locks"
	"optiql/internal/obs"
	"optiql/internal/obs/trace"
	"optiql/internal/server/wire"
	"optiql/internal/wal"
)

// pending is one admitted request travelling from the reader to the
// writer. The writer sends responses strictly in admission order,
// waiting until remaining reaches 0: every constituent operation (one,
// or each sub-operation of a batch) has filled its slot. Pendings are
// recycled through their connection's free list, so a served request
// allocates nothing.
type pending struct {
	req       wire.Request
	resp      wire.Response
	remaining atomic.Int32
	// wake is the connection's wake channel, set when the pending is
	// made and never written after that: the operation that takes
	// remaining to 0 leaves a token in it for the writer (opDone).
	wake chan struct{}
	// span is the request's trace-tree ID: connection ID and request
	// sequence packed by the reader when its sampler fired, 0 when the
	// request is unsampled (or tracing is off). Every phase span of
	// this request — decode, execute, write — carries it, so
	// the Chrome export stitches one wire request into one tree.
	span uint64
	// scanBufs holds the pooled buffers whose storage the response's
	// Pairs alias; the writer returns them once the frame is encoded.
	// Appended only by the reader goroutine before opDone, read by the
	// writer after remaining reaches 0.
	scanBufs []*scanBuf
	// slots is a BATCH's borrowed sub-request and sub-response storage
	// (nil for any other request); req.Sub and resp.Sub alias it.
	slots *batchSlots
}

// batchSlots is the sub-request and sub-response storage of one
// BATCH, borrowed from batchSlotsPool for exactly one request: the
// reader takes it before it parses the BATCH and the writer returns it
// once the response is encoded, so a connection retains no batch
// storage between requests.
type batchSlots struct {
	req  [wire.MaxBatch]wire.Request
	resp [wire.MaxBatch]wire.Response
}

var batchSlotsPool = sync.Pool{New: func() any { return new(batchSlots) }}

// parse decodes one request payload into p, a BATCH into borrowed
// slots, and arms its completion count: one per constituent operation.
//
//optiql:noalloc
func (p *pending) parse(payload []byte) error {
	var subs []wire.Request
	if len(payload) > 0 && payload[0] == wire.OpBatch {
		p.slots = batchSlotsPool.Get().(*batchSlots)
		subs = p.slots.req[:]
	}
	req, err := wire.ParseRequestInto(payload, subs)
	if err != nil {
		p.reset()
		return err
	}
	p.req = req
	n := 1
	if req.Op == wire.OpBatch {
		n = len(req.Sub)
		p.resp.Status = wire.StatusOK
		p.resp.Sub = p.slots.resp[:n:n]
	}
	p.remaining.Store(int32(n))
	return nil
}

// reset returns p's pooled scan buffers and batch slots and clears the
// request, its response and its span. It never touches wake, and
// remaining is already 0. The response's Pairs and Sub must not be
// read afterwards: their storage is back in the pools.
//
//optiql:noalloc
func (p *pending) reset() {
	for _, sb := range p.scanBufs {
		putScanBuf(sb)
	}
	clear(p.scanBufs)
	p.scanBufs = p.scanBufs[:0]
	if p.slots != nil {
		// A later BATCH must not read this one's statuses, values or
		// pairs, and the pool must not pin its error strings.
		clear(p.slots.resp[:len(p.resp.Sub)])
		batchSlotsPool.Put(p.slots)
		p.slots = nil
	}
	p.req = wire.Request{}
	p.resp = wire.Response{}
	p.span = 0
}

// opDone marks one constituent operation complete. wake is loaded
// before the decrement: once remaining reaches 0 the writer may
// already have recycled p. The send never blocks; a token already in
// the one-slot buffer wakes the writer just as well.
//
//optiql:noalloc
func (p *pending) opDone() {
	wake := p.wake
	if p.remaining.Add(-1) == 0 {
		select {
		case wake <- struct{}{}:
		default:
		}
	}
}

// conn is one client connection: a reader goroutine that decodes,
// admits and executes requests on its own Ctx, and a writer goroutine
// that streams responses back in request order.
type conn struct {
	srv   *Server
	nc    net.Conn
	respQ chan *pending
	// wake carries completion tokens to the writer (opDone, await);
	// free holds up to respQDepth recycled pendings (take, recycle).
	wake chan struct{}
	free chan *pending
	// logged collects the current request's writes until dispatch
	// appends and applies them as one record; walOps is the record
	// scratch. Reader goroutine only.
	logged []loggedWrite
	walOps []wal.Op
	// id is the connection's process-unique sequence number; reqSeq
	// counts admitted requests (reader goroutine only). Together they
	// form sampled requests' span IDs.
	id     uint64
	reqSeq uint64
	// tb is the connection's trace buffer (nil when tracing is off).
	// The reader owns its sampling counter; the writer only Records
	// (mutex-safe). Returned to the server's free list when the writer
	// — always the last of the pair to exit — finishes.
	tb *trace.Buf
}

// respQDepth bounds admitted-but-unanswered requests per connection;
// a full queue blocks the reader, pushing backpressure to the client.
// It also bounds the connection's free list of pendings.
const respQDepth = 512

// take returns a recycled pending from the free list, or a new one
// while the list warms up.
//
//optiql:noalloc
func (c *conn) take() *pending {
	select {
	case p := <-c.free:
		return p
	default:
		return c.newPending()
	}
}

// newPending makes a pending bound to c's wake channel. It stays out
// of take's noalloc body: it runs only while the free list warms up.
func (c *conn) newPending() *pending { return &pending{wake: c.wake} }

// recycle resets an answered (or abandoned) pending and puts it on the
// free list; a full list leaves it to the GC.
//
//optiql:noalloc
func (c *conn) recycle(p *pending) {
	p.reset()
	select {
	case c.free <- p:
	default:
	}
}

// await blocks until every operation of p has completed. No wake-up
// is lost: the operation that takes remaining to 0 either leaves a
// token or finds one already waiting, and the re-check after the
// receive then sees 0. A stale token costs one extra check.
//
//optiql:noalloc
func (c *conn) await(p *pending) {
	for p.remaining.Load() != 0 {
		<-c.wake
	}
}

// respRetain caps the encode buffer a writer keeps across responses.
const respRetain = 64 << 10

// newConn builds the connection state for nc, starting no goroutine.
func (s *Server) newConn(nc net.Conn) *conn {
	return &conn{
		srv:   s,
		nc:    nc,
		respQ: make(chan *pending, respQDepth),
		wake:  make(chan struct{}, 1),
		free:  make(chan *pending, respQDepth),
		id:    s.connSeq.Add(1),
	}
}

func (s *Server) serveConn(nc net.Conn) {
	// Pipelined small frames suffer under Nagle, and dead peers on idle
	// connections are only detected by keep-alive probes; set both
	// explicitly rather than trusting OS defaults (TuneTCP reaches the
	// *net.TCPConn through any chaos wrapper).
	wire.TuneTCP(nc)
	c := s.newConn(nc)
	c.tb = s.getConnBuf(int(c.id))
	s.mu.Lock()
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	s.stats.conns.Add(1)
	// A connection admitted concurrently with Shutdown still gets its
	// read nudged loose.
	if s.closing.Load() {
		nc.SetReadDeadline(closedDeadline)
	}
	s.connWG.Add(2)
	go c.writeLoop()
	go c.readLoop()
}

// silentClose reports whether a read error means "stop reading, no
// error response": clean or truncated EOF, a closed connection, or
// the read deadline Shutdown uses to unblock idle readers.
func silentClose(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) || errors.Is(err, os.ErrDeadlineExceeded)
}

func (c *conn) readLoop() {
	defer c.srv.connWG.Done()
	// Closing respQ is what lets the writer drain and close the
	// connection.
	defer close(c.respQ)
	// Reads take no queue node and a write holds its reserve only while
	// its request runs, so the queue-node pool does not bound the
	// connection count.
	ctx := locks.NewCtx(c.srv.pool, 0)
	defer ctx.Close()
	// Once the last request has run, nothing counts on ctx (deferred
	// acks count nothing), so the set folds into the registry's retired
	// total instead of staying registered for ever.
	ctr := c.srv.reg.NewCounters()
	defer c.srv.reg.Retire(ctr)
	ctx.SetCounters(ctr)
	// Requests run on this Ctx, so their lock spans land in the
	// connection buffer.
	ctx.SetTrace(c.tb)
	br := bufio.NewReaderSize(c.nc, 64<<10)
	var fb wire.FrameBuf
	for {
		c.armRead()
		// One sampling draw per request, taken before the frame read so
		// the decode span can cover it. The clock is read only when the
		// draw fires.
		sampled := c.tb.Sample()
		var t0 int64
		if sampled {
			t0 = c.tb.Now()
		}
		payload, err := wire.ReadFrameBuf(br, &fb)
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) && !c.srv.closing.Load() {
				// The configured read deadline fired: an idle connection
				// or a slow-loris peer trickling a frame. Reap it.
				c.srv.stats.reaped.Add(1)
				c.srv.resil.Inc(obs.EvSrvReap)
			}
			c.fail(err)
			return
		}
		p := c.take()
		err = p.parse(payload)
		fb.Release() // requests never alias the payload
		if err != nil {
			c.fail(err)
			return
		}
		c.reqSeq++
		if sampled {
			// Nonzero by construction: connection IDs start at 1.
			p.span = c.id<<24 | c.reqSeq&0xFFFFFF
			c.tb.Record(trace.KindReqDecode, 0, t0, c.tb.Now()-t0, p.span, uint64(p.req.Op))
		}
		c.respQ <- p // admission: response order fixed here
		if !c.dispatch(ctx, p) {
			// A handler panic was contained: every constituent of p got a
			// StatusErr answer, but this connection's state is suspect —
			// stop reading and let the writer drain and close it. Other
			// connections (and the process) carry on.
			return
		}
	}
}

// armRead applies the configured per-frame read deadline. Shutdown
// may concurrently be nudging readers loose with an expired deadline;
// re-check closing after arming so that nudge is never overwritten
// with a live deadline.
func (c *conn) armRead() {
	if rt := c.srv.cfg.ReadTimeout; rt > 0 {
		c.nc.SetReadDeadline(time.Now().Add(rt))
		if c.srv.closing.Load() {
			c.nc.SetReadDeadline(closedDeadline)
		}
	}
}

// fail ends the read loop; protocol errors are answered with a final
// StatusErr frame before the connection closes.
func (c *conn) fail(err error) {
	if silentClose(err) {
		return
	}
	c.srv.stats.errors.Add(1)
	p := c.take()
	p.resp = wire.Response{Status: wire.StatusErr, Err: err.Error()}
	c.respQ <- p
}

// dispatch executes one admitted request on the reader's Ctx,
// reporting false if a handler panic was contained while doing so.
// Every op runs inline, so a later request on this connection sees
// this one's writes in program order. With a WAL the request's writes
// are collected and then appended as one record and applied
// (commitLogged), after its reads: a batch's reads need not observe
// its own writes.
func (c *conn) dispatch(ctx *locks.Ctx, p *pending) bool {
	ok := true
	if p.req.Op == wire.OpBatch {
		c.srv.stats.batches.Add(1)
		// Loop over local copies: after the last sub-operation's opDone
		// the writer may recycle p.
		subs, slots := p.req.Sub, p.resp.Sub
		for i := range subs {
			if !c.dispatchOne(ctx, p, &subs[i], &slots[i]) {
				// A sub-operation panicked: complete the rest with
				// StatusErr so the batch response (and Shutdown) never
				// waits on slots nothing will fill.
				for j := i + 1; j < len(subs); j++ {
					slots[j].Status = wire.StatusErr
					slots[j].Err = "aborted: earlier operation in batch panicked"
					p.opDone()
				}
				ok = false
				break
			}
		}
	} else {
		ok = c.dispatchOne(ctx, p, &p.req, &p.resp)
	}
	if len(c.logged) > 0 {
		if !c.commitLogged(ctx, p) {
			ok = false
		}
		clear(c.logged)
		c.logged = c.logged[:0]
	}
	// A connection holds no queue node between requests.
	ctx.Unreserve()
	return ok
}

// dispatchOne executes (or, for a logged write, collects) one
// operation and reports whether it ran without a handler panic. A
// panic inside an index call (a bug, or the chaos tests' injected one)
// is contained here: the slot is answered with StatusErr and
// accounted, so the client gets a response and the process survives.
func (c *conn) dispatchOne(ctx *locks.Ctx, p *pending, req *wire.Request, slot *wire.Response) (ok bool) {
	s := c.srv
	defer func() {
		if r := recover(); r != nil {
			s.answerPanic(slot, r)
			p.opDone()
			ok = false
		}
	}()
	switch req.Op {
	case wire.OpGet:
		// The inline-read execute span covers the lookup — the
		// request's whole server-side service time after decode.
		var t0 int64
		if p.span != 0 {
			t0 = c.tb.Now()
			c.tb.NoteKey(req.Key)
		}
		s.maybePanic(req.Key)
		if v, ok := s.idx.Lookup(ctx, req.Key); ok {
			slot.Status = wire.StatusOK
			slot.Value = v
		} else {
			slot.Status = wire.StatusNotFound
		}
		if p.span != 0 {
			c.tb.Record(trace.KindReqExec, 0, t0, c.tb.Now()-t0, p.span, req.Key)
		}
		s.stats.gets.Add(1)
		s.stats.ops.Add(1)
		p.opDone()
	case wire.OpScan:
		var t0 int64
		if p.span != 0 {
			t0 = c.tb.Now()
		}
		sb := scanBufPool.Get().(*scanBuf)
		slot.Status = wire.StatusOK
		slot.Pairs = s.idx.Scan(ctx, req.Key, int(req.Max), sb.kvs)
		p.scanBufs = append(p.scanBufs, sb)
		if p.span != 0 {
			c.tb.Record(trace.KindReqExec, 0, t0, c.tb.Now()-t0, p.span, req.Key)
		}
		s.stats.scans.Add(1)
		s.stats.ops.Add(1)
		p.opDone()
	case wire.OpPut, wire.OpDelete:
		if s.writeQNodes > 0 && !ctx.Reserve(s.writeQNodes) {
			// The queue-node pool cannot cover this write: shed it before
			// it touches the index, not in the middle of an acquire.
			c.shed(p, slot)
			return true
		}
		if s.wal != nil {
			if c.walGate(p, slot) {
				// Answered here: the log is poisoned (StatusErr) or its
				// fsync queue is over budget (StatusOverloaded).
				return true
			}
			c.logged = append(c.logged, loggedWrite{req: req, slot: slot})
			return true
		}
		ok = c.applyWrite(ctx, p, req, slot)
		p.opDone()
		return ok
	default:
		slot.Status = wire.StatusErr
		slot.Err = "unsupported opcode"
		s.stats.errors.Add(1)
		p.opDone()
	}
	return true
}

// shed answers one write StatusOverloaded without applying it.
func (c *conn) shed(p *pending, slot *wire.Response) {
	slot.Status = wire.StatusOverloaded
	c.srv.stats.shed.Add(1)
	c.srv.resil.Inc(obs.EvSrvShed)
	p.opDone()
}

// applyWrite runs one PUT or DELETE on the index and fills its slot;
// the caller completes the op, since with a WAL the ack waits for the
// log. A panic is contained per op: the slot is answered StatusErr and
// false tells the caller to close the connection.
func (c *conn) applyWrite(ctx *locks.Ctx, p *pending, req *wire.Request, slot *wire.Response) (ok bool) {
	s := c.srv
	defer func() {
		if r := recover(); r != nil {
			s.answerPanic(slot, r)
			ok = false
		}
	}()
	var t0 int64
	if p.span != 0 {
		t0 = c.tb.Now()
		c.tb.NoteKey(req.Key)
	}
	s.maybePanic(req.Key)
	if req.Op == wire.OpPut {
		slot.Status = wire.StatusOK
		slot.Inserted = s.idx.Insert(ctx, req.Key, req.Value)
		s.stats.puts.Add(1)
	} else {
		slot.Status = wire.StatusNotFound
		if s.idx.Delete(ctx, req.Key) {
			slot.Status = wire.StatusOK
		}
		s.stats.deletes.Add(1)
	}
	if p.span != 0 {
		c.tb.Record(trace.KindReqExec, 0, t0, c.tb.Now()-t0, p.span, req.Key)
	}
	s.stats.ops.Add(1)
	return true
}

func (c *conn) writeLoop() {
	defer c.srv.connWG.Done()
	defer func() {
		c.nc.Close()
		c.srv.mu.Lock()
		delete(c.srv.conns, c)
		c.srv.mu.Unlock()
		// The writer outlives the reader (it drains respQ after the
		// reader closes it), so this is the last touch of the trace
		// buffer — safe to recycle it for the next connection.
		c.srv.putConnBuf(c.tb)
	}()
	bw := bufio.NewWriterSize(c.nc, 64<<10)
	var buf []byte
	var err error
	broken := false
	// A connection whose write path failed is useless: close it
	// immediately so the reader (blocked on the next frame) and the
	// peer (blocked on the lost response) both find out now rather
	// than at their read deadlines.
	brk := func() {
		broken = true
		c.nc.Close()
	}
	for p := range c.respQ {
		c.await(p)
		if broken {
			// The client is gone but the queue must still drain so the
			// reader never blocks on a full respQ.
			c.recycle(p)
			continue
		}
		span := p.span
		var t0 int64
		if span != 0 {
			t0 = c.tb.Now()
		}
		buf, err = wire.AppendResponse(buf[:0], &p.req, &p.resp)
		if err != nil {
			// Encoding bug or oversized result; answer with an error
			// frame to keep the stream aligned.
			e := wire.Response{Status: wire.StatusErr, Err: err.Error()}
			buf, err = wire.AppendResponse(buf[:0], &p.req, &e)
		}
		// Encoded (or abandoned): pool its storage, free the pending.
		c.recycle(p)
		if err != nil {
			brk()
			continue
		}
		c.armWrite()
		if _, err = bw.Write(buf); err != nil {
			brk()
			continue
		}
		if span != 0 {
			// Encode-and-write span: buffered, so usually cheap; stalls
			// here mean a slow or stopped peer.
			c.tb.Record(trace.KindReqWrite, 0, t0, c.tb.Now()-t0, span, 0)
		}
		if cap(buf) > respRetain {
			// One huge scan response must not pin a megabyte for the
			// connection's lifetime.
			buf = nil
		}
		if len(c.respQ) == 0 {
			if err = bw.Flush(); err != nil {
				brk()
			}
		}
	}
	if !broken {
		c.armWrite()
		bw.Flush()
	}
}

// armWrite applies the configured write deadline so a peer that stops
// reading (full receive window forever) breaks the connection instead
// of wedging this writer.
func (c *conn) armWrite() {
	if wt := c.srv.cfg.WriteTimeout; wt > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(wt))
	}
}
