package server

import (
	"bufio"
	"errors"
	"io"
	"net"
	"os"
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
// waiting on ready; ready closes when every constituent operation
// (one, or each sub-operation of a batch) has filled its slot.
type pending struct {
	req       wire.Request
	resp      wire.Response
	remaining atomic.Int32
	ready     chan struct{}
	// span is the request's trace-tree ID: connection ID and request
	// sequence packed by the reader when its sampler fired, 0 when the
	// request is unsampled (or tracing is off). Every phase span of
	// this request — decode, execute, write — carries it, so
	// the Chrome export stitches one wire request into one tree.
	span uint64
	// scanBufs holds the pooled buffers whose storage the response's
	// Pairs alias; the writer returns them once the frame is encoded.
	// Appended only by the reader goroutine before opDone, read by the
	// writer after ready closes.
	scanBufs []*scanBuf
}

// release returns the pooled scan buffers backing this response. The
// response's Pairs must not be read afterwards — their storage is back
// in the pool — so they are cleared here.
func (p *pending) release() {
	if p.scanBufs == nil {
		return
	}
	p.resp.Pairs = nil
	for i := range p.resp.Sub {
		p.resp.Sub[i].Pairs = nil
	}
	for _, sb := range p.scanBufs {
		putScanBuf(sb)
	}
	p.scanBufs = nil
}

func newPending(req wire.Request) *pending {
	p := &pending{req: req, ready: make(chan struct{})}
	n := 1
	if req.Op == wire.OpBatch {
		n = len(req.Sub)
		p.resp.Status = wire.StatusOK
		p.resp.Sub = make([]wire.Response, n)
	}
	p.remaining.Store(int32(n))
	return p
}

// opDone marks one constituent operation complete.
func (p *pending) opDone() {
	if p.remaining.Add(-1) == 0 {
		close(p.ready)
	}
}

// conn is one client connection: a reader goroutine that decodes,
// admits and executes requests on its own Ctx, and a writer goroutine
// that streams responses back in request order.
type conn struct {
	srv   *Server
	nc    net.Conn
	respQ chan *pending
	// logged collects the current request's writes to WAL shards until
	// dispatch appends and applies them shard by shard; walOps is the
	// record scratch for one shard's share. Reader goroutine only.
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
const respQDepth = 512

// respRetain caps the encode buffer a writer keeps across responses.
const respRetain = 64 << 10

func (s *Server) serveConn(nc net.Conn) {
	// Pipelined small frames suffer under Nagle, and dead peers on idle
	// connections are only detected by keep-alive probes; set both
	// explicitly rather than trusting OS defaults (TuneTCP reaches the
	// *net.TCPConn through any chaos wrapper).
	wire.TuneTCP(nc)
	c := &conn{
		srv:   s,
		nc:    nc,
		respQ: make(chan *pending, respQDepth),
		id:    s.connSeq.Add(1),
	}
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
	ctx.SetCounters(c.srv.reg.NewCounters())
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
		req, err := wire.ParseRequest(payload)
		fb.Release() // requests never alias the payload
		if err != nil {
			c.fail(err)
			return
		}
		p := newPending(req)
		c.reqSeq++
		if sampled {
			// Nonzero by construction: connection IDs start at 1.
			p.span = c.id<<24 | c.reqSeq&0xFFFFFF
			c.tb.Record(trace.KindReqDecode, 0, t0, c.tb.Now()-t0, p.span, uint64(req.Op))
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
	p := &pending{resp: wire.Response{Status: wire.StatusErr, Err: err.Error()}, ready: make(chan struct{})}
	close(p.ready)
	c.respQ <- p
}

// dispatch executes one admitted request on the reader's Ctx,
// reporting false if a handler panic was contained while doing so.
// Every op runs inline, so a later request on this connection sees
// this one's writes in program order. With a WAL the request's writes
// are collected and then appended and applied shard by shard
// (commitLogged), after its reads: a batch's reads need not observe
// its own writes.
func (c *conn) dispatch(ctx *locks.Ctx, p *pending) bool {
	ok := true
	if p.req.Op == wire.OpBatch {
		c.srv.stats.batches.Add(1)
		for i := range p.req.Sub {
			if !c.dispatchOne(ctx, p, &p.req.Sub[i], &p.resp.Sub[i]) {
				// A sub-operation panicked: complete the rest with
				// StatusErr so the batch response (and Shutdown) never
				// waits on slots nothing will fill.
				for j := i + 1; j < len(p.req.Sub); j++ {
					p.resp.Sub[j].Status = wire.StatusErr
					p.resp.Sub[j].Err = "aborted: earlier operation in batch panicked"
					p.opDone()
				}
				ok = false
				break
			}
		}
	} else {
		ok = c.dispatchOne(ctx, p, &p.req, &p.resp)
	}
	if len(c.logged) > 0 && !c.commitLogged(ctx, p) {
		ok = false
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
		si := s.shardIdx(req.Key)
		// The inline-read execute span covers the lookup — the
		// request's whole server-side service time after decode.
		var t0 int64
		if p.span != 0 {
			t0 = c.tb.Now()
			c.tb.NoteKey(si, req.Key)
		}
		s.maybePanic(req.Key)
		if v, ok := s.shards[si].idx.Lookup(ctx, req.Key); ok {
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
		pairs, sb := s.scanAll(ctx, req.Key, int(req.Max))
		slot.Status = wire.StatusOK
		slot.Pairs = pairs
		p.scanBufs = append(p.scanBufs, sb)
		if p.span != 0 {
			c.tb.Record(trace.KindReqExec, 0, t0, c.tb.Now()-t0, p.span, req.Key)
		}
		s.stats.scans.Add(1)
		s.stats.ops.Add(1)
		p.opDone()
	case wire.OpPut, wire.OpDelete:
		si := s.shardIdx(req.Key)
		sh := s.shards[si]
		if s.writeQNodes > 0 && !ctx.Reserve(s.writeQNodes) {
			// The queue-node pool cannot cover this write: shed it before
			// it touches the index, not in the middle of an acquire.
			c.shed(p, slot)
			return true
		}
		if sh.wal != nil {
			if c.walGate(sh, p, slot) {
				// Answered here: the shard's log is poisoned (StatusErr)
				// or its fsync queue is over budget (StatusOverloaded).
				return true
			}
			c.logged = append(c.logged, loggedWrite{si: si, req: req, slot: slot})
			return true
		}
		ok = c.applyWrite(ctx, sh.idx, p, si, req, slot)
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

// applyWrite runs one PUT or DELETE on shard si's index and fills its
// slot; the caller completes the op, since with a WAL the ack waits
// for the log. A panic is contained per op: the slot is answered
// StatusErr and false tells the caller to close the connection.
func (c *conn) applyWrite(ctx *locks.Ctx, idx Index, p *pending, si int, req *wire.Request, slot *wire.Response) (ok bool) {
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
		c.tb.NoteKey(si, req.Key)
	}
	s.maybePanic(req.Key)
	if req.Op == wire.OpPut {
		slot.Status = wire.StatusOK
		slot.Inserted = idx.Insert(ctx, req.Key, req.Value)
		s.stats.puts.Add(1)
	} else {
		slot.Status = wire.StatusNotFound
		if idx.Delete(ctx, req.Key) {
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
		<-p.ready
		if broken {
			// The client is gone but the queue must still drain so the
			// reader never blocks on a full respQ.
			p.release()
			continue
		}
		var t0 int64
		if p.span != 0 {
			t0 = c.tb.Now()
		}
		buf, err = wire.AppendResponse(buf[:0], &p.req, &p.resp)
		p.release() // Pairs are encoded (or abandoned); pool their storage
		if err != nil {
			// Encoding bug or oversized result; answer with an error
			// frame to keep the stream aligned.
			e := wire.Response{Status: wire.StatusErr, Err: err.Error()}
			buf, err = wire.AppendResponse(buf[:0], &p.req, &e)
			if err != nil {
				brk()
				continue
			}
		}
		c.armWrite()
		if _, err = bw.Write(buf); err != nil {
			brk()
			continue
		}
		if p.span != 0 {
			// Encode-and-write span: buffered, so usually cheap; stalls
			// here mean a slow or stopped peer.
			c.tb.Record(trace.KindReqWrite, 0, t0, c.tb.Now()-t0, p.span, 0)
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
