package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"optiql/internal/server/wire"
)

// conn is the benchmark's own protocol client: it calls the wire
// package's public codec and owns its buffers, so the harness can time
// encode, flush, wait and decode separately.
type conn struct {
	nc  net.Conn
	br  *bufio.Reader
	out []byte // encoded frames not yet written
	in  []byte // response frame buffer
}

func dialConn(addr string) (*conn, error) {
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	wire.TuneTCP(nc)
	return &conn{nc: nc, br: bufio.NewReaderSize(nc, 64<<10), out: make([]byte, 0, 64<<10)}, nil
}

func (c *conn) close() { c.nc.Close() }

func (c *conn) encode(r *wire.Request) error {
	var err error
	c.out, err = wire.AppendRequest(c.out, r)
	return err
}

func (c *conn) flush() error {
	_, err := c.nc.Write(c.out)
	c.out = c.out[:0]
	return err
}

// readFrame blocks until one response frame has been read.
func (c *conn) readFrame() ([]byte, error) { return wire.ReadFrame(c.br, &c.in) }

func (c *conn) roundTrip(r wire.Request) (wire.Response, error) {
	if err := c.encode(&r); err != nil {
		return wire.Response{}, err
	}
	if err := c.flush(); err != nil {
		return wire.Response{}, err
	}
	payload, err := c.readFrame()
	if err != nil {
		return wire.Response{}, err
	}
	return wire.ParseResponse(payload, &r)
}

// keyAbsent marks a deleted key in a connection's model.
const keyAbsent = ^uint64(0)

// connState checks every answer one connection receives and keeps what
// the final checks need. With striping it holds the exact state of the
// keys only this connection writes: responses arrive in request order,
// so when a GET's answer is checked the model holds exactly the writes
// acknowledged before it.
type connState struct {
	s         *spec
	id, conns int
	records   int
	tag       uint64
	model     []uint64 // striped only: model[k] for own keys, keyAbsent when deleted
	written   []bool   // striped only: keys this connection wrote

	attempted, failed, wrong, shed uint64
	inserted, deleted              uint64
}

func newConnState(s *spec, id, conns, records int) *connState {
	st := &connState{s: s, id: id, conns: conns, records: records, tag: uint64(id+1) << tagShift}
	if s.striped {
		st.model = make([]uint64, records+1)
		st.written = make([]bool, records+1)
		for k := 1; k <= records; k++ {
			st.model[k] = uint64(k)
		}
	}
	return st
}

func (st *connState) own(k uint64) bool {
	return st.s.striped && int((k-1)%uint64(st.conns)) == st.id
}

// request turns a ring entry into a wire request.
func (st *connState) request(e uint64) wire.Request {
	k := e & keyMask
	switch e >> opShift {
	case opUpdate, opInsert:
		return wire.Put(k, k^st.tag)
	case opDelete:
		return wire.Del(k)
	case opScan:
		return wire.Scan(k, scanLen)
	}
	return wire.Get(k)
}

// check verifies one answer and reports whether it counts as failed.
// An error status, a shed request or a wrong answer all fail.
func (st *connState) check(req *wire.Request, resp *wire.Response) bool {
	st.attempted++
	bad := func() bool { st.failed++; st.wrong++; return true }
	switch resp.Status {
	case wire.StatusOverloaded:
		st.failed++
		st.shed++
		return true
	case wire.StatusErr:
		st.failed++
		return true
	}
	k := req.Key
	found := resp.Status == wire.StatusOK
	deletes := st.s.share(opDelete) > 0
	switch req.Op {
	case wire.OpGet:
		if found && !valueOK(k, resp.Value) || !found && !deletes {
			return bad()
		}
		if st.own(k) {
			if want := st.model[k]; found != (want != keyAbsent) || found && resp.Value != want {
				return bad()
			}
		}
	case wire.OpPut:
		if !found {
			return bad()
		}
		if st.own(k) {
			if resp.Inserted != (st.model[k] == keyAbsent) {
				return bad()
			}
			st.model[k], st.written[k] = req.Value, true
		} else if resp.Inserted && !deletes {
			return bad()
		}
		if resp.Inserted {
			st.inserted++
		}
	case wire.OpDelete:
		if st.own(k) {
			if found != (st.model[k] != keyAbsent) {
				return bad()
			}
			st.model[k], st.written[k] = keyAbsent, true
		}
		if found {
			st.deleted++
		}
	case wire.OpScan:
		if !found || !scanOK(resp.Pairs, k) || !deletes && len(resp.Pairs) == 0 {
			return bad()
		}
	}
	return false
}

// pending is one request in flight. The sender fills it and publishes
// it by advancing tail; the receiver consumes it at head.
type pending struct {
	req                      wire.Request
	due                      int64
	encStart, encEnd, flushd int64 // traced requests only
	traced                   bool
}

const (
	pendCap          = 1 << 14 // open-loop requests in flight per connection before the generator queues
	servedTraceEvery = 8       // one request in 8 records spans in the traced pass
	servedSpanCap    = 1 << 18
	openMinTick      = 100 * time.Microsecond
)

// loadConn drives one connection from its ring.
type loadConn struct {
	c    *conn
	st   *connState
	ring []uint64
	pos  int
	rec  *recorder

	pend       []pending
	head, tail atomic.Uint64
	unflushed  uint64 // entries encoded since the last flush (sender side)

	start int64    // when the current round began
	lat   *latLog  // ns from due time to checked answer, this round
	late  []uint32 // ns from due time to encode start, this round (open loop)
	done  atomic.Uint64
	err   error
}

func newLoadConn(c *conn, st *connState, ring []uint64) *loadConn {
	return &loadConn{c: c, st: st, ring: ring, pend: make([]pending, pendCap),
		lat: newLatLog(1 << 20), late: make([]uint32, 0, 1<<20)}
}

func (l *loadConn) inflight() int { return int(l.tail.Load() + l.unflushed - l.head.Load()) }

// enqueue encodes the next ring entry as a request due at `due`.
func (l *loadConn) enqueue(due int64) error {
	slot := &l.pend[(l.tail.Load()+l.unflushed)&(pendCap-1)]
	slot.req = l.st.request(l.ring[l.pos&(len(l.ring)-1)])
	l.pos++
	slot.due = due
	slot.traced = l.rec != nil && l.pos%servedTraceEvery == 0
	if slot.traced {
		slot.encStart = now()
	}
	if err := l.c.encode(&slot.req); err != nil {
		return err
	}
	if slot.traced {
		slot.encEnd = now()
	}
	l.unflushed++
	return nil
}

// flush writes the encoded requests and publishes them to the
// receiver.
func (l *loadConn) flush() error {
	if l.unflushed == 0 {
		return nil
	}
	err := l.c.flush()
	if l.rec != nil {
		t := now()
		base := l.tail.Load()
		for i := uint64(0); i < l.unflushed; i++ {
			l.pend[(base+i)&(pendCap-1)].flushd = t
		}
	}
	l.tail.Add(l.unflushed)
	l.unflushed = 0
	return err
}

// recvOne reads and checks the answer to the oldest request in flight.
func (l *loadConn) recvOne() error {
	payload, err := l.c.readFrame()
	if err != nil {
		return err
	}
	tRead := int64(0)
	for l.head.Load() == l.tail.Load() {
		runtime.Gosched() // the answer beat the sender's publish
	}
	p := &l.pend[l.head.Load()&(pendCap-1)]
	if p.traced {
		tRead = now()
	}
	resp, err := wire.ParseResponse(payload, &p.req)
	if err != nil {
		return err
	}
	l.st.check(&p.req, &resp)
	tDone := now()
	l.lat.add(p.due-l.start, tDone-p.due)
	if p.traced && l.rec.room(6) {
		id := l.done.Load()
		root := l.rec.add(spRequest, p.due, tDone, -1, id)
		l.rec.add(spSched, p.due, p.encStart, root, id)
		l.rec.add(spEncode, p.encStart, p.encEnd, root, id)
		l.rec.add(spFlush, p.encEnd, p.flushd, root, id)
		l.rec.add(spWait, p.flushd, tRead, root, id)
		l.rec.add(spDecode, tRead, tDone, root, id)
	}
	l.head.Add(1)
	l.done.Add(1)
	return nil
}

// closedLoop keeps `window` requests in flight until stop, then drains.
func (l *loadConn) closedLoop(stop *atomic.Bool, window int) {
	l.err = func() error {
		for !stop.Load() {
			for l.inflight() < window {
				if err := l.enqueue(now()); err != nil {
					return err
				}
			}
			if err := l.flush(); err != nil {
				return err
			}
			if err := l.recvOne(); err != nil {
				return err
			}
			// Take what has already arrived before writing again.
			for l.inflight() > 0 && l.c.br.Buffered() > 4 {
				if err := l.recvOne(); err != nil {
					return err
				}
			}
		}
		for l.inflight() > 0 {
			if err := l.recvOne(); err != nil {
				return err
			}
		}
		return nil
	}()
}

// openSend sends request n at start + n*interval whether or not
// earlier answers have arrived. It wakes at each due time but at most
// every openMinTick, then sends everything that is due; a request's
// latency counts from its due time, and how late it was encoded is
// recorded as generator lateness. It returns how many requests were
// scheduled before end.
func (l *loadConn) openSend(start, end int64, interval float64) (scheduled int, err error) {
	// A dedicated thread with no timer slack wakes within ~15 us of the
	// due time; the Go scheduler's sleep rounds up to a millisecond.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	syscall.RawSyscall(syscall.SYS_PRCTL, syscall.PR_SET_TIMERSLACK, 1, 0)

	dueOf := func(n int) int64 { return start + int64(float64(n)*interval) }
	n := 0
	for {
		t := now()
		for dueOf(n) <= t && dueOf(n) < end && l.inflight() < pendCap-1 {
			due := dueOf(n)
			if len(l.late) < cap(l.late) {
				l.late = append(l.late, uint32(min(max(t-due, 0), 1<<32-1)))
			}
			if err := l.enqueue(due); err != nil {
				return n, err
			}
			n++
			t = now()
		}
		if err := l.flush(); err != nil {
			return n, err
		}
		if dueOf(n) >= end {
			break
		}
		if t >= end+int64(time.Second) {
			break // the connection is stuck; what is left counts as not sent
		}
		if d := max(dueOf(n), t+int64(openMinTick)) - now(); d > 0 {
			ts := syscall.NsecToTimespec(d)
			syscall.Nanosleep(&ts, nil)
		}
	}
	total := 0
	for dueOf(total) < end {
		total++
	}
	return total, nil
}

// openRecv checks answers until the read deadline the coordinator sets
// once the sender is done and nothing is in flight.
func (l *loadConn) openRecv() {
	for {
		if err := l.recvOne(); err != nil {
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				l.err = err
			}
			return
		}
	}
}

// openRound is what one connection saw in one open-loop round.
type openRound struct {
	scheduled, sent, answered int
}

// openLoop runs one open-loop round on this connection.
func (l *loadConn) openLoop(start, end int64, interval float64) openRound {
	done0, sent0 := l.done.Load(), l.tail.Load()
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		l.openRecv()
	}()
	scheduled, err := l.openSend(start, end, interval)
	sent := int(l.tail.Load() - sent0)
	// Give in-flight answers up to 3 s, then unblock the receiver.
	for wait := time.Now().Add(3 * time.Second); l.head.Load() != l.tail.Load() && time.Now().Before(wait); {
		select {
		case <-recvDone:
			wait = time.Time{}
		default:
			time.Sleep(time.Millisecond)
		}
	}
	l.c.nc.SetReadDeadline(time.Unix(1, 0))
	<-recvDone
	l.c.nc.SetReadDeadline(time.Time{})
	if err != nil && l.err == nil {
		l.err = err
	}
	if lost := l.tail.Load() - l.head.Load(); lost > 0 && l.err == nil {
		l.err = fmt.Errorf("%d requests unanswered after 3 s", lost)
	}
	return openRound{scheduled: scheduled, sent: sent, answered: int(l.done.Load() - done0)}
}
