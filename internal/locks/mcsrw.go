package locks

import (
	"sync/atomic"
	"unsafe"

	"optiql/internal/core"
	"optiql/internal/obs"
	"optiql/internal/obs/trace"
)

const (
	classReader uint32 = iota
	classWriter
)

// rwNode is the queue node shared by MCS and MCS-RW: successor link,
// grant flag, and requester class, padded against false sharing.
type rwNode struct {
	next    atomic.Pointer[rwNode]
	granted atomic.Uint32
	class   uint32
	_       [48]byte
}

func (n *rwNode) reset(class uint32) {
	n.next.Store(nil)
	n.granted.Store(0)
	n.class = class
}

// MCSRW is a fair, queue-based reader-writer lock in the spirit of
// Mellor-Crummey & Scott's fair RW lock [39]: readers and writers join
// a single FIFO queue and spin locally; a maximal run of consecutive
// readers (a "group") holds the lock together. The group's tail node
// passes the queue position to the next writer as soon as the tail
// itself releases, and the writer then waits for the group's reader
// count to reach zero — so the last reader to finish is what actually
// admits it, and no reader ever blocks waiting for its own group.
//
// It preserves the properties the paper evaluates MCS-RW for — strict
// FIFO fairness, local spinning (robustness under contention), and the
// cost that readers must write to shared memory — while using a design
// simple enough to verify. The queue tail is one 8-byte word; the
// active-reader count and group tail are two adjacent words (see
// DESIGN.md for the deviation from the paper's single-word encoding).
type MCSRW struct {
	tail      atomic.Pointer[rwNode]
	readers   atomic.Int64
	groupTail atomic.Pointer[rwNode]
}

// AcquireSh blocks until this reader's group holds the lock. Unlike
// optimistic locks this writes shared memory (swap + counter), which is
// exactly the overhead the paper attributes to pessimistic readers.
//
//optiql:noalloc
func (l *MCSRW) AcquireSh(c *Ctx) (Token, bool) {
	n := c.getRW()
	n.reset(classReader)
	prev := l.tail.Swap(n)
	if prev == nil {
		// Lock fully free: start a new group of one.
		l.readers.Add(1)
		l.groupTail.Store(n)
		n.granted.Store(1)
	} else {
		prev.next.Store(n)
		var s core.Spinner
		for n.granted.Load() == 0 {
			s.Spin()
		}
	}
	// If we are the group tail at the instant of our grant, extend the
	// group by one if a reader is already queued behind us; the
	// extension then cascades from that reader's own acquire path. The
	// groupTail guard matters with batch grants: a granted mid-group
	// member must not extend — its in-group successor was already
	// admitted by the batch, and re-granting it would wake it twice.
	// The guard must run BEFORE the class read: only a group tail's
	// successor is provably ungranted (stable class); a mid-group
	// member's successor may already be granted, released and recycled.
	if nx := n.next.Load(); nx != nil && l.groupTail.Load() == n && nx.class == classReader {
		l.readers.Add(1)
		l.groupTail.Store(nx)
		nx.granted.Store(1)
	}
	return Token{rw: n}, true
}

// ReleaseSh ends a shared acquisition. The group-tail reader resolves
// the queue handover immediately — it does NOT wait for the rest of its
// group. A successor writer is woken right away and gates on the
// reader count in AcquireEx, so the group's last decrement is what
// actually admits it. Draining here instead would deadlock lock-coupled
// readers: a tail blocked waiting for a group member cannot release the
// child lock it already holds, while that member may be queued on
// exactly that child.
//
//optiql:noalloc
func (l *MCSRW) ReleaseSh(c *Ctx, t Token) bool {
	n := t.rw
	if l.groupTail.Load() == n {
		countFanout(c, l.structuralRelease(n))
	}
	l.readers.Add(-1)
	c.putRW(n)
	return true
}

// AcquireEx blocks until the lock is granted exclusively, in FIFO
// order with respect to all other requesters.
//
//optiql:noalloc
func (l *MCSRW) AcquireEx(c *Ctx) Token {
	n := c.getRW()
	n.reset(classWriter)
	tb := c.tr
	sampled := tb.Sample()
	var t0 int64
	if sampled {
		t0 = tb.Now()
	}
	prev := l.tail.Swap(n)
	handover := prev != nil
	if prev == nil {
		n.granted.Store(1)
		c.Counters().Inc(obs.EvExFree)
	} else {
		prev.next.Store(n)
		var s core.Spinner
		for n.granted.Load() == 0 {
			s.Spin()
		}
		c.Counters().Inc(obs.EvExHandover)
	}
	// The queue position is ours, but a reader group ahead of us may
	// still be active: its tail resolves the structural handover at its
	// own release, possibly before the group has drained. The count is
	// the writer's real gate — the group's last decrement admits us.
	var rs core.Spinner
	for l.readers.Load() != 0 {
		rs.Spin()
	}
	if sampled {
		var fl uint8
		if handover {
			fl = trace.FlagHandover
		}
		tb.LockWait(t0, tb.Now()-t0, fl, lockID(unsafe.Pointer(l)))
	}
	return Token{rw: n}
}

// ReleaseEx hands the lock to the successor (starting a new reader
// group if the successor reads), or resets the tail.
//
//optiql:noalloc
func (l *MCSRW) ReleaseEx(c *Ctx, t Token) {
	countFanout(c, l.structuralRelease(t.rw))
	c.putRW(t.rw)
}

// structuralRelease performs the MCS-style queue handover from node n,
// which must be the last node of the finishing group (or the writer).
// A writer successor is granted alone; a reader successor heads the
// next group, and the release batch-grants the whole maximal prefix of
// consecutive queued readers in one pass instead of relying on the
// one-at-a-time acquire-side cascade. Returns the handover fanout.
//
//optiql:noalloc
func (l *MCSRW) structuralRelease(n *rwNode) int {
	if n.next.Load() == nil && l.tail.CompareAndSwap(n, nil) {
		return 0
	}
	var s core.Spinner
	for n.next.Load() == nil {
		s.Spin()
	}
	nx := n.next.Load()
	if nx.class != classReader {
		nx.granted.Store(1)
		return 1
	}
	// Walk the frozen reader prefix (queued nodes never unlink, and a
	// node's class is written before it links itself), then publish the
	// group state before any grant: the reader count covers the whole
	// group and groupTail names its closer, so early releases by
	// mid-group members cannot drain the group prematurely or trigger
	// the acquire-side extension from the wrong node.
	last := nx
	count := 1
	for {
		m := last.next.Load()
		if m == nil || m.class != classReader {
			break
		}
		last = m
		count++
	}
	l.readers.Add(int64(count))
	l.groupTail.Store(last)
	// A member may release and recycle its node the instant it is
	// granted, so each node's successor is read before its grant.
	for m := nx; ; {
		next := m.next.Load()
		m.granted.Store(1)
		if m == last {
			break
		}
		m = next
	}
	return count
}

// Upgrade is unsupported: pessimistic index protocols take the
// exclusive lock directly.
func (l *MCSRW) Upgrade(_ *Ctx, t Token) (Token, bool) { return t, false }

// CloseWindow is a no-op.
func (l *MCSRW) CloseWindow(Token) {}

// Pessimistic reports true: readers block and never fail validation.
func (l *MCSRW) Pessimistic() bool { return true }
