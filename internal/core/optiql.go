package core

import "sync/atomic"

// Lock-word layout (Figure 3a of the paper).
const (
	// QIDBits is the width of the queue-node ID field; it bounds the
	// number of queue nodes (and hence concurrent exclusive requesters)
	// per pool at 1<<QIDBits.
	QIDBits = 10
	// VersionBits is the width of the version field available to
	// optimistic readers before wrap-around.
	VersionBits = 64 - 2 - QIDBits

	// LockedBit is set while the lock is granted (or being granted) to
	// an exclusive requester.
	LockedBit = uint64(1) << 63
	// OpReadBit is set, together with LockedBit, while the opportunistic
	// read window between two writers is open.
	OpReadBit = uint64(1) << 62

	qidShift = VersionBits
	// QIDMask extracts the queue-node ID field from a lock word.
	QIDMask = ((uint64(1) << QIDBits) - 1) << qidShift
	// VersionMask extracts the version field from a lock word.
	VersionMask = (uint64(1) << VersionBits) - 1
	// StatusMask extracts both status bits.
	StatusMask = LockedBit | OpReadBit
)

// OptiQL is the optimistic queuing lock. The zero value is an unlocked
// lock at version zero; it occupies exactly 8 bytes, so indexes that
// embed an 8-byte optimistic lock in their node headers can adopt it
// without layout changes.
//
// Readers use AcquireSh/ReleaseSh and never write to the word. Writers
// use AcquireEx/ReleaseEx and must supply a QNode allocated from the
// Pool associated with the lock's users. Mixing queue nodes from
// different pools on the same lock is a programming error: the ID on
// the word would translate through the wrong array.
type OptiQL struct {
	word atomic.Uint64
}

// Word returns the raw lock word, mainly for diagnostics and tests.
func (l *OptiQL) Word() uint64 { return l.word.Load() }

// Version returns the version field of the current lock word.
func (l *OptiQL) Version() uint64 { return l.word.Load() & VersionMask }

// IsLocked reports whether the word currently has the locked bit set.
func (l *OptiQL) IsLocked() bool { return l.word.Load()&LockedBit != 0 }

// AcquireSh begins an optimistic read (Algorithm 2). It returns the
// lock-word snapshot to be passed to ReleaseSh for validation, and
// whether the reader may proceed. A reader proceeds when the lock is
// free, or when it is held but the opportunistic read window is open
// (both status bits set). It performs exactly the work of a centralized
// optimistic lock: one load, one mask, one compare.
func (l *OptiQL) AcquireSh() (v uint64, ok bool) {
	v = l.word.Load()
	return v, v&StatusMask != LockedBit
}

// ReleaseSh validates an optimistic read begun with AcquireSh: it
// succeeds iff the lock word is bit-for-bit unchanged, meaning no
// writer was granted the lock (and no opportunistic window opened or
// closed) since the snapshot was taken.
func (l *OptiQL) ReleaseSh(v uint64) bool {
	return l.word.Load() == v
}

// AcquireEx acquires the lock in exclusive mode (Algorithm 3, lines
// 1-11). It blocks until the lock is granted; on return the
// opportunistic read window is closed and the caller may modify the
// protected data. qnode must come from the pool shared by all users of
// this lock and must not be in use.
//
// The returned handover flag reports whether the grant arrived via
// queue handover (after local spinning behind a predecessor) rather
// than by taking the free lock directly. It is already computed by the
// acquire protocol, so exposing it adds no work to the path; the
// observability layer splits its exclusive-acquire counters on it.
func (l *OptiQL) AcquireEx(qnode *QNode) (handover bool) {
	if l.acquireQueue(qnode) {
		// Lock granted via handover: close the opportunistic read
		// window and clear the stale version bits (line 11).
		l.word.And(^(OpReadBit | VersionMask))
		return true
	}
	return false
}

// AcquireExAOR is the "adjustable opportunistic read" variant (Section
// 5.3): it acquires the lock but leaves the opportunistic read window
// open, admitting readers until the caller invokes CloseWindow. The
// caller MUST call CloseWindow before modifying the protected data.
// The handover flag is as for AcquireEx.
func (l *OptiQL) AcquireExAOR(qnode *QNode) (handover bool) {
	return l.acquireQueue(qnode)
}

// CloseWindow closes the opportunistic read window left open by
// AcquireExAOR. Readers that snapshotted the word during the window and
// validate after this point fail, exactly as with the non-adjustable
// protocol. It is a no-op (but safe) if the window is already closed.
func (l *OptiQL) CloseWindow() {
	l.word.And(^(OpReadBit | VersionMask))
}

// acquireQueue runs the common acquire path and reports whether the
// lock arrived via queue handover (true) or was taken free (false).
func (l *OptiQL) acquireQueue(qnode *QNode) (handover bool) {
	qnode.reset()
	// Record ourselves as the latest requester: locked bit on,
	// opportunistic read off, version bits zeroed (line 2).
	prev := l.word.Swap(LockedBit | uint64(qnode.id)<<qidShift)
	if prev&LockedBit == 0 {
		// The lock was free: we own it. Carry the version forward
		// (line 4, masking off the stale queue-node ID of the previous
		// holder); it is published on release.
		qnode.version.Store(((prev & VersionMask) + 1) & VersionMask)
		return false
	}
	// A predecessor holds the lock. Link behind it (line 7) and spin
	// locally on our own version field (lines 8-9).
	pred := qnode.pool.At(uint32((prev & QIDMask) >> qidShift))
	pred.next.Store(qnode)
	var s Spinner
	for qnode.version.Load() == InvalidVersion {
		s.Spin()
	}
	return true
}

// ReleaseEx releases the lock (Algorithm 3, lines 13-23), opening the
// opportunistic read window while handing over to a queued successor.
// qnode must be the node passed to the matching AcquireEx. The return
// value is the handover fanout: 0 when the word was CASed back to the
// unlocked state, 1 for a single exclusive successor, and k >= 1 when a
// maximal prefix of k queued-shared waiters was batch-granted.
func (l *OptiQL) ReleaseEx(qnode *QNode) int {
	return l.releaseEx(qnode, true)
}

// ReleaseExNoOR releases the lock without opening the opportunistic
// read window — the OptiQL-NOR variant evaluated in the paper. Readers
// can then only be admitted while the queue is completely empty. The
// return value is the handover fanout, as for ReleaseEx.
func (l *OptiQL) ReleaseExNoOR(qnode *QNode) int {
	return l.releaseEx(qnode, false)
}

func (l *OptiQL) releaseEx(qnode *QNode, opportunistic bool) int {
	version := qnode.version.Load()
	if qnode.next.Load() == nil {
		// No known successor: try to return the word to the unlocked
		// state carrying the new version (lines 14-16). The CAS only
		// succeeds if we are still the latest requester.
		if l.word.CompareAndSwap(LockedBit|uint64(qnode.id)<<qidShift, version) {
			return 0
		}
	}
	if opportunistic {
		// A successor exists (or is arriving): open the opportunistic
		// read window and publish our version so readers can validate
		// (line 18). The queue-node ID stays on the word so later
		// writers keep queueing.
		l.word.Or(OpReadBit | version)
	}
	// Wait for the successor to finish linking (lines 20-21), then
	// grant (line 23) — to the whole compatible prefix at once.
	var s Spinner
	for qnode.next.Load() == nil {
		s.Spin()
	}
	return l.grantChain(qnode, version)
}

// grantChain hands the lock from the releasing holder (whose published
// version is v) to its queued successor(s). A single exclusive waiter
// receives v+1, exactly the classic one-at-a-time handover. When the
// successor is a queued-shared waiter, the release-to-many path walks
// the maximal prefix of consecutive shared waiters and grants all of
// them in one pass: they share the lock concurrently at version v
// (readers do not modify the protected data, so the version must not
// advance), the prefix tail carries the group's outstanding-release
// count, and the first incompatible (exclusive) waiter — if any — stays
// queued behind the group, to be granted v+1 when the group drains.
//
// The walked prefix is frozen: a node writes its mode before the Swap
// that publishes it, links never change once stored, and no waiter in
// the prefix can leave the queue before being granted. Group state
// (gTail on every member, shPend on the tail) is fully published before
// the first grant-store; each member's next pointer is read before its
// own grant, because a granted member may release and recycle its node
// immediately.
//
// Returns the number of waiters granted.
func (l *OptiQL) grantChain(h *QNode, v uint64) int {
	first := h.next.Load()
	if first.mode != qModeSh {
		first.version.Store((v + 1) & VersionMask)
		return 1
	}
	tail := first
	count := 1
	for {
		nx := tail.next.Load()
		if nx == nil || nx.mode != qModeSh {
			break
		}
		tail = nx
		count++
	}
	tail.shPend.Store(int64(count))
	for m := first; m != tail; m = m.next.Load() {
		m.gTail = tail
	}
	tail.gTail = tail
	for m := first; ; {
		nx := m.next.Load()
		m.version.Store(v)
		if m == tail {
			break
		}
		m = nx
	}
	return count
}

// AcquireShQueued acquires the lock in queued-shared mode: a
// pessimistic reader that, instead of spinning on optimistic
// validation failures, takes a place in the FIFO queue and is granted
// — together with every compatible neighbour — by a releasing holder's
// single batch grant. Shared holders do not modify the protected data,
// so the version is carried through unchanged and optimistic readers
// validating across a shared hold still succeed.
//
// opportunistic controls whether taking the free lock re-opens the
// opportunistic read window (OptiQL/AOR variants); pass false for NOR.
// The handover flag reports a queue wait, as for AcquireEx.
func (l *OptiQL) AcquireShQueued(qnode *QNode, opportunistic bool) (handover bool) {
	qnode.reset()
	qnode.mode = qModeSh
	prev := l.word.Swap(LockedBit | uint64(qnode.id)<<qidShift)
	if prev&LockedBit == 0 {
		// The lock was free: hold it as a shared group of one, carrying
		// the version unchanged. Re-opening the opportunistic window
		// keeps admitting lock-free readers alongside us; their
		// snapshots stay valid for as long as no writer swaps in.
		v := prev & VersionMask
		qnode.gTail = qnode
		qnode.shPend.Store(1)
		if opportunistic {
			l.word.Or(OpReadBit | v)
		}
		qnode.version.Store(v)
		return false
	}
	pred := qnode.pool.At(uint32((prev & QIDMask) >> qidShift))
	pred.next.Store(qnode)
	var s Spinner
	for qnode.version.Load() == InvalidVersion {
		s.Spin()
	}
	return true
}

// ReleaseShQueued releases a queued-shared hold taken with
// AcquireShQueued. Non-tail group members simply check out of the
// group; the tail waits for the group to drain and then performs the
// structural handover (CAS the word free, or batch-grant the next
// compatible prefix). opportunistic must match the acquire. Returns
// the handover fanout, as for ReleaseEx (always 0 for non-tail
// members).
func (l *OptiQL) ReleaseShQueued(qnode *QNode, opportunistic bool) int {
	tail := qnode.gTail
	if tail != qnode {
		tail.shPend.Add(-1)
		return 0
	}
	// Group tail: wait until every member (ourselves included) has
	// checked out, then hand over on the group's behalf.
	qnode.shPend.Add(-1)
	var s Spinner
	for qnode.shPend.Load() != 0 {
		s.Spin()
	}
	v := qnode.version.Load()
	if qnode.next.Load() == nil {
		// Shared holds publish the version they inherited, unchanged.
		// While we are the latest requester the word is our Swap's,
		// plus the window (OpReadBit | v) if whoever admitted us opened
		// one after that Swap: we did on the free path, a releasing
		// writer may have, a releasing shared tail never does. Both
		// forms say nobody queued behind us.
		bare := LockedBit | uint64(qnode.id)<<qidShift
		if l.word.CompareAndSwap(bare, v) ||
			opportunistic && l.word.CompareAndSwap(bare|OpReadBit|v, v) {
			return 0
		}
	}
	for qnode.next.Load() == nil {
		s.Spin()
	}
	return l.grantChain(qnode, v)
}

// BumpVersion advances the version field of an unlocked word, failing
// validation for any reader still holding an older snapshot. Callers
// use it when the memory the lock protects is recycled (type-stable
// node reuse). While the lock is held the CAS is skipped: the holder's
// own release publishes an incremented version anyway, and the word
// must not be disturbed mid-protocol. Racing acquirers are unaffected —
// their Swap wins over this CAS, and a racing Upgrade simply fails its
// snapshot comparison and restarts, which is the desired outcome.
func (l *OptiQL) BumpVersion() {
	for {
		v := l.word.Load()
		if v&LockedBit != 0 {
			return
		}
		if l.word.CompareAndSwap(v, (v+1)&VersionMask) {
			return
		}
	}
}

// Upgrade attempts to convert an optimistic read with snapshot v into
// exclusive ownership, the try-lock style interface added for ART
// (Section 6.2). It CASes the word from the unlocked snapshot to the
// locked state carrying qnode's ID, so later writers still queue behind
// qnode. It fails (returning false) if the snapshot is stale or the
// lock is held; the caller is expected to restart its operation.
func (l *OptiQL) Upgrade(v uint64, qnode *QNode) bool {
	if v&LockedBit != 0 {
		// Never steal: a snapshot taken during an opportunistic window
		// is readable but not upgradable.
		return false
	}
	qnode.reset()
	if !l.word.CompareAndSwap(v, LockedBit|uint64(qnode.id)<<qidShift) {
		return false
	}
	qnode.version.Store(((v & VersionMask) + 1) & VersionMask)
	return true
}
