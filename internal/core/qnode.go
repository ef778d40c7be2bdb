package core

import (
	"fmt"
	"sync/atomic"
)

// MaxQNodes is the capacity of the default queue-node ID space: the
// lock word dedicates QIDBits bits to the ID of the latest exclusive
// requester, so at most 1<<QIDBits queue nodes can exist per Pool.
const MaxQNodes = 1 << QIDBits

// InvalidVersion is the sentinel stored in a queue node's version field
// while its owner is waiting in the queue. The predecessor grants the
// lock by overwriting it with the successor's version number.
const InvalidVersion = ^uint64(0)

// QNode is an MCS-style queue node used by queued OptiQL requesters.
// Unlike a classic MCS node it carries a version number instead of a
// granted flag: the predecessor passes the lock by storing the
// successor's (already incremented) version, which the successor later
// publishes on the lock word when it releases.
//
// Queue nodes are allocated from a Pool so that their array index can
// serve as the compact ID embedded in the 8-byte lock word.
//
//optiql:cacheline
type QNode struct {
	next    atomic.Pointer[QNode]
	version atomic.Uint64

	id       uint32
	freeNext atomic.Uint32 // freelist link (index+1), managed by Pool
	pool     *Pool

	_ [32]byte // pad to a 64-byte cache line to avoid false sharing
}

// ID returns the node's pool-relative identifier, the value embedded in
// lock words while this node is the latest exclusive requester.
func (q *QNode) ID() uint32 { return q.id }

// Pool returns the pool this node was allocated from.
func (q *QNode) Pool() *Pool { return q.pool }

// reset prepares the node for a fresh acquisition.
func (q *QNode) reset() {
	q.next.Store(nil)
	q.version.Store(InvalidVersion)
}

// Pool is a contiguous, pre-allocated array of queue nodes. The array
// index of a node is its ID, so translating between the 10-bit ID on
// the lock word and a usable pointer is a single bounds-checked index —
// the FOEDUS-style indirection described in Section 6.3 of the paper.
//
// Get and Put are safe for concurrent use; they run a tagged Treiber
// freelist over node indices.
type Pool struct {
	nodes []QNode
	// head encodes tag<<32 | (index+1); index 0 means "empty". The tag
	// increments on every pop to defeat ABA.
	head atomic.Uint64
}

// NewPool creates a pool with n queue nodes (1 <= n <= MaxQNodes).
func NewPool(n int) *Pool {
	if n < 1 || n > MaxQNodes {
		panic(fmt.Sprintf("core: pool size %d out of range [1, %d]", n, MaxQNodes))
	}
	p := &Pool{nodes: make([]QNode, n)}
	for i := range p.nodes {
		q := &p.nodes[i]
		q.id = uint32(i)
		q.pool = p
		q.freeNext.Store(uint32(i + 2)) // next index+1; last links to n+1
	}
	p.nodes[n-1].freeNext.Store(0)
	p.head.Store(1) // index 0 + 1
	return p
}

// Cap returns the number of queue nodes in the pool.
func (p *Pool) Cap() int { return len(p.nodes) }

// At translates a queue-node ID back to its node.
func (p *Pool) At(id uint32) *QNode { return &p.nodes[id] }

// Get pops a free queue node. It panics if the pool is exhausted,
// which indicates the application registered more concurrent lock
// holders than the pool was sized for (a configuration error, mirroring
// the fixed ID space of the C++ implementation).
func (p *Pool) Get() *QNode {
	q, ok := p.TryGet()
	if !ok {
		panic("core: queue-node pool exhausted")
	}
	return q
}

// TryGet pops a free queue node, reporting failure instead of
// panicking when the pool is exhausted.
func (p *Pool) TryGet() (*QNode, bool) {
	for {
		old := p.head.Load()
		idx := uint32(old)
		if idx == 0 {
			return nil, false
		}
		q := &p.nodes[idx-1]
		next := q.freeNext.Load()
		tag := (old >> 32) + 1
		if p.head.CompareAndSwap(old, tag<<32|uint64(next)) {
			q.reset()
			return q, true
		}
	}
}

// Put returns a queue node to the pool. The node must have been
// obtained from this pool and must not be in use by any lock.
func (p *Pool) Put(q *QNode) {
	if q.pool != p {
		panic("core: Put of foreign queue node")
	}
	for {
		old := p.head.Load()
		q.freeNext.Store(uint32(old))
		tag := (old >> 32) + 1
		if p.head.CompareAndSwap(old, tag<<32|uint64(q.id+1)) {
			return
		}
	}
}
