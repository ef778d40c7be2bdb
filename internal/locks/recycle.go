package locks

import "sync/atomic"

// Type-stable node recycling (the paper's §6.1 reuse discipline, made
// explicit). An index that frees nodes during structural modifications
// hands them to a Recycler instead of dropping them for the GC; later
// allocations of the same node class take them back. Reuse is safe
// under in-flight optimistic readers because:
//
//   - a node is recycled together with its lock, and the lock's version
//     word is never reset — it only moves forward. Any reader holding a
//     version snapshot from the node's previous life fails validation,
//     because the structural modification that freed the node bumped
//     the version at ReleaseEx (and BumpOnReuse bumps it again,
//     defensively, in case a free site ever releases without a
//     modification);
//   - nodes are type-stable: a Recycler serves exactly one node class
//     of one tree, so a stale pointer always refers to an object of the
//     layout the reader expects — torn field reads are possible but are
//     rejected by the validation above, never misinterpreted;
//   - pessimistic schemes never hold stale pointers at all (their
//     shared acquisitions block), so reinitialization is race-free for
//     the schemes the race detector runs.
//
// There is one tier: a small per-Ctx (per-worker) stack absorbs the
// common split/merge churn with no synchronization. A node is only
// ever reused by the worker that freed it; whatever does not fit (a
// full stack, a Put without a Ctx, a slot taken over by another
// Recycler, a closed Ctx) is left to the GC.

const (
	// recycleSlots is the number of per-Ctx cache slots. Each Recycler
	// hashes to one slot; a worker driving more Recyclers than slots
	// (several trees at once) discards a slot's nodes when another
	// Recycler takes it over, which is correct, just colder.
	recycleSlots = 8
	// recycleDepth bounds the nodes one Ctx slot holds. Splits and
	// merges free at most a handful of nodes per operation, so a short
	// stack captures the churn while keeping eviction cheap.
	recycleDepth = 16
)

// recyclerSeq assigns each Recycler its Ctx slot round-robin.
var recyclerSeq atomic.Uint32

// Recycler is a free list for one node class of one tree. Get/Put
// cost a slice index and a store on the calling worker's Ctx.
type Recycler struct {
	slot uint32
}

// NewRecycler creates an empty free list.
func NewRecycler() *Recycler {
	return &Recycler{slot: recyclerSeq.Add(1) % recycleSlots}
}

// freeCache is one Ctx slot: a small stack of nodes owned by a single
// Recycler. The owner tag keeps classes from ever mixing — a slot
// taken over by a different Recycler (another tree, or the other node
// class) drops its previous owner's nodes first.
type freeCache struct {
	owner *Recycler
	n     int
	items [recycleDepth]any
}

// Get returns a node this worker freed earlier, or nil when the caller
// must allocate. c may be nil (tree construction paths), which always
// yields nil.
func (r *Recycler) Get(c *Ctx) any {
	if c == nil {
		return nil
	}
	s := &c.free[r.slot]
	if s.owner != r || s.n == 0 {
		return nil
	}
	s.n--
	x := s.items[s.n]
	s.items[s.n] = nil
	return x
}

// Put stores a freed node for reuse by the same worker. The node must
// be unreachable from the structure and its lock released; the caller
// is expected to have cleared any child pointers so the cache does not
// pin subtrees. Without a Ctx, or with the slot full, the node is left
// to the GC.
func (r *Recycler) Put(c *Ctx, x any) {
	if c == nil {
		return
	}
	s := &c.free[r.slot]
	if s.owner != r {
		*s = freeCache{owner: r}
	}
	if s.n == recycleDepth {
		return
	}
	s.items[s.n] = x
	s.n++
}

// VersionBumper is implemented by the optimistic locks: BumpVersion
// advances the version word of an unlocked lock, so that optimistic
// readers still holding a snapshot from before the bump fail
// validation. Pessimistic locks (whose readers block and hence can
// never hold a stale snapshot) do not implement it.
type VersionBumper interface{ BumpVersion() }

// BumpOnReuse advances l's version if the scheme validates reads
// against it. Called by the index substrates when a recycled node is
// taken back into use, before any field of the node is rewritten.
func BumpOnReuse(l Lock) {
	if b, ok := l.(VersionBumper); ok {
		b.BumpVersion()
	}
}
