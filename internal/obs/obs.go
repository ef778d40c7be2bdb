// Package obs is the observability layer of the reproduction: typed
// lock/index event counters, run snapshots, machine-readable JSON run
// reports and a live HTTP endpoint (pprof, expvar, Prometheus-text
// /metrics).
//
// The design follows the constraint of Section 4 of the paper — the
// lock itself stays one 8-byte word and its acquire/release word
// operations stay untouched — so all accounting happens one layer up:
// the lock adapters in internal/locks and the index substrates bump
// per-worker counters hanging off the worker's locks.Ctx. Counters are
// allocation-free on the hot path and cache-line padded per worker, so
// they are cheap enough to leave enabled in production runs (the A/B
// benchmark in bench_test.go documents the overhead; see DESIGN.md).
//
// Each worker owns one *Counters obtained from a run's Registry; the
// Registry merges all of them into an immutable Snapshot at run end, or
// on demand while the run is live (the /metrics handler does exactly
// that).
package obs

import (
	"sync"
	"sync/atomic"
)

// Event enumerates the counted lock and index events. The taxonomy
// mirrors the paper's discussion: optimistic-read admission and
// validation (Section 4.2), exclusive acquisition by free-word CAS vs.
// queue handover (Algorithm 3), upgrades and contention expansion
// (Section 6.2), and B+-tree structure modifications (Section 6.1).
type Event uint8

const (
	// EvShAcquireFail counts optimistic shared acquires rejected up
	// front: the lock was held with no opportunistic window open.
	EvShAcquireFail Event = iota
	// EvShValidateFail counts optimistic reads whose validation failed
	// at release: a writer was granted the lock after the snapshot.
	EvShValidateFail
	// EvShOpportunistic counts shared acquires admitted through an open
	// opportunistic read window (lock held, both status bits set) —
	// reads that only the OptiQL OR/AOR protocol can admit.
	EvShOpportunistic
	// EvOpRestart counts index operations restarting from the top after
	// a failed validation or structural recheck.
	EvOpRestart
	// EvExFree counts exclusive acquisitions that took a free lock
	// directly (CAS/swap observed the lock unlocked).
	EvExFree
	// EvExHandover counts exclusive acquisitions granted by queue
	// handover after local spinning (queue-based locks only).
	EvExHandover
	// EvUpgradeOK counts successful shared-to-exclusive upgrades.
	EvUpgradeOK
	// EvUpgradeFail counts failed upgrade attempts (stale snapshot or
	// lock already held); the caller restarts.
	EvUpgradeFail
	// EvBTreeSplit counts B+-tree node splits (leaf and inner).
	EvBTreeSplit
	// EvBTreeMerge counts B+-tree node merges during delete rebalancing.
	EvBTreeMerge
	// EvARTExpand counts ART contention expansions (Section 6.2).
	EvARTExpand

	// The events below extend the taxonomy from the lock to the system
	// around it: the fault-injection layer (internal/faults), the
	// hardened server (internal/server) and the reconnecting client
	// (internal/server/wire). TXSQL-style robustness — admission
	// control, shedding, bounded retries — is accounted in the same
	// registry so one -json report shows the lock and the network layer
	// degrading (or not) together.

	// EvFaultLatency counts injected send/receive delays.
	EvFaultLatency
	// EvFaultStall counts injected read stalls (slow-loris peer).
	EvFaultStall
	// EvFaultShortWrite counts injected short writes (the connection is
	// broken mid-frame).
	EvFaultShortWrite
	// EvFaultFragment counts writes split into delayed fragments
	// (exercises frame reassembly on the peer).
	EvFaultFragment
	// EvFaultReset counts injected hard connection resets.
	EvFaultReset
	// EvFaultCorrupt counts injected single-bit payload corruptions.
	EvFaultCorrupt
	// EvFaultAcceptFail counts injected listener accept failures.
	EvFaultAcceptFail
	// EvSrvPanic counts handler panics recovered by the server (the
	// request is answered with StatusErr; the process survives).
	EvSrvPanic
	// EvSrvShed counts writes shed with StatusOverloaded because the
	// shard's in-flight budget was exhausted.
	EvSrvShed
	// EvSrvReap counts connections reaped by the server's read deadline
	// (idle or slow-loris peers).
	EvSrvReap
	// EvCliRetry counts requests a ReconnClient retried after a
	// retryable failure or an overload answer.
	EvCliRetry
	// EvCliReconnect counts connections a ReconnClient re-established.
	EvCliReconnect
	// EvCliOverloaded counts StatusOverloaded answers a ReconnClient
	// observed (each backed off before retrying).
	EvCliOverloaded

	// The batch-grant events below account for MCS-RW queue releases
	// that wake a whole reader group at once. OptiQL readers never
	// queue, so its releases never count here.

	// EvBatchGrant counts MCS-RW releases that granted two or more
	// queued readers in a single handover (release-to-many).
	EvBatchGrant
	// EvGrantFanout sums the fanout of those MCS-RW batch grants:
	// readers woken by releases counted in EvBatchGrant. Mean group size
	// is EvGrantFanout / EvBatchGrant.
	EvGrantFanout

	// The durability events below account for the write-ahead log
	// (internal/wal): the append/group-commit pipeline, recovery replay
	// and the checkpoint/reclaim machinery.

	// EvWalAppendRec counts record batches appended to a WAL.
	EvWalAppendRec
	// EvWalAppendOps counts individual operations appended to a WAL
	// (each record carries one request's writes to one shard).
	EvWalAppendOps
	// EvWalSync counts fsyncs issued by the group-commit machinery
	// (ticks, always-policy batches and segment seals alike).
	EvWalSync
	// EvWalRotate counts segment rotations (the old segment is sealed —
	// flushed, fsynced, closed — and a fresh one opened).
	EvWalRotate
	// EvWalReplayRec counts records replayed into the index at startup.
	EvWalReplayRec
	// EvWalReplayOps counts individual operations replayed at startup
	// (checkpoint pairs included).
	EvWalReplayOps
	// EvWalTornTail counts torn-tail truncations: a partial or
	// checksum-failing record at the very end of the log, discarded as
	// an un-fsynced crash remnant.
	EvWalTornTail
	// EvWalCheckpoint counts checkpoint snapshots written.
	EvWalCheckpoint
	// EvWalSegReclaim counts sealed segments deleted because a
	// checkpoint made them redundant.
	EvWalSegReclaim
	// EvWalLagShed counts writes shed with StatusOverloaded because the
	// shard's fsync queue was lagging past its budget.
	EvWalLagShed

	// NumEvents is the number of counter slots; it is NOT an event.
	NumEvents
)

// eventNames are the identifiers used in JSON reports and as the
// Prometheus "event" label; snake_case and unique. The names are the
// stable interface: an event keeps its name for life, but its numeric
// value is only an in-process array index and shifts when an event is
// removed, so nothing may persist or compare the numbers.
var eventNames = [NumEvents]string{
	EvShAcquireFail:   "sh_acquire_fail",
	EvShValidateFail:  "sh_validate_fail",
	EvShOpportunistic: "sh_opportunistic_admit",
	EvOpRestart:       "op_restart",
	EvExFree:          "ex_acquire_free",
	EvExHandover:      "ex_acquire_handover",
	EvUpgradeOK:       "upgrade_ok",
	EvUpgradeFail:     "upgrade_fail",
	EvBTreeSplit:      "btree_split",
	EvBTreeMerge:      "btree_merge",
	EvARTExpand:       "art_expansion",
	EvFaultLatency:    "fault_latency",
	EvFaultStall:      "fault_stall",
	EvFaultShortWrite: "fault_short_write",
	EvFaultFragment:   "fault_fragment",
	EvFaultReset:      "fault_reset",
	EvFaultCorrupt:    "fault_corrupt",
	EvFaultAcceptFail: "fault_accept_fail",
	EvSrvPanic:        "srv_panic_recovered",
	EvSrvShed:         "srv_overload_shed",
	EvSrvReap:         "srv_conn_reaped",
	EvCliRetry:        "cli_retry",
	EvCliReconnect:    "cli_reconnect",
	EvCliOverloaded:   "cli_overloaded",
	EvBatchGrant:      "batch_grant",
	EvGrantFanout:     "grant_fanout",
	EvWalAppendRec:    "wal_append_record",
	EvWalAppendOps:    "wal_append_ops",
	EvWalSync:         "wal_fsync",
	EvWalRotate:       "wal_segment_rotate",
	EvWalReplayRec:    "wal_replay_record",
	EvWalReplayOps:    "wal_replay_ops",
	EvWalTornTail:     "wal_torn_tail_truncate",
	EvWalCheckpoint:   "wal_checkpoint",
	EvWalSegReclaim:   "wal_segment_reclaimed",
	EvWalLagShed:      "wal_lag_shed",
}

// Name returns the event's stable snake_case identifier.
func (e Event) Name() string {
	if e >= NumEvents {
		return "unknown"
	}
	return eventNames[e]
}

// EventNames returns the identifiers of all events in declaration
// order (the order Snapshot.Counts uses).
func EventNames() []string {
	out := make([]string, NumEvents)
	copy(out, eventNames[:])
	return out
}

// cacheLine is the assumed cache-line size for padding.
const cacheLine = 64

// countersSize rounds the counter array up to a whole number of cache
// lines so adjacent workers' sets never share a line.
const countersSize = (int(NumEvents)*8 + cacheLine - 1) / cacheLine * cacheLine

// Counters is one worker's event counter set. The zero value is ready
// to use; a nil *Counters is a valid "disabled" set whose methods do
// nothing, so call sites need no enabled/disabled branches of their
// own. Increment via atomics: each worker owns its set exclusively, so
// the adds are uncontended single-cacheline operations, while the live
// /metrics handler can read a consistent value concurrently.
//
//optiql:cacheline
type Counters struct {
	// The pad sits first: a zero-length trailing array would itself be
	// padded (Go sizes structs so a past-the-end pointer to a final
	// zero-size field stays in bounds), breaking the exact-multiple
	// sizing when the counter array already fills whole lines.
	_ [countersSize - int(NumEvents)*8]byte
	c [NumEvents]atomic.Uint64
}

// Inc adds one to the event's counter. Safe (and a no-op) on nil.
//
//optiql:noalloc
func (c *Counters) Inc(e Event) {
	if c != nil {
		c.c[e].Add(1)
	}
}

// Add adds n to the event's counter. Safe (and a no-op) on nil.
//
//optiql:noalloc
func (c *Counters) Add(e Event, n uint64) {
	if c != nil && n != 0 {
		c.c[e].Add(n)
	}
}

// Load returns the event's current count (0 on nil).
//
//optiql:noalloc
func (c *Counters) Load(e Event) uint64 {
	if c == nil {
		return 0
	}
	return c.c[e].Load()
}

// Snapshot is an immutable merged view of one or more counter sets.
type Snapshot struct {
	Counts [NumEvents]uint64
}

// Get returns the merged count for e.
func (s Snapshot) Get(e Event) uint64 {
	if e >= NumEvents {
		return 0
	}
	return s.Counts[e]
}

// Total returns the sum over all events.
func (s Snapshot) Total() uint64 {
	var t uint64
	for _, n := range s.Counts {
		t += n
	}
	return t
}

// Map returns the snapshot keyed by event name (all events, including
// zero counts, so report columns stay stable across runs).
func (s Snapshot) Map() map[string]uint64 {
	m := make(map[string]uint64, NumEvents)
	for e := Event(0); e < NumEvents; e++ {
		m[e.Name()] = s.Counts[e]
	}
	return m
}

// add folds one worker's live counters into the snapshot.
func (s *Snapshot) add(c *Counters) {
	if c == nil {
		return
	}
	for e := Event(0); e < NumEvents; e++ {
		s.Counts[e] += c.c[e].Load()
	}
}

// Merge folds another snapshot into s.
func (s *Snapshot) Merge(other Snapshot) {
	for e := Event(0); e < NumEvents; e++ {
		s.Counts[e] += other.Counts[e]
	}
}

// Registry hands out per-worker counter sets and merges them. It is
// safe for concurrent use; a nil *Registry hands out nil (disabled)
// counter sets and empty snapshots, so callers can thread one pointer
// through unconditionally.
type Registry struct {
	mu   sync.Mutex
	sets []*Counters
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// NewCounters allocates, registers and returns a fresh counter set for
// one worker. On a nil registry it returns nil (a disabled set).
func (r *Registry) NewCounters() *Counters {
	if r == nil {
		return nil
	}
	c := new(Counters)
	r.mu.Lock()
	r.sets = append(r.sets, c)
	r.mu.Unlock()
	return c
}

// Snapshot merges every registered set. It may run concurrently with
// workers still counting; each cell is read atomically, so the result
// is a consistent monotonic sample (exact once workers have stopped).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	sets := r.sets
	r.mu.Unlock()
	for _, c := range sets {
		s.add(c)
	}
	return s
}
