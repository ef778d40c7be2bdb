package indextest

import (
	"fmt"

	"optiql/internal/workload"
)

// This file is the deterministic-schedule half of the harness: seeded,
// replayable programs of client writes pre-partitioned into batches,
// plus a FIFO map oracle that yields the expected response for every
// op. The striped-key Run harness (indextest.go) proves the substrates
// under real nondeterministic concurrency; SchedProgram instead FIXES
// the interleaving, so a write path can be replayed over an exact
// schedule and checked op-for-op and state-for-state. The server's
// write-path tests wire it over both indexes and all schemes.

// Sched op kinds (the only ops a program carries).
const (
	SchedPut byte = iota
	SchedDelete
)

// SchedOp is one scheduled client write.
type SchedOp struct {
	// Conn is the issuing connection's index in [0, conns); the
	// harness's read-your-writes check replays each connection's view.
	Conn int
	Op   byte // SchedPut or SchedDelete
	Key  uint64
	Val  uint64
}

// SchedProgram is a seeded program: a fixed interleaving of connection
// writes partitioned into batches. The same seed always yields
// the same program, so a failure reproduces from its seed alone.
type SchedProgram struct {
	HotKeys []uint64
	Batches [][]SchedOp
}

// NewSchedProgram generates a program of nBatches batches of 1..maxBatch
// ops over conns connections and keys in [1, keySpace]; hotFrac of the
// ops target the tiny hot set (hotKeys ≥ 1 keys drawn from the space),
// so same-key runs form within a batch as under Zipfian skew, and ~30%
// of all ops are DELETEs so runs interleave inserts, overwrites and
// removals.
// Values are globally unique, so any last-writer-wins violation is
// visible in the final state, not just statistically likely.
func NewSchedProgram(seed uint64, conns, nBatches, maxBatch int, keySpace uint64, hotKeys int, hotFrac float64) *SchedProgram {
	if conns < 1 || nBatches < 1 || maxBatch < 1 || keySpace < uint64(hotKeys) || hotKeys < 1 {
		panic(fmt.Sprintf("indextest: bad program shape (conns=%d batches=%d maxBatch=%d keys=%d hot=%d)",
			conns, nBatches, maxBatch, keySpace, hotKeys))
	}
	rng := workload.NewRNG(seed)
	p := &SchedProgram{}
	for i := 0; i < hotKeys; i++ {
		p.HotKeys = append(p.HotKeys, 1+rng.Uint64n(keySpace))
	}
	val := uint64(1)
	for b := 0; b < nBatches; b++ {
		n := 1 + int(rng.Uint64n(uint64(maxBatch)))
		batch := make([]SchedOp, 0, n)
		for i := 0; i < n; i++ {
			op := SchedOp{Conn: int(rng.Uint64n(uint64(conns)))}
			if rng.Float64() < hotFrac {
				op.Key = p.HotKeys[rng.Uint64n(uint64(len(p.HotKeys)))]
			} else {
				op.Key = 1 + rng.Uint64n(keySpace)
			}
			if rng.Float64() < 0.3 {
				op.Op = SchedDelete
			} else {
				op.Op = SchedPut
				op.Val = val
				val++
			}
			batch = append(batch, op)
		}
		p.Batches = append(p.Batches, batch)
	}
	return p
}

// SchedOracle replays a program in FIFO order over a plain map,
// producing the responses a strictly serial write path would give. A
// write path must match it op-for-op and, between batches,
// state-for-state.
type SchedOracle struct {
	m map[uint64]uint64
	// lastPut[conn] tracks each connection's most recent PUT, for the
	// per-connection read-your-writes check.
	lastPut map[int]SchedOp
}

// NewSchedOracle returns an empty oracle.
func NewSchedOracle() *SchedOracle {
	return &SchedOracle{m: make(map[uint64]uint64), lastPut: make(map[int]SchedOp)}
}

// Apply replays one op. For a PUT, inserted reports whether the key was
// absent; for a DELETE, found reports whether it was present.
func (o *SchedOracle) Apply(op SchedOp) (inserted, found bool) {
	switch op.Op {
	case SchedPut:
		_, present := o.m[op.Key]
		o.m[op.Key] = op.Val
		o.lastPut[op.Conn] = op
		return !present, present
	case SchedDelete:
		_, present := o.m[op.Key]
		delete(o.m, op.Key)
		return false, present
	}
	panic("indextest: unknown sched op")
}

// Get returns the oracle's current value for key.
func (o *SchedOracle) Get(key uint64) (uint64, bool) {
	v, ok := o.m[key]
	return v, ok
}

// Len returns the oracle's current key count.
func (o *SchedOracle) Len() int { return len(o.m) }

// ReadYourWrites checks each connection's view against a read function:
// for every connection whose most recent PUT's value is still current
// in the oracle (no later write to that key from any connection), the
// index must return exactly that value. Returns a descriptive error
// string, or "" when consistent.
func (o *SchedOracle) ReadYourWrites(read func(key uint64) (uint64, bool)) string {
	for conn, op := range o.lastPut {
		want, present := o.m[op.Key]
		if !present || want != op.Val {
			// A later write superseded this connection's PUT; the oracle
			// already covers the key via the state check.
			continue
		}
		got, ok := read(op.Key)
		if !ok || got != op.Val {
			return fmt.Sprintf("conn %d lost its write: key %d = (%d, %v), want (%d, true)",
				conn, op.Key, got, ok, op.Val)
		}
	}
	return ""
}
