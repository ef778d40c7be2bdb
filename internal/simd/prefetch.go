// Portable software-prefetch shim. Go exposes no prefetch intrinsic
// outside the runtime, so Prefetch issues an ordinary speculative
// load of the target line instead: the load starts the cache miss
// early and the result is discarded. An atomic load is used because
// the compiler never dead-code-eliminates atomics (they carry memory
// ordering), whereas a plain discarded dereference may be reduced to
// its nil check. Unlike a true PREFETCHT0 the load occupies a load
// port and cannot be dropped when the bus is busy, but on the descent
// paths that call it the line is needed within a few dozen cycles
// anyway — the point is overlapping the miss with the parent's version
// validation, not avoiding it.
//
// Safety: the descent paths prefetch lines of nodes they have not yet
// validated. That is the same racy-read license every optimistic
// traversal already operates under — the value is discarded, only the
// side effect of warming the cache remains — and the pointers come
// from child slots of live-at-snapshot parents, so they reference
// allocated (possibly recycled, never freed) node memory. Under the
// race detector the speculative loads compile to no-ops
// (prefetch_race.go): they are deliberate races on lines a writer may
// be mutating, and a cache hint is not worth drowning the detector's
// signal.

//go:build !race

package simd

import (
	"sync/atomic"
	"unsafe"
)

// Prefetch warms the cache line containing p. p must be nil or point
// into an allocated object with at least 8 addressable bytes at an
// 8-byte-aligned address (any Go heap object's header satisfies
// this).
//
//optiql:noalloc
func Prefetch(p unsafe.Pointer) {
	if p != nil {
		atomic.LoadUint64((*uint64)(p))
	}
}
