//go:build race

package simd

import "unsafe"

// Race-detector builds disable the software prefetch: it is an
// intentional racy read of lines a writer may be mutating (see
// prefetch.go), and reporting it would bury real findings. The
// traversals it serves are purely advisory about it — correctness
// never depends on the loaded value.

// Prefetch is a no-op under the race detector.
//
//optiql:noalloc
func Prefetch(p unsafe.Pointer) {}
