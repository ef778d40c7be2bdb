package btree

import (
	"testing"
	"unsafe"
)

// endOffset returns how far past n's address the last element of s
// ends.
func endOffset[E any](n *node, s []E) uintptr {
	var e E
	return uintptr(unsafe.Pointer(&s[len(s)-1])) + unsafe.Sizeof(e) - uintptr(unsafe.Pointer(n))
}

// TestNodeClassLayout pins the //optiql:cacheline contract of every
// size-class struct (the padalign analyzer checks the same thing in
// lint), the SWAR padding of the fingerprint arrays, and the read
// descent's prefetch span: whole structs are cache-line multiples, fp
// capacities are word multiples covering the fanout, and the span is a
// whole number of lines inside either role's struct that covers what
// the class's search reads first.
func TestNodeClassLayout(t *testing.T) {
	if len(classSizes) != len(classCaps) {
		t.Fatalf("classSizes has %d classes, classCaps %d", len(classSizes), len(classCaps))
	}
	for class, sz := range classSizes {
		for role, s := range sz {
			if s == 0 || s%64 != 0 {
				t.Errorf("class %d role %d struct is %d bytes, want a non-zero multiple of 64", class, role, s)
			}
		}
	}
	for class, cap := range classCaps {
		fpc := classFPCaps[class]
		if fpc%8 != 0 || fpc < cap {
			t.Errorf("class %d: fp capacity %d must be a word multiple covering fanout %d", class, fpc, cap)
		}
	}
	// The fp slices a constructed node carries must have the padded
	// capacity (the SWAR kernel reads whole words past the fanout).
	for class, cap := range classCaps {
		if got := len(makeLeaf(class, cap).fps); got != classFPCaps[class] {
			t.Errorf("leaf class %d: len(fps) = %d, want %d", class, got, classFPCaps[class])
		}
		if got := len(makeInner(class, cap).fps); got != classFPCaps[class] {
			t.Errorf("inner class %d: len(fps) = %d, want %d", class, got, classFPCaps[class])
		}
	}
	// Heap-class nodes get word-padded fp slices too.
	if got := len(makeLeaf(classHeap, 300).fps); got != 304 {
		t.Errorf("heap leaf: len(fps) = %d, want 304", got)
	}

	// Prefetch span: a header edit that moves the arrays must fail here,
	// not prefetch past an allocation or stop covering the keys.
	for class, cap := range classCaps {
		span := prefetchSpan(class)
		if span == 0 || span%64 != 0 {
			t.Errorf("class %d: span %d, want a non-zero multiple of 64", class, span)
		}
		if span > classSizes[class][0] || span > classSizes[class][1] {
			t.Errorf("class %d: span %d exceeds a role's struct (leaf %d, inner %d)",
				class, span, classSizes[class][0], classSizes[class][1])
		}
		for role, n := range map[string]*node{"leaf": makeLeaf(class, cap), "inner": makeInner(class, cap)} {
			if end := endOffset(n, n.fps); span < end {
				t.Errorf("%s class %d: span %d ends before the fingerprints (%d)", role, class, span, end)
			}
			// The one line the two-step prefetch used to warm.
			if k0 := uintptr(unsafe.Pointer(&n.keys[0])) - uintptr(unsafe.Pointer(n)); span <= k0 {
				t.Errorf("%s class %d: span %d ends before keys[0] (%d)", role, class, span, k0)
			}
			if end := endOffset(n, n.keys); cap <= linearCap && span < end {
				t.Errorf("%s class %d: linear class span %d ends before the last key slot (%d)", role, class, span, end)
			}
		}
	}
	if span := prefetchSpan(classHeap); span != 0 {
		t.Errorf("heap class: span %d, want 0 (its arrays are separate allocations)", span)
	}
}
