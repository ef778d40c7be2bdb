package simd

import (
	"math/rand"
	"sort"
	"testing"
	"unsafe"
)

// naive reference implementations the kernels are differentially
// tested against. They are deliberately the dumbest possible loops.

func refMatch(fp []byte, n int, b byte) uint64 {
	var m uint64
	for i := 0; i < n && i < len(fp); i++ {
		if fp[i] == b {
			m |= 1 << i
		}
	}
	return m
}

func refLowerBound(keys []uint64, n int, k uint64) int {
	for i := 0; i < n; i++ {
		if keys[i] >= k {
			return i
		}
	}
	return n
}

func refUpperBound(keys []uint64, n int, k uint64) int {
	for i := 0; i < n; i++ {
		if keys[i] > k {
			return i
		}
	}
	return n
}

func refLowerBoundBytes(a []byte, n int, b byte) int {
	for i := 0; i < n; i++ {
		if a[i] >= b {
			return i
		}
	}
	return n
}

func refUpperBoundBytes(a []byte, n int, b byte) int {
	for i := 0; i < n; i++ {
		if a[i] > b {
			return i
		}
	}
	return n
}

// classSizes are the fingerprint-array capacities of the B+-tree size
// classes plus the ART Node16 shape; the kernels are exercised at all
// of them, and at every count from empty to full.
var classSizes = []int{8, 16, 32, 64, 128, 256}

func TestMatch64Differential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range classSizes {
		fp := make([]byte, size)
		for trial := 0; trial < 200; trial++ {
			for i := range fp {
				// Narrow byte range forces duplicate fingerprints.
				fp[i] = byte(rng.Intn(8))
			}
			b := byte(rng.Intn(8))
			lim := size
			if lim > 64 {
				lim = 64
			}
			got := Match64(fp, b)
			want := refMatch(fp, lim, b)
			if got != want {
				t.Fatalf("Match64(size %d, b %d) = %#x, want %#x (fp %v)", size, b, got, want, fp[:lim])
			}
			// Block iteration must cover the tail classes too.
			for base := 0; base < size; base += 64 {
				blk := Match64(fp[base:], b)
				end := size - base
				if end > 64 {
					end = 64
				}
				if wantBlk := refMatch(fp[base:], end, b); blk != wantBlk {
					t.Fatalf("Match64 block at %d = %#x, want %#x", base, blk, wantBlk)
				}
			}
		}
	}
}

func TestMatch64NoFalseMisses(t *testing.T) {
	// Every byte value must match itself at every lane position.
	fp := make([]byte, 64)
	for pos := 0; pos < 64; pos++ {
		for _, v := range []byte{0, 1, 0x7f, 0x80, 0xfe, 0xff} {
			for i := range fp {
				fp[i] = v ^ 0xff // all lanes differ from v
			}
			fp[pos] = v
			if got := Match64(fp, v); got != 1<<pos {
				t.Fatalf("Match64(pos %d, v %#x) = %#x, want %#x", pos, v, got, uint64(1)<<pos)
			}
		}
	}
}

func TestMatch16Differential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	fp := make([]byte, 16)
	for trial := 0; trial < 2000; trial++ {
		for i := range fp {
			fp[i] = byte(rng.Intn(6))
		}
		b := byte(rng.Intn(6))
		if got, want := uint64(Match16(fp, b)), refMatch(fp, 16, b); got != want {
			t.Fatalf("Match16(%v, %d) = %#x, want %#x", fp, b, got, want)
		}
	}
}

func TestNextMatch(t *testing.T) {
	m := uint64(0b101001)
	var idxs []int
	for m != 0 {
		var i int
		i, m = NextMatch(m)
		idxs = append(idxs, i)
	}
	want := []int{0, 3, 5}
	if len(idxs) != len(want) {
		t.Fatalf("NextMatch walk = %v, want %v", idxs, want)
	}
	for i := range want {
		if idxs[i] != want[i] {
			t.Fatalf("NextMatch walk = %v, want %v", idxs, want)
		}
	}
}

// sortedKeys builds a sorted array with duplicates and boundary values
// mixed in.
func sortedKeys(rng *rand.Rand, n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		switch rng.Intn(10) {
		case 0:
			keys[i] = 0
		case 1:
			keys[i] = ^uint64(0)
		case 2:
			keys[i] = uint64(rng.Intn(4)) // force duplicates
		default:
			keys[i] = rng.Uint64()
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// probes returns the interesting search keys for a sorted array:
// every element, its neighbours, and the extremes.
func probes(rng *rand.Rand, keys []uint64) []uint64 {
	ps := []uint64{0, 1, ^uint64(0), ^uint64(0) - 1, rng.Uint64()}
	for _, k := range keys {
		ps = append(ps, k, k-1, k+1)
	}
	return ps
}

func TestBoundKernelsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, size := range classSizes {
		for trial := 0; trial < 20; trial++ {
			keys := sortedKeys(rng, size)
			// Every count from empty to full, including the clamping
			// paths (n < 0, n > len).
			for _, n := range []int{-1, 0, 1, size / 2, size - 1, size, size + 5} {
				eff := n
				if eff < 0 {
					eff = 0
				}
				if eff > size {
					eff = size
				}
				for _, k := range probes(rng, keys[:eff]) {
					if got, want := LowerBound(keys, n, k), refLowerBound(keys, eff, k); got != want {
						t.Fatalf("LowerBound(size %d, n %d, k %d) = %d, want %d", size, n, k, got, want)
					}
					if got, want := UpperBound(keys, n, k), refUpperBound(keys, eff, k); got != want {
						t.Fatalf("UpperBound(size %d, n %d, k %d) = %d, want %d", size, n, k, got, want)
					}
					if got, want := CountLess(keys, n, k), refLowerBound(keys, eff, k); got != want {
						t.Fatalf("CountLess(size %d, n %d, k %d) = %d, want %d", size, n, k, got, want)
					}
					if got, want := CountLessEq(keys, n, k), refUpperBound(keys, eff, k); got != want {
						t.Fatalf("CountLessEq(size %d, n %d, k %d) = %d, want %d", size, n, k, got, want)
					}
				}
			}
		}
	}
}

// TestCountKernelsUnsorted pins the count kernels' definition on
// arbitrary (unsorted, torn-read-shaped) input: they count, they do
// not assume order.
func TestCountKernelsUnsorted(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	keys := make([]uint64, 30)
	for trial := 0; trial < 200; trial++ {
		for i := range keys {
			keys[i] = uint64(rng.Intn(8))
		}
		k := uint64(rng.Intn(8))
		nl, ne := 0, 0
		for _, x := range keys {
			if x < k {
				nl++
			}
			if x <= k {
				ne++
			}
		}
		if got := CountLess(keys, len(keys), k); got != nl {
			t.Fatalf("CountLess unsorted = %d, want %d", got, nl)
		}
		if got := CountLessEq(keys, len(keys), k); got != ne {
			t.Fatalf("CountLessEq unsorted = %d, want %d", got, ne)
		}
	}
}

func TestByteBoundKernelsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, size := range classSizes {
		a := make([]byte, size)
		for trial := 0; trial < 50; trial++ {
			for i := range a {
				a[i] = byte(rng.Intn(10))
			}
			sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
			for _, n := range []int{-1, 0, 1, size / 2, size, size + 3} {
				eff := n
				if eff < 0 {
					eff = 0
				}
				if eff > size {
					eff = size
				}
				for b := 0; b < 12; b++ {
					if got, want := LowerBoundBytes(a, n, byte(b)), refLowerBoundBytes(a, eff, byte(b)); got != want {
						t.Fatalf("LowerBoundBytes(size %d, n %d, b %d) = %d, want %d", size, n, b, got, want)
					}
					if got, want := UpperBoundBytes(a, n, byte(b)), refUpperBoundBytes(a, eff, byte(b)); got != want {
						t.Fatalf("UpperBoundBytes(size %d, n %d, b %d) = %d, want %d", size, n, b, got, want)
					}
				}
			}
		}
	}
}

// TestBoundKernelsTornInput feeds unsorted garbage (what a torn racy
// read can produce) through the binary kernels and asserts only the
// memory-safety contract: results stay within [0, n].
func TestBoundKernelsTornInput(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	keys := make([]uint64, 254)
	bytesArr := make([]byte, 256)
	for trial := 0; trial < 500; trial++ {
		for i := range keys {
			keys[i] = rng.Uint64()
		}
		for i := range bytesArr {
			bytesArr[i] = byte(rng.Uint32())
		}
		n := rng.Intn(len(keys) + 1)
		k := rng.Uint64()
		b := byte(rng.Uint32())
		for _, got := range []int{
			LowerBound(keys, n, k), UpperBound(keys, n, k),
			CountLess(keys, n, k), CountLessEq(keys, n, k),
			LowerBoundBytes(bytesArr, n, b), UpperBoundBytes(bytesArr, n, b),
		} {
			if got < 0 || got > n {
				t.Fatalf("kernel returned %d outside [0, %d] on torn input", got, n)
			}
		}
	}
}

func TestPrefetchSafety(t *testing.T) {
	Prefetch(nil)
	x := uint64(42)
	Prefetch(unsafe.Pointer(&x))
	if x != 42 {
		t.Fatal("prefetch modified memory")
	}
}
