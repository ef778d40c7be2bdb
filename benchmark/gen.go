package main

import (
	"math"
	"math/bits"
)

// rng is splitmix64: the benchmark's only source of randomness, so a
// seed fixes every input.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// below returns a uniform value in [0, n).
func (r *rng) below(n uint64) uint64 {
	hi, _ := bits.Mul64(r.next(), n)
	return hi
}

// dist draws 0-based key ranks; rank r is key r+1 (dense keys).
type dist interface{ next(r *rng) uint64 }

type uniform struct{ n uint64 }

func (d uniform) next(r *rng) uint64 { return r.below(d.n) }

// selfSimilar is Gray et al.'s self-similar distribution as the
// paper's section 7.1 uses it: a share 1-h of the draws falls on the
// first share h of the keys, recursively.
type selfSimilar struct {
	n   float64
	exp float64
}

func newSelfSimilar(n uint64, h float64) selfSimilar {
	return selfSimilar{n: float64(n), exp: math.Log(h) / math.Log(1-h)}
}

func (d selfSimilar) next(r *rng) uint64 {
	k := uint64(d.n * math.Pow(r.float(), d.exp))
	if k >= uint64(d.n) {
		k = uint64(d.n) - 1
	}
	return k
}

// zipf is the YCSB zipfian generator (Gray et al.), rank 0 hottest.
type zipf struct {
	n                  float64
	theta, alpha, zeta float64
	eta, half          float64
}

func newZipf(n uint64, theta float64) zipf {
	z := zipf{n: float64(n), theta: theta, alpha: 1 / (1 - theta)}
	for i := uint64(1); i <= n; i++ {
		z.zeta += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + 1/math.Pow(2, theta)
	z.half = 1 + math.Pow(0.5, theta)
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - zeta2/z.zeta)
	return z
}

func (z zipf) next(r *rng) uint64 {
	u := r.float()
	uz := u * z.zeta
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	k := uint64(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= uint64(z.n) {
		k = uint64(z.n) - 1
	}
	return k
}

func newDist(s *spec, records int) dist {
	n := uint64(records)
	switch s.dist {
	case "selfsimilar":
		return newSelfSimilar(n, s.skew)
	case "zipf":
		return newZipf(n, s.skew)
	}
	return uniform{n}
}

// genRing fills one worker's operation stream: op kind in the top
// bits, key in the low 48. With striping, write keys are moved onto
// the worker's residue class so no two connections write one key.
func genRing(s *spec, d dist, records, length int, seed uint64, worker, workers int) []uint64 {
	r := &rng{s: seed*0x9E3779B97F4A7C15 + uint64(worker+1)*0xD1B54A32D192ED03}
	ring := make([]uint64, length)
	for i := range ring {
		u := int(r.below(100))
		op := 0
		for u >= s.mix[op] {
			op++
		}
		rank := d.next(r)
		if s.striped && (op == opUpdate || op == opInsert || op == opDelete) {
			rank = rank - rank%uint64(workers) + uint64(worker)
			if rank >= uint64(records) {
				rank -= uint64(workers)
			}
		}
		ring[i] = uint64(op)<<opShift | (rank + 1)
	}
	return ring
}
