package core

import (
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestQNodeStaysOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(QNode{}); got != 64 {
		t.Fatalf("QNode is %d bytes, want exactly one 64-byte cache line", got)
	}
}

func TestNewPoolBounds(t *testing.T) {
	for _, n := range []int{0, -1, MaxQNodes + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewPool(%d) did not panic", n)
				}
			}()
			NewPool(n)
		}()
	}
	if p := NewPool(MaxQNodes); p.Cap() != MaxQNodes {
		t.Fatalf("Cap = %d", p.Cap())
	}
}

func TestPoolExhaustion(t *testing.T) {
	p := NewPool(3)
	var got []*QNode
	for i := 0; i < 3; i++ {
		q, ok := p.TryGet()
		if !ok {
			t.Fatalf("TryGet %d failed with free nodes", i)
		}
		got = append(got, q)
	}
	if _, ok := p.TryGet(); ok {
		t.Fatal("TryGet succeeded on exhausted pool")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Get on exhausted pool did not panic")
			}
		}()
		p.Get()
	}()
	for _, q := range got {
		p.Put(q)
	}
	if _, ok := p.TryGet(); !ok {
		t.Fatal("TryGet failed after Put")
	}
}

func TestPoolIDsAndTranslation(t *testing.T) {
	p := NewPool(8)
	seen := map[uint32]bool{}
	var qs []*QNode
	for i := 0; i < 8; i++ {
		q := p.Get()
		if seen[q.ID()] {
			t.Fatalf("duplicate ID %d", q.ID())
		}
		seen[q.ID()] = true
		if p.At(q.ID()) != q {
			t.Fatal("At(ID) did not translate back")
		}
		if q.Pool() != p {
			t.Fatal("Pool backref wrong")
		}
		qs = append(qs, q)
	}
	for _, q := range qs {
		p.Put(q)
	}
}

func TestPoolForeignPut(t *testing.T) {
	p1, p2 := NewPool(2), NewPool(2)
	q := p1.Get()
	defer p1.Put(q)
	defer func() {
		if recover() == nil {
			t.Fatal("foreign Put did not panic")
		}
	}()
	p2.Put(q)
}

// TestPoolConcurrentGetPut stresses the tagged Treiber freelist: no
// node may ever be handed to two holders at once.
func TestPoolConcurrentGetPut(t *testing.T) {
	const goroutines, iters = 8, 5000
	p := NewPool(goroutines) // tight: every node constantly cycles
	var wg sync.WaitGroup
	holders := make([]int32, p.Cap())
	var mu sync.Mutex
	fail := false
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q := p.Get()
				mu.Lock()
				holders[q.ID()]++
				if holders[q.ID()] != 1 {
					fail = true
				}
				holders[q.ID()]--
				mu.Unlock()
				p.Put(q)
			}
		}()
	}
	wg.Wait()
	if fail {
		t.Fatal("a queue node was held by two goroutines at once")
	}
}

// Property: get/put sequences never lose capacity.
func TestPoolCapacityConserved(t *testing.T) {
	p := NewPool(4)
	f := func(ops []bool) bool {
		var held []*QNode
		for _, get := range ops {
			if get {
				if q, ok := p.TryGet(); ok {
					held = append(held, q)
				}
			} else if len(held) > 0 {
				p.Put(held[len(held)-1])
				held = held[:len(held)-1]
			}
		}
		for _, q := range held {
			p.Put(q)
		}
		// All 4 nodes must be retrievable again.
		var all []*QNode
		for i := 0; i < 4; i++ {
			q, ok := p.TryGet()
			if !ok {
				return false
			}
			all = append(all, q)
		}
		if _, ok := p.TryGet(); ok {
			return false
		}
		for _, q := range all {
			p.Put(q)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
