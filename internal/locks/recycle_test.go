package locks

import (
	"testing"

	"optiql/internal/core"
)

// TestBumpOnReuseInvalidatesStaleTokens pins the node-recycling safety
// argument (recycle.go): a reader whose shared token predates a node's
// reuse must fail validation, for every optimistic scheme. This is the
// invariant the recycle analyzer enforces at Recycler.Get sites; the
// test is its dynamic counterpart.
func TestBumpOnReuseInvalidatesStaleTokens(t *testing.T) {
	for name, s := range schemes {
		if !s.Optimistic {
			continue
		}
		t.Run(name, func(t *testing.T) {
			pool := core.NewPool(8)
			c := newCtx(t, pool)
			l := s.NewLock()

			tok, ok := l.AcquireSh(c)
			if !ok {
				t.Fatal("AcquireSh on an idle lock failed")
			}
			BumpOnReuse(l)
			if l.ReleaseSh(c, tok) {
				t.Fatal("stale token validated after BumpOnReuse")
			}

			// A token taken after the bump validates normally.
			tok, ok = l.AcquireSh(c)
			if !ok {
				t.Fatal("AcquireSh after bump failed")
			}
			if !l.ReleaseSh(c, tok) {
				t.Fatal("fresh token failed validation")
			}
		})
	}
}

// TestBumpOnReuseSkipsHeldLock pins the skip-if-locked contract: the
// holder's own release bumps the version, so BumpOnReuse must neither
// spin nor corrupt the held word.
func TestBumpOnReuseSkipsHeldLock(t *testing.T) {
	pool := core.NewPool(8)
	c := newCtx(t, pool)
	var l OptLock
	tok := l.AcquireEx(c)
	before := l.Word()
	BumpOnReuse(&l)
	if w := l.Word(); w != before {
		t.Fatalf("BumpOnReuse changed a held word: %#x -> %#x", before, w)
	}
	l.ReleaseEx(c, tok)
	if _, ok := l.AcquireSh(c); !ok {
		t.Fatal("lock unusable after release")
	}
}

// TestBumpOnReusePessimisticNoop pins that pessimistic locks, which
// never hand out stale snapshots, are accepted unchanged.
func TestBumpOnReusePessimisticNoop(t *testing.T) {
	for name, s := range schemes {
		if s.Optimistic || !s.SharedMode {
			continue
		}
		t.Run(name, func(t *testing.T) {
			pool := core.NewPool(8)
			c := newCtx(t, pool)
			l := s.NewLock()
			BumpOnReuse(l) // must not panic
			tok, ok := l.AcquireSh(c)
			if !ok {
				t.Fatal("AcquireSh failed")
			}
			if !l.ReleaseSh(c, tok) {
				t.Fatal("pessimistic ReleaseSh reported failure")
			}
		})
	}
}

// TestRecyclerRoundTrip pins the Ctx fast path and slot takeover: a
// node Put with the owning Ctx comes back from Get, and a slot taken
// over by a different Recycler drops the old owner's nodes rather than
// handing one class's node to the other. The recycled values here are
// plain test structs with no lock, so the recycle analyzer's
// bump-before-reuse rule does not apply.
func TestRecyclerRoundTrip(t *testing.T) {
	pool := core.NewPool(8)
	c := newCtx(t, pool)
	r := NewRecycler()

	type nodeA struct{ v int }
	n := &nodeA{v: 42}
	r.Put(c, n)
	//optiqlvet:ignore recycle the pooled values are lockless test structs; there is no version to bump
	got, _ := r.Get(c).(*nodeA)
	if got != n {
		t.Fatalf("Get = %v, want the node just Put", got)
	}
	//optiqlvet:ignore recycle the pooled values are lockless test structs; there is no version to bump
	if x := r.Get(c); x != nil {
		t.Fatalf("empty recycler Get = %v, want nil", x)
	}

	// Force both recyclers onto the same Ctx slot: the second Put
	// takes the slot over, and neither class ever sees the other's node.
	type nodeB struct{ v int }
	r2 := NewRecycler()
	r2.slot = r.slot
	r.Put(c, &nodeA{v: 1})
	r2.Put(c, &nodeB{v: 2})
	//optiqlvet:ignore recycle the pooled values are lockless test structs; there is no version to bump
	if x, ok := r2.Get(c).(*nodeB); !ok || x.v != 2 {
		t.Fatalf("class B Get = %v, want the *nodeB just Put", x)
	}
	//optiqlvet:ignore recycle the pooled values are lockless test structs; there is no version to bump
	if x := r.Get(c); x != nil {
		t.Fatalf("class A Get after takeover = %v, want nil", x)
	}
	//optiqlvet:ignore recycle the pooled values are lockless test structs; there is no version to bump
	if x := r2.Get(c); x != nil {
		t.Fatalf("class B Get on a drained slot = %v, want nil", x)
	}

	// Without a Ctx nothing is cached.
	r.Put(nil, &nodeA{v: 3})
	//optiqlvet:ignore recycle the pooled values are lockless test structs; there is no version to bump
	if x := r.Get(nil); x != nil {
		t.Fatalf("Get(nil) = %v, want nil", x)
	}
}

// TestRecyclerReuseStaysOnWorker pins that node reuse never crosses
// workers: a node Put on one Ctx is never returned by Get on another,
// whether the first Ctx is still open, has overflowed its slot, or has
// been closed. A freed node therefore only ever comes back to the
// goroutine that freed it.
func TestRecyclerReuseStaysOnWorker(t *testing.T) {
	pool := core.NewPool(8)
	a, b := NewCtx(pool, 0), newCtx(t, pool)
	r := NewRecycler()

	type node struct{ v int }
	for i := 0; i < recycleDepth; i++ {
		r.Put(a, &node{v: i})
	}
	//optiqlvet:ignore recycle the pooled values are lockless test structs; there is no version to bump
	if x := r.Get(b); x != nil {
		t.Fatalf("Get on another Ctx = %v, want nil", x)
	}
	a.Close()
	for i := 0; i < recycleDepth; i++ {
		//optiqlvet:ignore recycle the pooled values are lockless test structs; there is no version to bump
		if x := r.Get(b); x != nil {
			t.Fatalf("Get on another Ctx after Close = %v, want nil", x)
		}
	}

	// A Put past a full slot is not parked anywhere another Ctx sees.
	for i := 0; i <= recycleDepth; i++ {
		r.Put(b, &node{v: i})
	}
	//optiqlvet:ignore recycle the pooled values are lockless test structs; there is no version to bump
	if x := r.Get(newCtx(t, pool)); x != nil {
		t.Fatalf("Get on another Ctx after overflow = %v, want nil", x)
	}
}
