package locks

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"optiql/internal/core"
	"optiql/internal/obs/trace"
)

// TestTraceLockSpans drives the traced acquire paths of every scheme
// that records lock-wait spans, with concurrent workers and a live
// snapshot scraper, so the CI -race run covers record-vs-scrape on
// real lock traffic (not just the synthetic trace package tests).
func TestTraceLockSpans(t *testing.T) {
	for _, name := range []string{"OptiQL", "OptiQL-AOR", "OptLock", "MCS-RW"} {
		t.Run(name, func(t *testing.T) {
			tr := trace.New(trace.Config{SampleEvery: 1, BufCap: 256, TopK: 8})
			l := MustByName(name).NewLock()
			pool := core.NewPool(64)
			const workers = 4
			const iters = 1500
			var wg sync.WaitGroup
			stop := make(chan struct{})
			go func() {
				for {
					select {
					case <-stop:
						return
					default:
					}
					_ = tr.Snapshot()
				}
			}()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					c := NewCtx(pool, 8)
					defer c.Close()
					c.SetTrace(tr.NewBuf(w))
					if c.Trace() == nil {
						t.Error("Trace() lost the buffer")
						return
					}
					for i := 0; i < iters; i++ {
						tok := l.AcquireEx(c)
						l.CloseWindow(tok)
						l.ReleaseEx(c, tok)
						if st, ok := l.AcquireSh(c); ok {
							l.ReleaseSh(c, st)
						}
						c.TraceRestart(uint64(i % 7))
					}
				}(w)
			}
			wg.Wait()
			close(stop)
			snap := tr.Snapshot()
			if want := uint64(workers * iters); snap.Wait.Count() != want {
				t.Fatalf("lock-wait histogram count = %d, want %d (every acquire sampled)", snap.Wait.Count(), want)
			}
			if len(snap.Nodes) == 0 {
				t.Fatal("no hot nodes: LockWait must feed the node sketch")
			}
			if len(snap.Keys) == 0 {
				t.Fatal("no hot keys: TraceRestart must feed the key sketch")
			}
			var buf bytes.Buffer
			if err := tr.WriteChrome(&buf); err != nil {
				t.Fatal(err)
			}
			if !json.Valid(buf.Bytes()) {
				t.Fatal("chrome export invalid")
			}
		})
	}
}

// TestTraceDisabledIsFree checks the disabled path stays allocation
// free and records nothing: a Ctx without SetTrace must behave exactly
// as before this subsystem existed.
func TestTraceDisabledNoop(t *testing.T) {
	pool := core.NewPool(8)
	c := NewCtx(pool, 4)
	defer c.Close()
	l := MustByName("OptiQL").NewLock()
	allocs := testing.AllocsPerRun(1000, func() {
		tok := l.AcquireEx(c)
		l.ReleaseEx(c, tok)
		c.TraceRestart(1)
	})
	if allocs != 0 {
		t.Fatalf("untraced lock path allocates: %v allocs/op", allocs)
	}
}
