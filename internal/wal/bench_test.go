package wal

import (
	"fmt"
	"os"
	"syscall"
	"testing"
	"time"
)

// slotAck is the benchmark's Committer: an ack frees one in-flight slot.
type slotAck chan struct{}

func (s slotAck) Committed(error) { <-s }

// BenchmarkGroupCommit measures the pacing rule without a daemon: one
// appender (a writing connection's role) keeps K single-op batches in
// flight against an fsync of fixed latency and never gets further ahead
// than K acks. K=1 is latency-bound traffic and pays one fsync per op;
// at K=32 and K=2048 the commits that arrive during an fsync share the
// next one, so ns/op falls as ops/fsync rises.
func BenchmarkGroupCommit(b *testing.B) {
	ts := syscall.NsecToTimespec(int64(100 * time.Microsecond))
	for _, k := range []int{1, 32, 2048} {
		b.Run(fmt.Sprintf("inflight=%d", k), func(b *testing.B) {
			l, _, err := Open(b.TempDir(), Config{
				Policy:   SyncInterval,
				SyncFile: func(*os.File) error { return syscall.Nanosleep(&ts, nil) },
			}, func(uint64, []Op) {})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			slots := make(slotAck, k)
			ops := putBatch(0, 1)
			syncs0 := l.Stats().Syncs
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				slots <- struct{}{}
				seq, err := l.Append(ops)
				if err != nil {
					b.Fatal(err)
				}
				l.Commit(seq, 1, slots)
			}
			for i := 0; i < k; i++ { // drain: every slot free means every op acked
				slots <- struct{}{}
			}
			b.StopTimer()
			if syncs := l.Stats().Syncs - syncs0; syncs > 0 {
				b.ReportMetric(float64(b.N)/float64(syncs), "ops/fsync")
			}
		})
	}
}
