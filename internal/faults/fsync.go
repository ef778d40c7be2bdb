package faults

import (
	"os"
	"sync/atomic"
	"time"
)

// Storage-side fault injection for the durability path: hooks matching
// the wal.Config.SyncFile seam (and server.Config.WALSyncFile above
// it), so tests can model a throttled or dying disk the same way the
// net.Conn wrappers model a faulty network. IsInjected recognizes the
// errors these hooks produce.

// SlowSync returns an fsync hook that sleeps d before every real sync —
// an overloaded or write-cache-throttled disk. The WAL's group-commit
// queue backs up behind it, which is how the backpressure tests force
// StatusOverloaded shedding deterministically.
func SlowSync(d time.Duration) func(*os.File) error {
	return func(f *os.File) error {
		time.Sleep(d)
		return f.Sync()
	}
}

// FailSyncAfter returns an fsync hook that performs n real syncs and
// then fails every subsequent one — a disk that drops dead mid-run.
// The first failure poisons the log (writes shed, reads keep serving),
// so n positions the death precisely in a test's timeline. The hook is
// safe to share across logs; the budget is global, not per-log.
func FailSyncAfter(n int) func(*os.File) error {
	var used atomic.Int64
	return func(f *os.File) error {
		if used.Add(1) > int64(n) {
			return &errInjected{kind: "fsync failure", temp: false}
		}
		return f.Sync()
	}
}
