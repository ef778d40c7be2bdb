package crash

import (
	"net"
	"os"
	"testing"
	"time"

	"optiql/internal/indextest"
	"optiql/internal/server/wire"
)

// TestMain is the re-exec hook: when the supervisor launches this
// test binary with the crash-child env var set, it becomes the daemon
// under test instead of running the test list.
func TestMain(m *testing.M) {
	if os.Getenv(CrashChildEnv) == "1" {
		CrashChildMain()
		return
	}
	os.Exit(m.Run())
}

// crashScheme picks the lock scheme for the child daemon: optimistic
// reads are racy by design, so race builds run the pessimistic
// baseline over the same structural code (see SkipIfOptimisticRace).
func crashScheme() string {
	if indextest.RaceEnabled {
		return "MCS-RW"
	}
	return "OptiQL"
}

// TestCrashOracle is the kill-9 campaign of ISSUE 8: 13 seeded
// SIGKILL/recover cycles per index (26 total) under concurrent write
// load, each followed by an admissible-state check of every key. A
// lost acked write, a resurrected deleted key or a phantom value
// fails the cycle that observes it. CRASH_CYCLES overrides the
// per-index cycle count (the CI smoke job runs fewer).
func TestCrashOracle(t *testing.T) {
	cycles := 13
	if testing.Short() {
		cycles = 3
	}
	for _, tc := range []struct{ kind, fsync string }{
		{"btree", "interval"},
		{"art", "always"},
	} {
		t.Run(tc.kind+"/"+tc.fsync, func(t *testing.T) {
			RunCrashOracle(t, CrashOracleConfig{
				Index:   tc.kind,
				Scheme:  crashScheme(),
				Fsync:   tc.fsync,
				Cycles:  cycles,
				Workers: 4,
				Keys:    64,
				Seed:    0x0851 ^ uint64(len(tc.kind)),
			})
		})
	}
}

// TestShutdownSealsWAL asserts the graceful path: a SIGTERM drain
// fsyncs and seals the segments, so the restart replays every write
// with zero torn-tail truncations.
func TestShutdownSealsWAL(t *testing.T) {
	sup := NewSupervisor(t, "btree", crashScheme(), t.TempDir(), "interval")
	defer sup.Stop()
	sup.Start()

	rc := &wire.ReconnClient{
		DialFunc: func(string) (net.Conn, error) { return net.Dial("tcp", sup.Addr()) },
		Timeout:  5 * time.Second,
		Seed:     1,
	}
	const n = 500
	for i := uint64(0); i < n; i++ {
		resp, err := rc.Do(wire.Put(i, i+1))
		if err != nil || resp.Status != wire.StatusOK {
			t.Fatalf("put %d: %+v %v", i, resp, err)
		}
	}
	rc.Close()
	sup.Drain()

	sup.Start()
	if sup.Recovery.Torn != 0 {
		t.Fatalf("SIGTERM drain left %d torn records", sup.Recovery.Torn)
	}
	if sup.Recovery.Ops+sup.Recovery.CheckpointPairs < n {
		t.Fatalf("restart recovered only %d ops + %d checkpoint pairs, want >= %d",
			sup.Recovery.Ops, sup.Recovery.CheckpointPairs, n)
	}
	rc2 := &wire.ReconnClient{
		DialFunc: func(string) (net.Conn, error) { return net.Dial("tcp", sup.Addr()) },
		Timeout:  5 * time.Second,
		Seed:     2,
	}
	defer rc2.Close()
	for i := uint64(0); i < n; i++ {
		resp, err := rc2.Do(wire.Get(i))
		if err != nil || resp.Status != wire.StatusOK || resp.Value != i+1 {
			t.Fatalf("key %d after drain+restart = %+v %v", i, resp, err)
		}
	}
}
