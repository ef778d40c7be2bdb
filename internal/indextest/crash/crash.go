// Crash harness: a kill-9 oracle for the durable server.
//
// The test binary re-execs itself as a child daemon (CrashChildMain,
// selected by the OPTIQL_CRASH_CHILD env var from TestMain), so the
// supervisor can SIGKILL a real process — not a goroutine — at seeded
// random points while oracle workers write through wire.ReconnClient.
// After every kill the supervisor restarts the daemon on the same WAL
// directory and checks each key against the admissible-state model:
//
//   - baseline: the key's last acknowledged write. Acked writes are
//     durable under the always/interval policies; losing one is the
//     bug this harness exists to catch.
//   - pending: writes issued after the baseline whose acknowledgement
//     never arrived (connection died, daemon killed). Each may or may
//     not have been applied; the server applies a key's ops in issue
//     order, so the recovered state must equal the baseline or the
//     state after exactly one pending op.
//
// Values encode (key, per-key op index), so a half-applied or
// misrouted record — a phantom — surfaces as a value that was never
// issued for that key, not as a silently plausible one.
//
// Kill points are not aimed: with the tiny segments and checkpoint
// thresholds the harness configures, the daemon rotates segments and
// checkpoints many times per second under load, so seeded random kill
// times land mid-batch, mid-fsync, mid-checkpoint and mid-rotation
// across the cycle budget.
package crash

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"optiql/internal/server"
	"optiql/internal/server/wire"
)

// CrashChildEnv selects child mode in TestMain.
const CrashChildEnv = "OPTIQL_CRASH_CHILD"

// CrashChildMain runs the daemon side of the harness: a durable
// server configured from CRASH_* env vars, serving until killed (or
// draining gracefully on SIGTERM). It never returns.
func CrashChildMain() {
	geti := func(name string, def int) int {
		if v := os.Getenv(name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				childFatal(fmt.Errorf("bad %s=%q: %v", name, v, err))
			}
			return n
		}
		return def
	}
	cfg := server.Config{
		Addr:               "127.0.0.1:0",
		Index:              os.Getenv("CRASH_INDEX"),
		Scheme:             os.Getenv("CRASH_SCHEME"),
		WALDir:             os.Getenv("CRASH_WAL"),
		Fsync:              os.Getenv("CRASH_FSYNC"),
		WALSegmentBytes:    int64(geti("CRASH_SEG", 8<<10)),
		WALCheckpointBytes: int64(geti("CRASH_CKPT", 32<<10)),
		WALLogf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "crash-child: "+format+"\n", args...)
		},
	}
	srv, err := server.New(cfg)
	if err != nil {
		childFatal(err)
	}
	rec := srv.WALRecovery()
	bound, err := srv.Listen()
	if err != nil {
		childFatal(err)
	}
	// The parent parses these two lines; keep their shape.
	fmt.Printf("CRASH_CHILD_RECOVERY records=%d ops=%d ckpt=%d torn=%d\n",
		rec.RecordsReplayed, rec.OpsReplayed, rec.CheckpointPairs, rec.TornRecords)
	fmt.Printf("CRASH_CHILD_READY addr=%s\n", bound)
	os.Stdout.Sync()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve() }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM)
	select {
	case err := <-errc:
		childFatal(err)
	case <-sig:
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := srv.Shutdown(ctx)
		cancel()
		if err != nil {
			childFatal(fmt.Errorf("drain: %w", err))
		}
		fmt.Println("CRASH_CHILD_DRAINED")
		os.Exit(0)
	}
}

func childFatal(err error) {
	fmt.Printf("CRASH_CHILD_FATAL %v\n", err)
	os.Exit(1)
}

// CrashRecovery is the child's parsed startup recovery line.
type CrashRecovery struct {
	Records, Ops, CheckpointPairs, Torn uint64
}

// Supervisor owns one child daemon: start, await readiness, SIGKILL,
// SIGTERM-drain, restart on the same WAL directory.
type Supervisor struct {
	t      testing.TB
	env    []string
	cmd    *exec.Cmd
	out    *bufio.Scanner
	outRaw io.ReadCloser

	mu   sync.Mutex
	addr string

	// Recovery is the child's recovery line from the latest Start.
	Recovery CrashRecovery
}

// NewSupervisor prepares (but does not start) a child daemon serving
// index kind with the given WAL dir and fsync policy.
func NewSupervisor(t testing.TB, kind, scheme, walDir, fsyncPolicy string) *Supervisor {
	return &Supervisor{
		t: t,
		env: append(os.Environ(),
			CrashChildEnv+"=1",
			"CRASH_INDEX="+kind,
			"CRASH_SCHEME="+scheme,
			"CRASH_WAL="+walDir,
			"CRASH_FSYNC="+fsyncPolicy,
		),
	}
}

// Addr returns the child's current listen address (it changes across
// restarts; workers dial through this).
func (s *Supervisor) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addr
}

// Start launches the child and blocks until it reports ready,
// recording its recovery stats.
func (s *Supervisor) Start() {
	s.t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = s.env
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		s.t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		s.t.Fatal(err)
	}
	s.cmd, s.outRaw = cmd, out
	s.out = bufio.NewScanner(out)
	// Watchdog: a child that hangs before READY would block Scan
	// forever; killing it unblocks the pipe.
	watchdog := time.AfterFunc(20*time.Second, func() { cmd.Process.Kill() })
	defer watchdog.Stop()
	for s.out.Scan() {
		line := s.out.Text()
		switch {
		case strings.HasPrefix(line, "CRASH_CHILD_RECOVERY "):
			var r CrashRecovery
			if _, err := fmt.Sscanf(line, "CRASH_CHILD_RECOVERY records=%d ops=%d ckpt=%d torn=%d",
				&r.Records, &r.Ops, &r.CheckpointPairs, &r.Torn); err != nil {
				s.t.Fatalf("bad recovery line %q: %v", line, err)
			}
			s.Recovery = r
		case strings.HasPrefix(line, "CRASH_CHILD_READY addr="):
			s.mu.Lock()
			s.addr = strings.TrimPrefix(line, "CRASH_CHILD_READY addr=")
			s.mu.Unlock()
			// Drain the rest of the child's stdout in the background so a
			// chatty child never blocks on a full pipe.
			go func() {
				for s.out.Scan() {
				}
			}()
			return
		case strings.HasPrefix(line, "CRASH_CHILD_FATAL"):
			s.t.Fatalf("child failed to start: %s", line)
		}
	}
	s.t.Fatalf("child never reported ready (scan err: %v)", s.out.Err())
}

// Kill SIGKILLs the child — the crash under test — and reaps it.
func (s *Supervisor) Kill() {
	s.t.Helper()
	if err := s.cmd.Process.Kill(); err != nil {
		s.t.Fatalf("kill: %v", err)
	}
	s.cmd.Wait() // exit status is the signal; only reaping matters
	s.outRaw.Close()
	s.cmd = nil
}

// Drain SIGTERMs the child and waits for a clean exit (the graceful
// path: the daemon fsyncs and seals its logs before exiting).
func (s *Supervisor) Drain() {
	s.t.Helper()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.t.Fatalf("sigterm: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			s.t.Fatalf("child drain exit: %v", err)
		}
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		s.t.Fatal("child never drained after SIGTERM")
	}
	s.outRaw.Close()
	s.cmd = nil
}

// Stop kills the child if one is still running (cleanup path).
func (s *Supervisor) Stop() {
	if s.cmd != nil && s.cmd.Process != nil {
		s.cmd.Process.Kill()
		s.cmd.Wait()
		s.outRaw.Close()
		s.cmd = nil
	}
}

// crashOp is one issued write in a key's pending window.
type crashOp struct {
	del bool
	val uint64 // put payload; encodes (key, index)
}

// keyOracle is one key's admissible-state model.
type keyOracle struct {
	key     uint64
	nextIdx uint64
	// baseline: last acknowledged state.
	present bool
	baseVal uint64
	// pending: issued-after-baseline writes with unknown fate, in
	// issue order.
	pend []crashOp
}

// val encodes op index i of this key so phantoms are distinguishable.
func (k *keyOracle) val(i uint64) uint64 { return k.key<<32 | i }

// admissible checks an observed GET result against the model.
func (k *keyOracle) admissible(found bool, v uint64) bool {
	if found {
		if k.present && v == k.baseVal {
			return true
		}
		for _, op := range k.pend {
			if !op.del && op.val == v {
				return true
			}
		}
		return false
	}
	if !k.present {
		return true
	}
	for _, op := range k.pend {
		if op.del {
			return true
		}
	}
	return false
}

// rebaseline folds a verified observation into the model: the
// recovered state was replayed from the log, so it is durable and
// becomes the new baseline; the pending window resolves.
func (k *keyOracle) rebaseline(found bool, v uint64) {
	k.present, k.baseVal = found, v
	k.pend = k.pend[:0]
}

// CrashOracleConfig sizes one crash/recover campaign.
type CrashOracleConfig struct {
	Index  string
	Scheme string
	Fsync  string
	// Cycles is the SIGKILL/recover count (CRASH_CYCLES env overrides).
	Cycles int
	// Workers each own Keys/Workers keys (striped by key % Workers).
	Workers int
	Keys    int
	Seed    uint64
}

// RunCrashOracle is the harness entry point: Cycles times, it lets
// Workers hammer the child through ReconnClients, SIGKILLs it at a
// seeded random moment mid-load, restarts it on the same WAL dir and
// verifies every key's recovered state is admissible.
func RunCrashOracle(t *testing.T, cfg CrashOracleConfig) {
	if v := os.Getenv("CRASH_CYCLES"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad CRASH_CYCLES=%q", v)
		}
		cfg.Cycles = n
	}
	sup := NewSupervisor(t, cfg.Index, cfg.Scheme, t.TempDir(), cfg.Fsync)
	defer sup.Stop()
	sup.Start()

	oracles := make([]*keyOracle, cfg.Keys)
	for i := range oracles {
		oracles[i] = &keyOracle{key: uint64(i)}
	}
	rng := crashRng{s: cfg.Seed | 1}

	// Worker lifecycle: run <- resume, ack -> parked at a safe point
	// (no op in flight). Workers only touch their own stripe; the
	// supervisor only touches oracle state while every worker is parked.
	type gate struct {
		resume chan struct{}
		parked chan struct{}
	}
	gates := make([]gate, cfg.Workers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		gates[w] = gate{resume: make(chan struct{}), parked: make(chan struct{})}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rc := &wire.ReconnClient{
				DialFunc:   func(string) (net.Conn, error) { return net.Dial("tcp", sup.Addr()) },
				Timeout:    2 * time.Second,
				MaxRetries: 2,
				BackoffMin: time.Millisecond,
				BackoffMax: 5 * time.Millisecond,
				Seed:       cfg.Seed + uint64(w)*0x9E3779B97F4A7C15,
			}
			defer rc.Close()
			g := gates[w]
			mine := make([]*keyOracle, 0, cfg.Keys/cfg.Workers+1)
			for i := w; i < cfg.Keys; i += cfg.Workers {
				mine = append(mine, oracles[i])
			}
			pos := 0
			// Workers start parked; the supervisor's resume/park calls
			// alternate with the sends below from here on.
			select {
			case <-g.resume:
			case <-stop:
				return
			}
			for {
				select {
				case <-stop:
					return
				case g.parked <- struct{}{}:
					// Supervisor owns the oracle state until resume.
					select {
					case <-g.resume:
					case <-stop:
						return
					}
				default:
					k := mine[pos%len(mine)]
					pos++
					idx := k.nextIdx
					k.nextIdx++
					op := crashOp{del: idx%7 == 6, val: k.val(idx)}
					var req wire.Request
					if op.del {
						req = wire.Del(k.key)
					} else {
						req = wire.Put(k.key, op.val)
					}
					resp, err := rc.Do(req)
					switch {
					case err == nil && (resp.Status == wire.StatusOK || resp.Status == wire.StatusNotFound):
						// Acked: applied and fsync-policy durable.
						if op.del {
							k.rebaseline(false, 0)
						} else {
							k.rebaseline(true, op.val)
						}
					case err == nil && resp.Status == wire.StatusOverloaded:
						// Shed before append: definitely not applied.
					default:
						// Connection died or the server errored mid-write:
						// fate unknown until the next verification pass.
						k.pend = append(k.pend, op)
					}
				}
			}
		}(w)
	}
	park := func() {
		for _, g := range gates {
			<-g.parked
		}
	}
	resume := func() {
		for _, g := range gates {
			g.resume <- struct{}{}
		}
	}

	verify := func(cycle int) {
		t.Helper()
		rc := &wire.ReconnClient{
			DialFunc: func(string) (net.Conn, error) { return net.Dial("tcp", sup.Addr()) },
			Timeout:  5 * time.Second,
			Seed:     cfg.Seed ^ 0xA5A5,
		}
		defer rc.Close()
		for _, k := range oracles {
			resp, err := rc.Do(wire.Get(k.key))
			if err != nil {
				t.Fatalf("cycle %d: verify get %d: %v", cycle, k.key, err)
			}
			found := resp.Status == wire.StatusOK
			if !found && resp.Status != wire.StatusNotFound {
				t.Fatalf("cycle %d: verify get %d: status %d", cycle, k.key, resp.Status)
			}
			if !k.admissible(found, resp.Value) {
				t.Fatalf("cycle %d: key %d recovered to inadmissible state (found=%v val=%#x): baseline present=%v val=%#x, %d pending",
					cycle, k.key, found, resp.Value, k.present, k.baseVal, len(k.pend))
			}
			k.rebaseline(found, resp.Value)
		}
	}

	var torn uint64
	for cycle := 1; cycle <= cfg.Cycles; cycle++ {
		resume()
		// Seeded kill point, wide enough to land mid-batch, mid-fsync,
		// mid-rotation and mid-checkpoint across the campaign.
		time.Sleep(time.Duration(10+rng.next()%110) * time.Millisecond)
		sup.Kill()
		park()
		sup.Start()
		torn += sup.Recovery.Torn
		verify(cycle)
	}
	close(stop)
	wg.Wait()
	t.Logf("%d cycles survived: last recovery replayed %d records / %d ops (+%d checkpoint pairs); %d torn tails truncated in total",
		cfg.Cycles, sup.Recovery.Records, sup.Recovery.Ops, sup.Recovery.CheckpointPairs, torn)
}

// crashRng is the harness's seeded splitmix64 stream.
type crashRng struct{ s uint64 }

func (r *crashRng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	x := r.s
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
