package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"optiql/internal/obs"
	"optiql/internal/server/wire"
)

// env locates what the served workloads need on disk.
type env struct {
	root    string // checkout root (holds BENCHMARK.json)
	scratch string // build outputs and temporary WAL dirs, inside the checkout
	outDir  string // traces and result files
	daemon  string // optiqld binary
}

// cleanups runs on every exit path: normal return, harness panic,
// SIGINT and SIGTERM. It kills children and removes temporary dirs.
var cleanups struct {
	sync.Mutex
	fns map[int]func()
	seq int
}

func onExit(fn func()) (cancel func()) {
	cleanups.Lock()
	defer cleanups.Unlock()
	if cleanups.fns == nil {
		cleanups.fns = map[int]func(){}
	}
	id := cleanups.seq
	cleanups.seq++
	cleanups.fns[id] = fn
	return func() {
		cleanups.Lock()
		delete(cleanups.fns, id)
		cleanups.Unlock()
	}
}

func runCleanups() {
	cleanups.Lock()
	fns := cleanups.fns
	cleanups.fns = nil
	cleanups.Unlock()
	for _, fn := range fns {
		fn()
	}
}

// handleSignals makes SIGINT/SIGTERM clean up before exiting.
func handleSignals() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		runCleanups()
		os.Exit(130)
	}()
}

// buildDaemon compiles cmd/optiqld once; compile time is in no metric.
func (e *env) buildDaemon() error {
	if e.daemon != "" {
		return nil
	}
	out := filepath.Join(e.scratch, "optiqld")
	cmd := exec.Command("go", "build", "-o", out, "./cmd/optiqld")
	cmd.Dir = e.root
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("build optiqld: %v\n%s", err, b)
	}
	e.daemon = out
	return nil
}

// daemon is one running optiqld child.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	obsAddr string
	walDir  string
	log     *bytes.Buffer
	cancel  func()
	waited  chan struct{}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startDaemon spawns optiqld (btree/OptiQL, 2 shards, GOMAXPROCS =
// workers) on free loopback ports and waits until it answers a GET.
// With walDir set it runs durable with the interval fsync policy.
func (e *env) startDaemon(workers int, walDir string) (*daemon, error) {
	var lastErr error
	for try := 0; try < 3; try++ {
		d, err := e.spawn(workers, walDir)
		if err == nil {
			return d, nil
		}
		lastErr = err // a port raced away, or the child died: try fresh ports
	}
	return nil, lastErr
}

func (e *env) spawn(workers int, walDir string) (*daemon, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	obsAddr, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", addr, "-index", "btree", "-scheme", "OptiQL", "-shards", "2", "-obs", obsAddr}
	if walDir != "" {
		args = append(args, "-wal", walDir, "-fsync", "interval")
	}
	d := &daemon{addr: addr, obsAddr: obsAddr, walDir: walDir, log: &bytes.Buffer{}, waited: make(chan struct{})}
	d.cmd = exec.Command(e.daemon, args...)
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(workers))
	d.cmd.Stdout, d.cmd.Stderr = d.log, d.log
	// If the harness dies without running its cleanups, the kernel
	// kills the child.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	d.cancel = onExit(d.kill)
	go func() {
		d.cmd.Wait()
		close(d.waited)
	}()
	if err := d.ready(10 * time.Second); err != nil {
		d.kill()
		return nil, fmt.Errorf("optiqld not ready on %s: %v\n%s", addr, err, d.log.String())
	}
	return d, nil
}

// ready dials and sends one GET until the daemon answers.
func (d *daemon) ready(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var lastErr error
	for time.Now().Before(deadline) {
		select {
		case <-d.waited:
			return fmt.Errorf("daemon exited: %v", lastErr)
		default:
		}
		c, err := dialConn(d.addr)
		if err == nil {
			c.nc.SetDeadline(time.Now().Add(2 * time.Second))
			_, err = c.roundTrip(wire.Get(1))
			c.close()
			if err == nil {
				return nil
			}
		}
		lastErr = err
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("timeout: %v", lastErr)
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill stops the child at once (SIGKILL) and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.waited
	d.cancel()
}

// stop asks for a graceful drain (SIGTERM), waits, and kills on
// timeout.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.waited:
		d.cancel()
	case <-time.After(15 * time.Second):
		d.kill()
	}
}

// tempDir makes a directory under scratch that is removed on every
// exit path.
func (e *env) tempDir(prefix string) (dir string, remove func(), err error) {
	dir, err = os.MkdirTemp(e.scratch, prefix)
	if err != nil {
		return "", nil, err
	}
	cancel := onExit(func() { os.RemoveAll(dir) })
	return dir, func() { os.RemoveAll(dir); cancel() }, nil
}

var scrapeClient = &http.Client{Timeout: 2 * time.Second}

func (d *daemon) scrape(path string) ([]byte, error) {
	resp, err := scrapeClient.Get("http://" + d.obsAddr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// scrapeMetrics reads /metrics into lock-event counts by name plus
// optiql_ops_total under "ops".
func (d *daemon) scrapeMetrics() (map[string]float64, error) {
	b, err := d.scrape("/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		if ev, ok := strings.CutPrefix(name, `optiql_lock_events_total{event="`); ok {
			out[strings.TrimSuffix(ev, `"}`)] = v
		} else if name == "optiql_ops_total" {
			out["ops"] = v
		}
	}
	if _, ok := out["ops"]; !ok {
		return nil, fmt.Errorf("/metrics has no optiql_ops_total")
	}
	return out, nil
}

func (d *daemon) scrapeWAL() (*obs.WALReport, error) {
	b, err := d.scrape("/debug/wal")
	if err != nil {
		return nil, err
	}
	var rep obs.WALReport
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, err
	}
	if !rep.Enabled {
		return nil, fmt.Errorf("/debug/wal reports no WAL")
	}
	return &rep, nil
}

// procStat is a /proc view of one process.
type procStat struct {
	user, sys float64 // CPU seconds
	ctxsw     float64 // voluntary context switches over all threads
	rssMiB    float64
}

const clockTick = 100 // USER_HZ on Linux

func readProc(pid int) (procStat, error) {
	var ps procStat
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(b[bytes.LastIndexByte(b, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return ps, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	ps.user, ps.sys = ut/clockTick, st/clockTick

	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	for _, t := range tasks {
		ps.ctxsw += statusField(t, "voluntary_ctxt_switches:")
	}
	ps.rssMiB = statusField(fmt.Sprintf("/proc/%d/status", pid), "VmRSS:") / 1024
	return ps, nil
}

// statusField returns the first number after key in a /proc status
// file, 0 when missing.
func statusField(path, key string) float64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseFloat(f[0], 64)
				return v
			}
		}
	}
	return 0
}

// systemIdle is idle+iowait CPU seconds over all CPUs.
func systemIdle() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 6 {
		return 0
	}
	idle, _ := strconv.ParseFloat(f[4], 64)
	iowait, _ := strconv.ParseFloat(f[5], 64)
	return (idle + iowait) / clockTick
}
