package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// LiveSource is the bridge between a running benchmark and the HTTP
// endpoint: the driver publishes getter functions when the measured
// phase starts, and the handlers sample them on every scrape. The zero
// value serves zeros until Set is called; all methods are safe for
// concurrent use.
type LiveSource struct {
	mu       sync.Mutex
	snapshot func() Snapshot
	ops      func() uint64
	// contention builds the /debug/contention report from the run's
	// tracer; nil (or a nil return) means tracing is off.
	contention func() *ContentionReport
	// wal builds the /debug/wal report from the server's log;
	// nil (or a nil return) means the run has no write-ahead log.
	wal     func() *WALReport
	started time.Time
	// last scrape state, for the instantaneous-throughput gauge.
	lastOps  uint64
	lastTime time.Time
}

// Set publishes the live getters: snapshot merges the run's counter
// registry and ops returns cumulative completed operations. Either may
// be nil (the corresponding metric serves zero).
func (s *LiveSource) Set(snapshot func() Snapshot, ops func() uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snapshot = snapshot
	s.ops = ops
	s.started = time.Now()
	s.lastOps = 0
	s.lastTime = s.started
}

// SetContention publishes the contention-report getter backing
// /debug/contention. Independent of Set so a driver can publish either
// without the other; nil unpublishes.
func (s *LiveSource) SetContention(fn func() *ContentionReport) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.contention = fn
}

// SetWAL publishes the durability-report getter backing /debug/wal.
// Independent of Set; nil unpublishes.
func (s *LiveSource) SetWAL(fn func() *WALReport) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wal = fn
}

// walHandler serves the write-ahead log's live view as indented JSON;
// {"enabled":false} when the run has no WAL.
func (s *LiveSource) walHandler(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	fn := s.wal
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	var rep *WALReport
	if fn != nil {
		rep = fn()
	}
	if rep == nil {
		fmt.Fprintln(w, `{"enabled":false}`)
		return
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(rep)
}

// contentionHandler serves the contention profiler's live view as
// indented JSON; {"enabled":false} when no tracer is attached.
func (s *LiveSource) contentionHandler(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	fn := s.contention
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	var rep *ContentionReport
	if fn != nil {
		rep = fn()
	}
	if rep == nil {
		fmt.Fprintln(w, `{"enabled":false}`)
		return
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(rep)
}

// sample reads the current snapshot, cumulative ops and the
// instantaneous throughput (Mops) since the previous sample.
func (s *LiveSource) sample() (snap Snapshot, ops uint64, mops float64, uptime time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	if s.snapshot != nil {
		snap = s.snapshot()
	}
	if s.ops != nil {
		ops = s.ops()
	}
	if !s.started.IsZero() {
		uptime = now.Sub(s.started)
		if dt := now.Sub(s.lastTime).Seconds(); dt > 0 && ops >= s.lastOps {
			mops = float64(ops-s.lastOps) / dt / 1e6
		}
	}
	s.lastOps = ops
	s.lastTime = now
	return snap, ops, mops, uptime
}

// metricsHandler renders the Prometheus text exposition format
// (version 0.0.4): one counter family for lock/index events, plus
// cumulative ops, an instantaneous throughput gauge and uptime.
func (s *LiveSource) metricsHandler(w http.ResponseWriter, _ *http.Request) {
	snap, ops, mops, uptime := s.sample()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprintf(w, "# HELP optiql_lock_events_total Lock and index events by type.\n")
	fmt.Fprintf(w, "# TYPE optiql_lock_events_total counter\n")
	for e := Event(0); e < NumEvents; e++ {
		fmt.Fprintf(w, "optiql_lock_events_total{event=%q} %d\n", e.Name(), snap.Counts[e])
	}
	fmt.Fprintf(w, "# HELP optiql_ops_total Completed index/lock operations.\n")
	fmt.Fprintf(w, "# TYPE optiql_ops_total counter\n")
	fmt.Fprintf(w, "optiql_ops_total %d\n", ops)
	fmt.Fprintf(w, "# HELP optiql_throughput_mops Throughput since the previous scrape, in Mops.\n")
	fmt.Fprintf(w, "# TYPE optiql_throughput_mops gauge\n")
	fmt.Fprintf(w, "optiql_throughput_mops %g\n", mops)
	fmt.Fprintf(w, "# HELP optiql_uptime_seconds Seconds since the live source was published.\n")
	fmt.Fprintf(w, "# TYPE optiql_uptime_seconds gauge\n")
	fmt.Fprintf(w, "optiql_uptime_seconds %g\n", uptime.Seconds())
}

// expvarPublish guards the process-global expvar name against double
// publication (expvar.Publish panics on duplicates); expvarSrc is the
// source the published Func reads, so the latest NewMux call wins.
var (
	expvarPublish sync.Once
	expvarSrc     atomic.Pointer[LiveSource]
)

// NewMux builds the observability mux: Prometheus-text /metrics,
// expvar under /debug/vars and the full pprof suite under
// /debug/pprof/. It also publishes the counter snapshot as the expvar
// "optiql_counters" (once per process; the latest mux's source wins).
func NewMux(src *LiveSource) *http.ServeMux {
	expvarSrc.Store(src)
	expvarPublish.Do(func() {
		expvar.Publish("optiql_counters", expvar.Func(func() any {
			cur := expvarSrc.Load()
			if cur == nil {
				return map[string]uint64{}
			}
			snap, ops, _, _ := cur.sample()
			m := snap.Map()
			out := make(map[string]uint64, len(m)+1)
			// Deterministic key set: all events plus ops.
			keys := make([]string, 0, len(m))
			for k := range m {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				out[k] = m[k]
			}
			out["ops"] = ops
			return out
		}))
	})
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", src.metricsHandler)
	mux.HandleFunc("/debug/contention", src.contentionHandler)
	mux.HandleFunc("/debug/wal", src.walHandler)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts the observability endpoint on addr (e.g. ":6060") in a
// background goroutine and returns the server and its bound address
// (useful with ":0"). Shut it down with srv.Close / srv.Shutdown.
func Serve(addr string, src *LiveSource) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: NewMux(src)}
	go srv.Serve(ln)
	return srv, ln.Addr(), nil
}
