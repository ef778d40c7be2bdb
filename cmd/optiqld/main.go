// Command optiqld serves an OptiQL index substrate as a TCP key-value
// service (GET / PUT / DELETE / SCAN / BATCH over the length-prefixed
// binary protocol of internal/server/wire): one index that every
// connection reads and writes, and with -wal one log.
//
// Examples:
//
//	optiqld -addr :4440 -index art -scheme OptiQL
//	optiqld -addr :4440 -obs :6060          # live /metrics while serving
//	optiqld -addr :4440 -wal /var/lib/optiql/wal -fsync interval
//
// With -wal the daemon is durable: writes are acknowledged only after
// the fsync policy admits them, and a restart replays the log (plus
// the latest checkpoint) back into the index before serving.
//
// Drive it with the load generator:
//
//	indexbench -net 127.0.0.1:4440 -threads 8 -mix balanced -duration 5s
//
// SIGINT/SIGTERM trigger a graceful shutdown: accepting stops, every
// admitted request is answered and the log is sealed before
// the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"optiql/internal/faults"
	"optiql/internal/obs"
	"optiql/internal/obs/trace"
	"optiql/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", ":4440", "TCP listen address")
		index    = flag.String("index", "btree", "btree|art")
		scheme   = flag.String("scheme", "OptiQL", "lock scheme (locks.ByName)")
		_        = flag.Int("shards", 0, "ignored: the daemon serves one index (accepted so older command lines still start)")
		nodeSize = flag.Int("nodesize", 256, "B+-tree node size in bytes")
		obsAddr  = flag.String("obs", "", "serve live /metrics, /debug/vars and /debug/pprof on this address (e.g. :6060)")
		drain    = flag.Duration("drain", 10*time.Second, "graceful shutdown timeout")
		readTO   = flag.Duration("read-timeout", 0, "per-frame read deadline; idle/slow-loris connections are reaped (0 disables)")
		writeTO  = flag.Duration("write-timeout", 0, "per-response write deadline; non-reading peers are dropped (0 disables)")
		chaos    = flag.String("chaos", "", "fault-injection spec, e.g. 'reset=0.01,latency=0.05:100us-1ms,corrupt=0.001,seed=7' (see internal/faults)")
		trc      = flag.String("trace", "", "write a Chrome trace_event JSON (load in Perfetto / chrome://tracing) to this path at shutdown")
		sample   = flag.Int("sample", 0, "trace sampling interval, 1-in-N requests (0 = default 1024 when -trace is set; also enables /debug/contention without -trace)")
		walDir   = flag.String("wal", "", "write-ahead-log directory; enables durability + crash recovery (empty = in-memory only)")
		fsync    = flag.String("fsync", "interval", "fsync policy: always (ack after an fsync per record), interval (ack on the group-commit fsync that covers the record), off (OS decides)")
		fsyncInt = flag.Duration("fsync-interval", 0, "syncer tick: flush cadence of -fsync off; interval-policy acks do not wait for it (0 = wal default 2ms)")
		walSeg   = flag.Int64("wal-segment", 0, "segment rotation size in bytes (0 = wal default 64MiB)")
		walCkpt  = flag.Int64("wal-checkpoint", 0, "sealed bytes between checkpoints (0 = wal default; checkpoints bound replay and reclaim segments)")
		walQueue = flag.Int("wal-queue", 0, "max appended-but-unsynced ops before writes shed OVERLOADED (interval policy; 0 = no shedding)")
	)
	flag.Parse()

	var chaosCfg *faults.Config
	if *chaos != "" {
		cfg, err := faults.Parse(*chaos)
		if err != nil {
			fatal(err)
		}
		chaosCfg = &cfg
	}
	var traceCfg *trace.Config
	if *trc != "" || *sample > 0 {
		traceCfg = &trace.Config{SampleEvery: *sample}
	}
	srv, err := server.New(server.Config{
		Addr:         *addr,
		Index:        *index,
		Scheme:       *scheme,
		NodeSize:     *nodeSize,
		ReadTimeout:  *readTO,
		WriteTimeout: *writeTO,
		Chaos:        chaosCfg,
		Trace:        traceCfg,

		WALDir:             *walDir,
		Fsync:              *fsync,
		FsyncInterval:      *fsyncInt,
		WALSegmentBytes:    *walSeg,
		WALCheckpointBytes: *walCkpt,
		WALSyncQueueMax:    *walQueue,
		WALLogf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "optiqld: "+format+"\n", args...)
		},
	})
	if err != nil {
		fatal(err)
	}
	if *walDir != "" {
		// The recovery line is a stable marker the crash harness and the
		// CI smoke script parse; keep its shape if you edit it.
		rec := srv.WALRecovery()
		fmt.Printf("optiqld: wal recovery complete: %d records / %d ops replayed, %d checkpoint pairs, %d torn-tail truncations\n",
			rec.RecordsReplayed, rec.OpsReplayed, rec.CheckpointPairs, rec.TornRecords)
	}
	bound, err := srv.Listen()
	if err != nil {
		fatal(err)
	}
	if *obsAddr != "" {
		src := &obs.LiveSource{}
		srv.AttachLive(src)
		_, oaddr, err := obs.Serve(*obsAddr, src)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("observability endpoint on http://%s/metrics\n", oaddr)
	}
	fmt.Printf("optiqld serving %s/%s on %s\n", *index, *scheme, bound)
	if *walDir != "" {
		fmt.Printf("optiqld: durability on: wal=%s fsync=%s\n", *walDir, *fsync)
	}
	if chaosCfg != nil {
		fmt.Printf("optiqld: CHAOS MODE: injecting faults on every connection (%s)\n", *chaos)
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve() }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	var walRep *obs.WALReport
	select {
	case err := <-errc:
		if err != nil {
			fatal(err)
		}
	case got := <-sig:
		fmt.Printf("optiqld: %v, draining...\n", got)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		err := srv.Shutdown(ctx)
		cancel()
		if err != nil {
			fmt.Fprintln(os.Stderr, "optiqld: shutdown timed out:", err)
		}
		// The sealed log still reports, its final fsync included.
		walRep = srv.WALReport()
	}
	if *trc != "" {
		if tr := srv.Tracer(); tr != nil {
			f, err := os.Create(*trc)
			if err != nil {
				fatal(err)
			}
			if err := tr.WriteChrome(f); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("optiqld: trace written to %s (load in Perfetto or chrome://tracing)\n", *trc)
		}
	}
	st := srv.Stats()
	fmt.Printf("optiqld: served %d conns, %d ops (%d get / %d put / %d delete / %d scan, %d batches, %d errors), %d keys resident\n",
		st.Conns, st.Ops, st.Gets, st.Puts, st.Deletes, st.Scans, st.Batches, st.Errors, srv.Len())
	if st.Panics+st.Shed+st.Reaped > 0 {
		fmt.Printf("optiqld: resilience: %d panics recovered, %d writes shed, %d connections reaped\n",
			st.Panics, st.Shed, st.Reaped)
	}
	if inj := srv.FaultInjector(); inj != nil {
		fs := inj.Stats()
		fmt.Printf("optiqld: faults injected: %d total (%d latency, %d stall, %d short-write, %d fragment, %d reset, %d corrupt, %d accept-fail)\n",
			fs.Total(), fs.Latency, fs.Stall, fs.ShortWrite, fs.Fragment, fs.Reset, fs.Corrupt, fs.AcceptFail)
	}
	if walRep != nil {
		fmt.Printf("optiqld: wal: %d records / %d ops appended (%d bytes), %d fsyncs, %d rotations, %d checkpoints, %d segments reclaimed, %d writes shed\n",
			walRep.AppendedRecords, walRep.AppendedOps, walRep.AppendedBytes, walRep.Syncs,
			walRep.Rotations, walRep.Checkpoints, walRep.SegmentsReclaimed, walRep.LagSheds)
	}
	snap := srv.Counters()
	// ART writes acquire via read-to-write upgrades, the B+-tree via
	// direct exclusive acquires; print both so neither index looks idle.
	fmt.Printf("optiqld: lock events: %d validation failures, %d restarts, %d free / %d handover acquires, %d upgrades\n",
		snap.Get(obs.EvShValidateFail), snap.Get(obs.EvOpRestart),
		snap.Get(obs.EvExFree), snap.Get(obs.EvExHandover), snap.Get(obs.EvUpgradeOK))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "optiqld:", err)
	os.Exit(1)
}
