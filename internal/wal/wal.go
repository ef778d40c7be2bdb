package wal

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"optiql/internal/hist"
	"optiql/internal/obs"
)

// Config tunes one shard log. The zero value is normalized to the
// interval policy with production-shaped defaults.
type Config struct {
	// Policy is the ack rule: SyncAlways fsyncs before every batch ack,
	// SyncInterval acks on the group-commit fsync that covers the batch,
	// SyncOff acks immediately (the log still flushes on ticks and
	// fsyncs on segment seal and close, but a crash may lose a suffix).
	Policy string
	// Interval is the syncer's tick: the flush cadence of the off policy
	// and the bound on how long a fire-and-forget append (nil Committer)
	// stays buffered. Interval-policy acks do not wait for it: every
	// Commit wakes the syncer.
	Interval time.Duration
	// SegmentBytes seals and rotates the active segment once it grows
	// past this size.
	SegmentBytes int64
	// CheckpointBytes triggers a background checkpoint once this many
	// sealed-segment bytes accumulated since the last snapshot. Zero
	// disables size-triggered checkpoints (Checkpoint can still be
	// called directly). Requires Snapshot.
	CheckpointBytes int64
	// SyncQueueMax bounds ops appended but not yet durable under the
	// interval policy; past it Lagging reports true and the server sheds
	// writes with StatusOverloaded instead of queueing unbounded fsync
	// debt. Zero disables shedding.
	SyncQueueMax int
	// Snapshot streams the shard's live key/value pairs for a
	// checkpoint, in any order; nil disables checkpointing.
	Snapshot func(emit func(key, val uint64) error) error
	// SyncFile overrides fsync, for fault injection; nil means
	// (*os.File).Sync.
	SyncFile func(*os.File) error
	// Counters receives EvWal* events; nil disables counting.
	Counters *obs.Counters
	// Logf receives recovery and failure notices; nil discards them.
	Logf func(format string, args ...any)
}

func (c *Config) normalize() error {
	switch c.Policy {
	case "":
		c.Policy = SyncInterval
	case SyncAlways, SyncInterval, SyncOff:
	default:
		return fmt.Errorf("wal: unknown fsync policy %q (want %s|%s|%s)", c.Policy, SyncAlways, SyncInterval, SyncOff)
	}
	if c.Interval <= 0 {
		c.Interval = 2 * time.Millisecond
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 64 << 20
	}
	if c.SegmentBytes < segHdrSize+recHdrSize+recFixed {
		c.SegmentBytes = segHdrSize + recHdrSize + recFixed
	}
	if c.SyncFile == nil {
		c.SyncFile = (*os.File).Sync
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return nil
}

// Committer receives the deferred acknowledgement for one appended
// batch: err is nil once the batch is durable under the configured
// policy, non-nil if the log failed before that. Committed is called
// exactly once, from the log's syncer goroutine or the committing
// caller, and must not block.
type Committer interface {
	Committed(err error)
}

// ticket is one batch waiting for group commit.
type ticket struct {
	seq uint64
	n   int // ops in the batch, for the pending-ops gauge
	c   Committer
}

// ErrClosed is returned by appends and commits after Close.
var ErrClosed = errors.New("wal: log closed")

// Log is one shard's write-ahead log. Append and NoteApplied are
// single-caller at a time (the server serializes them under the
// shard's mutex), and Commit follows its own Append; Lagging, Err and
// Stats may be called from any goroutine; Close must not race
// Append/Commit.
type Log struct {
	dir string
	cfg Config

	// mu guards the append path: active file, buffered writer, encode
	// buffer, sequence allocation and rotation. Lock order: mu before
	// syncMu (rotation seals under both); never the reverse.
	mu       sync.Mutex
	f        *os.File
	w        *bufio.Writer
	enc      []byte // record encode buffer, capacity fixed at Open
	segStart uint64 // first sequence of the active segment
	segBytes int64  // bytes written to the active segment
	nextSeq  uint64
	closed   bool

	// syncMu serializes fsync against seal/close so a captured file
	// handle is never synced after it was closed.
	syncMu sync.Mutex

	appended atomic.Uint64 // last sequence written to the buffer
	durable  atomic.Uint64 // last sequence covered by an fsync
	applied  atomic.Uint64 // last sequence applied to the index

	// pendingOps is the interval-policy fsync debt in ops, the gauge
	// behind Lagging.
	pendingOps atomic.Int64

	// tmu guards the group-commit ticket queue. relScratch is release's
	// pop buffer and belongs to the one goroutine that releases.
	tmu        sync.Mutex
	tickets    []ticket
	relScratch []ticket

	// failed/errv: first unrecoverable append/fsync error; sticky. The
	// bool is the fast path, the mutex makes the error value safe.
	failed atomic.Bool
	emu    sync.Mutex
	errv   error

	notify chan struct{}
	stop   chan struct{}
	done   chan struct{}
	loop   bool // syncer goroutine started

	histMu    sync.Mutex
	fsyncHist hist.Histogram

	// Checkpoint state: last covered sequence, sealed bytes since, and
	// a single-flight guard for the background writer.
	ckptSeq     atomic.Uint64
	ckptPairs   atomic.Uint64
	bytesSince  atomic.Int64
	ckptRunning atomic.Bool
	ckptWG      sync.WaitGroup

	rec RecoveryStats

	// Monotonic stat counters (also mirrored into cfg.Counters).
	statRecs     atomic.Uint64
	statOps      atomic.Uint64
	statBytes    atomic.Uint64
	statSyncs    atomic.Uint64
	statRotate   atomic.Uint64
	statCkpt     atomic.Uint64
	statReclaim  atomic.Uint64
	statLagSheds atomic.Uint64
}

// Stats is a point-in-time snapshot of one log's counters and
// watermarks.
type Stats struct {
	AppendedRecords   uint64
	AppendedOps       uint64
	AppendedBytes     uint64
	Syncs             uint64
	Rotations         uint64
	Checkpoints       uint64
	SegmentsReclaimed uint64
	LagSheds          uint64
	AppendedSeq       uint64
	DurableSeq        uint64
	AppliedSeq        uint64
	PendingOps        int64
	CheckpointSeq     uint64
	CheckpointPairs   uint64
}

// Open creates dir if needed, recovers existing state (loading the
// newest valid checkpoint and replaying newer records through apply,
// truncating a torn tail in the last segment) and returns a log ready
// for appends, with a fresh active segment. apply is called
// synchronously during Open only.
func Open(dir string, cfg Config, apply func(seq uint64, ops []Op)) (*Log, RecoveryStats, error) {
	if err := cfg.normalize(); err != nil {
		return nil, RecoveryStats{}, err
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, RecoveryStats{}, fmt.Errorf("wal: %w", err)
	}
	l := &Log{
		dir:    dir,
		cfg:    cfg,
		enc:    make([]byte, 0, recHdrSize+maxRecSize),
		notify: make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	rec, err := l.recover(apply)
	if err != nil {
		return nil, rec, err
	}
	l.rec = rec
	l.nextSeq = rec.LastSeq + 1
	l.appended.Store(rec.LastSeq)
	l.durable.Store(rec.LastSeq)
	l.applied.Store(rec.LastSeq)
	l.ckptSeq.Store(rec.CheckpointSeq)
	l.ckptPairs.Store(rec.CheckpointPairs)
	l.bytesSince.Store(rec.liveBytes)
	if err := l.openSegment(l.nextSeq); err != nil {
		return nil, rec, err
	}
	if cfg.Policy != SyncAlways {
		l.loop = true
		go l.syncLoop()
	}
	return l, rec, nil
}

// openSegment creates the active segment for firstSeq and makes its
// directory entry durable. Caller holds mu or is Open.
func (l *Log) openSegment(firstSeq uint64) error {
	path := filepath.Join(l.dir, segName(firstSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o666)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if l.w == nil {
		l.w = bufio.NewWriterSize(f, 1<<16)
	} else {
		l.w.Reset(f)
	}
	hdr := make([]byte, 0, segHdrSize)
	hdr = append(hdr, segMagic...)
	hdr = appendU64(hdr, firstSeq)
	if _, err := l.w.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.segStart = firstSeq
	l.segBytes = segHdrSize
	return nil
}

// Append encodes ops as one record (splitting past maxOpsPerRecord),
// writes it to the active segment and returns the sequence of the last
// record written. The data is buffered, not yet durable: pair with
// Commit. Callers serialize Append with their applies and NoteApplied
// (the server holds the shard mutex across all three).
func (l *Log) Append(ops []Op) (uint64, error) {
	if len(ops) == 0 {
		return l.appended.Load(), nil
	}
	if l.failed.Load() {
		return 0, l.Err()
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	var last uint64
	for len(ops) > 0 {
		n := len(ops)
		if n > maxOpsPerRecord {
			n = maxOpsPerRecord
		}
		if err := l.appendOne(l.nextSeq, ops[:n]); err != nil {
			l.mu.Unlock()
			l.fail(err)
			return 0, err
		}
		last = l.nextSeq
		l.nextSeq++
		ops = ops[n:]
	}
	l.appended.Store(last)
	rotate := l.segBytes >= l.cfg.SegmentBytes
	var rerr error
	if rotate {
		rerr = l.rotateLocked()
	}
	l.mu.Unlock()
	if rerr != nil {
		l.fail(rerr)
		return 0, rerr
	}
	return last, nil
}

// appendOne writes one record under mu. Kept allocation-free: the
// encode buffer is pre-sized for a maximal record at Open.
//
//optiql:noalloc
func (l *Log) appendOne(seq uint64, ops []Op) error {
	l.enc = appendRecord(l.enc[:0], seq, ops)
	if _, err := l.w.Write(l.enc); err != nil {
		return err
	}
	l.segBytes += int64(len(l.enc))
	l.statRecs.Add(1)
	l.statOps.Add(uint64(len(ops)))
	l.statBytes.Add(uint64(len(l.enc)))
	if c := l.cfg.Counters; c != nil {
		c.Inc(obs.EvWalAppendRec)
		c.Add(obs.EvWalAppendOps, uint64(len(ops)))
	}
	return nil
}

// rotateLocked seals the active segment — flush, fsync, close — then
// opens its successor. Called with mu held; takes syncMu for the seal
// so a concurrent group-commit sync of the old handle is ordered
// before the close. Sealing fsyncs under every policy (including off):
// recovery's "corruption outside the last segment is fatal" rule
// depends on sealed segments being fully durable.
func (l *Log) rotateLocked() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	sealed := l.appended.Load()
	sealedBytes := l.segBytes
	l.syncMu.Lock()
	err := l.syncFile(l.f)
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	if err == nil && l.durable.Load() < sealed {
		l.durable.Store(sealed)
	}
	l.syncMu.Unlock()
	if err != nil {
		return err
	}
	l.statRotate.Add(1)
	if c := l.cfg.Counters; c != nil {
		c.Inc(obs.EvWalRotate)
	}
	if err := l.openSegment(sealed + 1); err != nil {
		return err
	}
	l.wake() // the seal moved the durable watermark; Committed must not run under mu
	l.maybeCheckpoint(sealedBytes)
	return nil
}

// syncFile runs the configured fsync and records its latency.
func (l *Log) syncFile(f *os.File) error {
	t0 := time.Now()
	err := l.cfg.SyncFile(f)
	d := time.Since(t0)
	l.histMu.Lock()
	l.fsyncHist.Record(uint64(d.Nanoseconds()))
	l.histMu.Unlock()
	l.statSyncs.Add(1)
	if c := l.cfg.Counters; c != nil {
		c.Inc(obs.EvWalSync)
	}
	return err
}

// Commit registers the acknowledgement for the batch that Append
// returned seq for, holding n ops. Under SyncAlways it fsyncs inline
// and acks before returning; under SyncOff it acks immediately; under
// SyncInterval it queues a ticket and wakes the group-commit syncer,
// which acks it after the fsync that covers seq.
// c may be nil (fire-and-forget append).
func (l *Log) Commit(seq uint64, n int, c Committer) {
	if c == nil {
		return
	}
	if err := l.Err(); err != nil {
		c.Committed(err)
		return
	}
	switch l.cfg.Policy {
	case SyncOff:
		// Ack immediately; the syncer's tick flushes buffered data to the
		// kernel within one Interval. Waking per commit would cost a
		// flush syscall per batch for a policy that promises nothing.
		c.Committed(nil)
	case SyncAlways:
		c.Committed(l.syncTo(seq))
	default: // SyncInterval
		if l.durable.Load() >= seq {
			c.Committed(nil)
			return
		}
		l.pendingOps.Add(int64(n))
		l.tmu.Lock()
		l.tickets = append(l.tickets, ticket{seq: seq, n: n, c: c})
		l.tmu.Unlock()
		// Wake after the enqueue: the syncer takes the token before it
		// reads the watermarks, so a ticket it missed finds a token waiting
		// and gets the next round.
		l.wake()
	}
}

// NoteApplied records that the batch at seq has been applied to the
// in-memory index. Checkpoints snapshot at this watermark; the caller
// must apply strictly in sequence order (the server applies under the
// shard mutex it appended under).
func (l *Log) NoteApplied(seq uint64) {
	if seq > l.applied.Load() {
		l.applied.Store(seq)
	}
}

// Lagging reports whether the interval-policy fsync debt exceeds the
// configured bound; the server sheds writes while true.
func (l *Log) Lagging() bool {
	return l.cfg.SyncQueueMax > 0 && l.cfg.Policy == SyncInterval &&
		l.pendingOps.Load() >= int64(l.cfg.SyncQueueMax)
}

// Err returns the sticky failure, or nil while the log is healthy.
func (l *Log) Err() error {
	if !l.failed.Load() {
		return nil
	}
	l.emu.Lock()
	defer l.emu.Unlock()
	return l.errv
}

// fail poisons the log with its first unrecoverable error and wakes the
// syncer to release every queued ticket with it. Writes fail from then
// on; the server keeps serving reads.
func (l *Log) fail(err error) {
	l.emu.Lock()
	first := l.errv == nil
	if first {
		l.errv = err
	}
	l.emu.Unlock()
	l.failed.Store(true)
	if first {
		l.cfg.Logf("wal: log failed, shedding writes: %v", err)
	}
	l.wake()
}

// wake hands the syncer a token without blocking; one pending token
// covers any number of wakes.
func (l *Log) wake() {
	select {
	case l.notify <- struct{}{}:
	default:
	}
}

// syncTo makes every record up to at least target durable. It flushes
// under mu, captures the active handle, and fsyncs outside mu under
// syncMu. If a rotation sealed the captured handle in between, the
// seal's own fsync already covered target (the sealed segment contains
// everything flushed here) and the durable watermark shows it, so the
// sync is skipped rather than touching a closed file.
func (l *Log) syncTo(target uint64) error {
	if l.durable.Load() >= target {
		return nil
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		err := l.Err()
		if err == nil {
			err = ErrClosed
		}
		return err
	}
	if err := l.w.Flush(); err != nil {
		l.mu.Unlock()
		l.fail(err)
		return err
	}
	flushed := l.appended.Load()
	f := l.f
	l.mu.Unlock()

	l.syncMu.Lock()
	if l.durable.Load() < target {
		if err := l.syncFile(f); err != nil {
			l.syncMu.Unlock()
			l.fail(err)
			return err
		}
		if l.durable.Load() < flushed {
			l.durable.Store(flushed)
		}
	}
	l.syncMu.Unlock()
	return nil
}

// release acks every queued ticket covered by the durable watermark —
// or all of them, with the sticky error, once the log failed. Tickets
// queue in sequence order, so this pops a prefix. Tickets have one
// releaser, the syncer (Close takes over after stopping it): everyone
// else wakes it, so the scratch the callbacks run from is never popped
// into by a second goroutine.
func (l *Log) release() {
	err := l.Err()
	d := l.durable.Load()
	l.tmu.Lock()
	n := 0
	for ; n < len(l.tickets); n++ {
		if err == nil && l.tickets[n].seq > d {
			break
		}
	}
	if n == 0 {
		l.tmu.Unlock()
		return
	}
	batch := append(l.relScratch[:0], l.tickets[:n]...)
	rest := copy(l.tickets, l.tickets[n:])
	for i := rest; i < len(l.tickets); i++ {
		l.tickets[i] = ticket{}
	}
	l.tickets = l.tickets[:rest]
	l.relScratch = batch
	l.tmu.Unlock()
	for i := range batch {
		l.pendingOps.Add(int64(-batch[i].n))
		batch[i].c.Committed(err)
	}
}

// syncLoop is the syncer: the group-commit engine of the interval
// policy and the tick flusher of the off policy. One rule paces group
// commit: a woken syncer yields the processor once, then syncs
// everything appended, and goes round again if a wake arrived
// meanwhile. The yield is the batching window and it sizes itself: on
// an idle process it returns at once, on a busy one the runnable
// connection goroutines run first and their commits join the group.
func (l *Log) syncLoop() {
	defer close(l.done)
	tick := time.NewTicker(l.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-l.notify:
			runtime.Gosched()
		case <-tick.C:
		}
		if a := l.appended.Load(); a > l.durable.Load() && !l.failed.Load() {
			if l.cfg.Policy == SyncOff {
				l.flushOnly()
			} else {
				l.syncTo(a)
			}
		}
		l.release()
	}
}

// flushOnly pushes buffered records to the kernel without fsync (the
// SyncOff tick): crash loses at most what the OS had not written, kill
// -9 alone loses nothing older than a tick.
func (l *Log) flushOnly() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	err := l.w.Flush()
	l.mu.Unlock()
	if err != nil {
		l.fail(err)
	}
}

// Checkpoint writes a snapshot now (see checkpoint.go) and reclaims
// covered segments. Safe to call concurrently with appends; no-op
// without a Snapshot source.
func (l *Log) Checkpoint() error {
	return l.checkpoint()
}

// maybeCheckpoint starts a background checkpoint once enough sealed
// bytes accumulated. Called under mu (from rotation).
func (l *Log) maybeCheckpoint(sealedBytes int64) {
	if l.cfg.Snapshot == nil || l.cfg.CheckpointBytes <= 0 {
		return
	}
	if l.bytesSince.Add(sealedBytes) < l.cfg.CheckpointBytes {
		return
	}
	if !l.ckptRunning.CompareAndSwap(false, true) {
		return
	}
	l.ckptWG.Add(1)
	go func() {
		defer l.ckptWG.Done()
		defer l.ckptRunning.Store(false)
		if err := l.checkpoint(); err != nil {
			l.cfg.Logf("wal: checkpoint failed: %v", err)
		}
	}()
}

// Close seals the log: flushes, fsyncs (under every policy — a
// graceful shutdown must leave no torn tail), closes the active
// segment and releases any queued tickets. Append/Commit callers must
// have stopped; Close is idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		l.ckptWG.Wait()
		return l.Err()
	}
	l.closed = true
	ferr := l.w.Flush()
	f := l.f
	sealed := l.appended.Load()
	l.mu.Unlock()

	if l.loop {
		close(l.stop)
		<-l.done
	}
	l.ckptWG.Wait()

	l.syncMu.Lock()
	err := ferr
	if err == nil {
		err = l.syncFile(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil && l.durable.Load() < sealed {
		l.durable.Store(sealed)
	}
	l.syncMu.Unlock()
	if err != nil {
		l.fail(err)
	}
	l.release()
	return l.Err()
}

// Stats snapshots the log's counters and watermarks.
func (l *Log) Stats() Stats {
	return Stats{
		AppendedRecords:   l.statRecs.Load(),
		AppendedOps:       l.statOps.Load(),
		AppendedBytes:     l.statBytes.Load(),
		Syncs:             l.statSyncs.Load(),
		Rotations:         l.statRotate.Load(),
		Checkpoints:       l.statCkpt.Load(),
		SegmentsReclaimed: l.statReclaim.Load(),
		LagSheds:          l.statLagSheds.Load(),
		AppendedSeq:       l.appended.Load(),
		DurableSeq:        l.durable.Load(),
		AppliedSeq:        l.applied.Load(),
		PendingOps:        l.pendingOps.Load(),
		CheckpointSeq:     l.ckptSeq.Load(),
		CheckpointPairs:   l.ckptPairs.Load(),
	}
}

// Recovery returns the stats of the Open-time recovery pass.
func (l *Log) Recovery() RecoveryStats { return l.rec }

// NoteShed counts one write shed because the log lagged (the server
// calls this when Lagging made it answer StatusOverloaded).
func (l *Log) NoteShed() {
	l.statLagSheds.Add(1)
	if c := l.cfg.Counters; c != nil {
		c.Inc(obs.EvWalLagShed)
	}
}

// FsyncHist merges this log's fsync latency histogram into dst.
func (l *Log) FsyncHist(dst *hist.Histogram) {
	l.histMu.Lock()
	dst.Merge(&l.fsyncHist)
	l.histMu.Unlock()
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// Policy returns the normalized fsync policy.
func (l *Log) Policy() string { return l.cfg.Policy }

// syncDir fsyncs a directory so renames and creates in it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

// listSegments returns the segment files in dir sorted by first
// sequence, verifying each name round-trips (malformed names are
// ignored rather than trusted).
func listSegments(dir string) ([]segInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segInfo
	for _, e := range ents {
		var first uint64
		if n, err := fmt.Sscanf(e.Name(), "wal-%016x.seg", &first); n != 1 || err != nil {
			continue
		}
		if e.Name() != segName(first) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		segs = append(segs, segInfo{firstSeq: first, name: e.Name(), size: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	return segs, nil
}

type segInfo struct {
	firstSeq uint64
	name     string
	size     int64
}

// appendU64 appends v big-endian; local shorthand for the segment
// header (record encoding lives in record.go).
func appendU64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
