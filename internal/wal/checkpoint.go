package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"optiql/internal/obs"
)

// Checkpoint file layout (ckpt-%016x.ck, named by covered sequence):
//
//	ckptMagic(8) seq(8) pair{N: key(8) val(8)} count(8) crc(4)
//
// crc is CRC32C over everything before it. The pair count rides in a
// trailer (not the header) so the writer streams the snapshot through
// the checksum without seeking; the reader has the file size and
// cross-checks the trailer against it. Files are written to a temp
// name, fsynced, renamed into place and the directory synced, so a
// crash mid-checkpoint leaves either the old snapshot or the new one,
// never a half-written file under a checkpoint name.

const ckptFixed = 8 + 8 + 8 + 4 // magic + seq + count + crc

// checkpoint snapshots the index at the applied watermark, installs
// the snapshot, then reclaims fully covered segments and superseded
// snapshots. The snapshot is fuzzy in ARIES style: the scan runs
// concurrently with appends, but every record at or below the captured
// sequence is already applied when the scan starts, and replaying the
// idempotent PUT/DELETE records above it converges the index, so
// (snapshot, records > seq) reproduces exactly the logged state.
func (l *Log) checkpoint() error {
	if l.cfg.Snapshot == nil {
		return nil
	}
	seq := l.applied.Load()
	if seq == 0 || seq <= l.ckptSeq.Load() {
		return nil
	}

	tmp := filepath.Join(l.dir, "ckpt.tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o666)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	h := crc32.New(castagnoli)
	out := io.MultiWriter(bw, h)

	var scratch [16]byte
	copy(scratch[:8], ckptMagic)
	binary.BigEndian.PutUint64(scratch[8:], seq)
	_, werr := out.Write(scratch[:16])
	var pairs uint64
	if werr == nil {
		werr = l.cfg.Snapshot(func(key, val uint64) error {
			binary.BigEndian.PutUint64(scratch[:8], key)
			binary.BigEndian.PutUint64(scratch[8:], val)
			if _, err := out.Write(scratch[:16]); err != nil {
				return err
			}
			pairs++
			return nil
		})
	}
	if werr == nil {
		binary.BigEndian.PutUint64(scratch[:8], pairs)
		_, werr = out.Write(scratch[:8])
	}
	if werr == nil {
		binary.BigEndian.PutUint32(scratch[:4], h.Sum32())
		_, werr = bw.Write(scratch[:4]) // crc is not part of its own coverage
	}
	if werr == nil {
		werr = bw.Flush()
	}
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: write checkpoint: %w", werr)
	}
	final := filepath.Join(l.dir, ckptName(seq))
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: install checkpoint: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}

	prev := l.ckptSeq.Swap(seq)
	l.ckptPairs.Store(pairs)
	l.statCkpt.Add(1)
	if c := l.cfg.Counters; c != nil {
		c.Inc(obs.EvWalCheckpoint)
	}
	l.cfg.Logf("wal: checkpoint at seq %d (%d pairs)", seq, pairs)
	return l.reclaim(prev, seq)
}

// reclaim deletes sealed segments wholly covered by the PREVIOUS
// checkpoint (prev) and checkpoint files older than it, then re-seeds
// the size trigger with the volume not covered by the new checkpoint
// (seq). Retaining the newest two checkpoints — and every segment the
// older one needs — keeps recovery sound if the newest snapshot turns
// out unreadable: the fallback checkpoint still has its full record
// suffix on disk.
func (l *Log) reclaim(prev, seq uint64) error {
	l.mu.Lock()
	active := l.segStart
	l.mu.Unlock()

	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	var live int64
	for i, s := range segs {
		reclaimable := i+1 < len(segs) && segs[i+1].firstSeq <= prev+1
		if reclaimable && s.firstSeq != active {
			if err := os.Remove(filepath.Join(l.dir, s.name)); err != nil {
				return fmt.Errorf("wal: reclaim segment: %w", err)
			}
			l.statReclaim.Add(1)
			if c := l.cfg.Counters; c != nil {
				c.Inc(obs.EvWalSegReclaim)
			}
			continue
		}
		coveredByNew := i+1 < len(segs) && segs[i+1].firstSeq <= seq+1
		if s.firstSeq != active && !coveredByNew {
			live += s.size
		}
	}
	l.bytesSince.Store(live)

	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	for _, e := range ents {
		var cs uint64
		if n, err := fmt.Sscanf(e.Name(), "ckpt-%016x.ck", &cs); n == 1 && err == nil && e.Name() == ckptName(cs) && cs < prev {
			if err := os.Remove(filepath.Join(l.dir, e.Name())); err != nil {
				return fmt.Errorf("wal: reclaim checkpoint: %w", err)
			}
		}
	}
	return syncDir(l.dir)
}

// loadLatestCheckpoint finds the newest structurally valid checkpoint,
// feeds its pairs to apply (as PUTs at the checkpoint sequence) and
// returns its sequence and pair count. Invalid snapshot files — a
// crash can leave a stale temp file, but a renamed-in checkpoint
// should never be bad — are skipped with a notice, falling back to the
// next older one; with none valid, recovery replays from the log head.
func (l *Log) loadLatestCheckpoint(apply func(seq uint64, ops []Op)) (seq, pairs uint64, discarded int, err error) {
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("wal: %w", err)
	}
	var cands []uint64
	for _, e := range ents {
		var cs uint64
		if n, err := fmt.Sscanf(e.Name(), "ckpt-%016x.ck", &cs); n == 1 && err == nil && e.Name() == ckptName(cs) {
			cands = append(cands, cs)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] > cands[j] })
	for _, cs := range cands {
		path := filepath.Join(l.dir, ckptName(cs))
		n, lerr := loadCheckpointFile(path, cs, apply)
		if lerr == nil {
			return cs, n, discarded, nil
		}
		discarded++
		l.cfg.Logf("wal: discarding checkpoint %s: %v", ckptName(cs), lerr)
	}
	return 0, 0, discarded, nil
}

// loadCheckpointFile validates one snapshot file end-to-end before
// applying anything: pairs reach the index only after the trailer CRC
// held, so a bad snapshot cannot half-apply.
func loadCheckpointFile(path string, wantSeq uint64, apply func(seq uint64, ops []Op)) (uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	if len(data) < ckptFixed {
		return 0, fmt.Errorf("file too short (%d bytes)", len(data))
	}
	if string(data[:8]) != ckptMagic {
		return 0, fmt.Errorf("bad magic")
	}
	body := data[:len(data)-4]
	crc := binary.BigEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, castagnoli) != crc {
		return 0, fmt.Errorf("checksum mismatch")
	}
	seq := binary.BigEndian.Uint64(data[8:16])
	if seq != wantSeq {
		return 0, fmt.Errorf("header seq %d disagrees with name", seq)
	}
	count := binary.BigEndian.Uint64(body[len(body)-8:])
	pairBytes := len(data) - ckptFixed
	if pairBytes < 0 || pairBytes%16 != 0 || uint64(pairBytes/16) != count {
		return 0, fmt.Errorf("trailer count %d disagrees with %d pair bytes", count, pairBytes)
	}
	pairs := data[16 : 16+pairBytes]
	ops := make([]Op, 0, maxOpsPerRecord)
	for len(pairs) > 0 {
		ops = append(ops, Op{
			Op:  OpPut,
			Key: binary.BigEndian.Uint64(pairs[:8]),
			Val: binary.BigEndian.Uint64(pairs[8:16]),
		})
		pairs = pairs[16:]
		if len(ops) == maxOpsPerRecord || len(pairs) == 0 {
			apply(seq, ops)
			ops = ops[:0]
		}
	}
	return count, nil
}
