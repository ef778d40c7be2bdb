// Package wal implements the per-shard append-only write-ahead log
// behind optiqld's durability: a connection appends one
// CRC32C-checksummed record per request per shard, clients are
// acknowledged only once the configured fsync policy admits the
// record, and startup replays the log (from the latest checkpoint
// snapshot) back into the index, truncating a torn tail and refusing
// corrupt mid-log records.
//
// On-disk layout, all integers big-endian:
//
//	segment  = segMagic(8) firstSeq(8) record*
//	record   = crc(4) size(4) seq(8) count(4) op{count}
//	op       = 0x01 key(8) val(8)   PUT
//	         | 0x02 key(8)          DELETE
//
// size counts the bytes after the size field (seq + count + ops); crc
// is CRC32C (Castagnoli) over the size field and everything it counts,
// so a record is validated — and therefore replayed — all or nothing.
// Segments are named wal-%016x.seg by the sequence of their first
// record; a segment is sealed with an fsync before its successor is
// created, which is what licenses the recovery rule "a decode failure
// in the last segment is a torn tail, anywhere else it is corruption".
//
// Checkpoint snapshots (ckpt-%016x.ck, see checkpoint.go) bound replay:
// recovery loads the newest valid snapshot and replays only records
// with seq greater than its sequence.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Fsync policies, in decreasing order of promise. See Config.Policy.
const (
	SyncAlways   = "always"   // fsync before acking every batch
	SyncInterval = "interval" // group commit: ack after the next fsync tick
	SyncOff      = "off"      // ack immediately; fsync only on seal/close
)

// Op codes inside a record.
const (
	OpPut    byte = 1
	OpDelete byte = 2
)

// Op is one logical write inside a record batch.
type Op struct {
	Op  byte // OpPut or OpDelete
	Key uint64
	Val uint64 // meaningful for OpPut only
}

const (
	segMagic  = "OQWALSG1"
	ckptMagic = "OQWALCK1"

	segHdrSize = 16 // magic + firstSeq
	recHdrSize = 8  // crc + size
	recFixed   = 12 // seq + count

	opPutSize = 17 // tag + key + val
	opDelSize = 9  // tag + key

	// maxOpsPerRecord bounds a single record; Append splits larger
	// batches. 4096 is 4x the wire-protocol MaxBatch, so in practice a
	// record is exactly one request's writes to one shard.
	maxOpsPerRecord = 4096
	maxRecSize      = recFixed + maxOpsPerRecord*opPutSize
)

// castagnoli is the CRC32C table; hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendRecord encodes one record into dst and returns the extended
// slice. Callers pre-size dst so the appends below never grow it on
// the hot path (the Log's encode buffer is allocated once at Open with
// capacity for a maximal record).
//
//optiql:noalloc
func appendRecord(dst []byte, seq uint64, ops []Op) []byte {
	at := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // crc + size, patched below
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ops)))
	for i := range ops {
		o := &ops[i]
		dst = append(dst, o.Op)
		dst = binary.BigEndian.AppendUint64(dst, o.Key)
		if o.Op == OpPut {
			dst = binary.BigEndian.AppendUint64(dst, o.Val)
		}
	}
	size := uint32(len(dst) - at - recHdrSize)
	binary.BigEndian.PutUint32(dst[at+4:], size)
	crc := crc32.Checksum(dst[at+4:], castagnoli)
	binary.BigEndian.PutUint32(dst[at:], crc)
	return dst
}

// parseOps decodes the op payload of a CRC-valid record into ops
// (reusing its backing array). A malformed payload under a valid
// checksum is a writer bug, not a torn write, so the error here is
// always fatal to recovery.
func parseOps(payload []byte, count uint32, ops []Op) ([]Op, error) {
	if count > maxOpsPerRecord {
		return nil, fmt.Errorf("wal: record op count %d exceeds limit %d", count, maxOpsPerRecord)
	}
	ops = ops[:0]
	for i := uint32(0); i < count; i++ {
		if len(payload) == 0 {
			return nil, fmt.Errorf("wal: record payload short at op %d/%d", i, count)
		}
		switch payload[0] {
		case OpPut:
			if len(payload) < opPutSize {
				return nil, fmt.Errorf("wal: truncated PUT op inside checksummed record")
			}
			ops = append(ops, Op{
				Op:  OpPut,
				Key: binary.BigEndian.Uint64(payload[1:]),
				Val: binary.BigEndian.Uint64(payload[9:]),
			})
			payload = payload[opPutSize:]
		case OpDelete:
			if len(payload) < opDelSize {
				return nil, fmt.Errorf("wal: truncated DELETE op inside checksummed record")
			}
			ops = append(ops, Op{
				Op:  OpDelete,
				Key: binary.BigEndian.Uint64(payload[1:]),
			})
			payload = payload[opDelSize:]
		default:
			return nil, fmt.Errorf("wal: unknown op tag %#x inside checksummed record", payload[0])
		}
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("wal: %d trailing bytes after %d ops inside checksummed record", len(payload), count)
	}
	return ops, nil
}

// segName formats a segment file name from its first record sequence.
func segName(firstSeq uint64) string {
	return fmt.Sprintf("wal-%016x.seg", firstSeq)
}

// ckptName formats a checkpoint file name from its covered sequence.
func ckptName(seq uint64) string {
	return fmt.Sprintf("ckpt-%016x.ck", seq)
}
