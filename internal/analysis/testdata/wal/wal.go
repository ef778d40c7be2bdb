// Package wal is a stub of the real internal/wal surface with the
// same package name and signatures; walorder matches the append and
// durability primitives by package name, so the goldens exercise the
// production matching path.
package wal

// Op mirrors one durable log record.
type Op struct {
	Code byte
	Key  uint64
	Val  uint64
}

// Log mirrors the server's write-ahead log.
type Log struct{ seq uint64 }

// Append mirrors the durable append: it assigns the batch a sequence
// number and may fail when the log is poisoned or closed.
func (l *Log) Append(ops []Op) (uint64, error) {
	l.seq += uint64(len(ops))
	return l.seq, nil
}

// NoteApplied mirrors the apply watermark advance.
func (l *Log) NoteApplied(seq uint64) {}

// Commit mirrors handing a batch to the group-commit policy.
func (l *Log) Commit(seq uint64, n int, c Committer) { c.Committed(nil) }

// Committer mirrors the fsync-completion callback.
type Committer interface{ Committed(err error) }
