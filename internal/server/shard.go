package server

import (
	"fmt"
	"slices"
	"sync"

	"optiql/internal/art"
	"optiql/internal/btree"
	"optiql/internal/locks"
	"optiql/internal/server/wire"
	"optiql/internal/wal"
)

// Index is the per-shard substrate surface the server needs: point
// ops plus an ordered scan appending pairs. *btree.Tree and *art.Tree
// are adapted below. A PUT maps to Insert (which overwrites an
// existing key and reports whether the key was new), so the server
// needs no separate Update.
type Index interface {
	Lookup(c *locks.Ctx, k uint64) (uint64, bool)
	Insert(c *locks.Ctx, k, v uint64) bool
	Delete(c *locks.Ctx, k uint64) bool
	Scan(c *locks.Ctx, start uint64, max int, out []wire.KV) []wire.KV
	Len() int
}

// Both substrates' scan pair types alias the repo-wide kv.KV, as does
// wire.KV, so the adapters forward the output buffer straight through —
// no per-pair copy, no intermediate slice.

type btreeIndex struct{ t *btree.Tree }

func (b btreeIndex) Lookup(c *locks.Ctx, k uint64) (uint64, bool) { return b.t.Lookup(c, k) }
func (b btreeIndex) Insert(c *locks.Ctx, k, v uint64) bool        { return b.t.Insert(c, k, v) }
func (b btreeIndex) Delete(c *locks.Ctx, k uint64) bool           { return b.t.Delete(c, k) }
func (b btreeIndex) Len() int                                     { return b.t.Len() }
func (b btreeIndex) Scan(c *locks.Ctx, start uint64, max int, out []wire.KV) []wire.KV {
	return b.t.Scan(c, start, max, out)
}

type artIndex struct{ t *art.Tree }

func (a artIndex) Lookup(c *locks.Ctx, k uint64) (uint64, bool) { return a.t.Lookup(c, k) }
func (a artIndex) Insert(c *locks.Ctx, k, v uint64) bool        { return a.t.Insert(c, k, v) }
func (a artIndex) Delete(c *locks.Ctx, k uint64) bool           { return a.t.Delete(c, k) }
func (a artIndex) Len() int                                     { return a.t.Len() }
func (a artIndex) Scan(c *locks.Ctx, start uint64, max int, out []wire.KV) []wire.KV {
	return a.t.Scan(c, start, max, out)
}

// newIndex builds one shard's index instance.
func newIndex(kind string, scheme *locks.Scheme, nodeSize int) (Index, error) {
	switch kind {
	case "btree":
		t, err := btree.New(btree.Config{Scheme: scheme, NodeSize: nodeSize})
		if err != nil {
			return nil, err
		}
		return btreeIndex{t}, nil
	case "art":
		t, err := art.New(art.Config{Scheme: scheme})
		if err != nil {
			return nil, err
		}
		return artIndex{t}, nil
	}
	return nil, fmt.Errorf("server: unknown index kind %q", kind)
}

// shard is one partition: an index instance and — when durability is
// on — its write-ahead log, the mutex that orders the log's appends
// and applies, and the lock context the checkpoint scanner uses.
type shard struct {
	idx Index
	// wal is the shard's write-ahead log (nil without Config.WALDir).
	// mu is held from a record's Append through its applies to
	// NoteApplied, so the log's order is the index's apply order and
	// Append has one caller at a time.
	wal *wal.Log
	mu  sync.Mutex
	// ckptCtx is the checkpoint snapshot scanner's lock context; it runs
	// concurrently with the writers, so it has its own.
	ckptCtx *locks.Ctx
}

// shardHash is the splitmix64 finalizer; it spreads dense keys across
// shards so consecutive keys don't all land on one partition.
func shardHash(k uint64) uint64 {
	k += 0x9E3779B97F4A7C15
	k = (k ^ (k >> 30)) * 0xBF58476D1CE4E5B9
	k = (k ^ (k >> 27)) * 0x94D049BB133111EB
	return k ^ (k >> 31)
}

// scanBuf is a pooled scan result buffer. A response's Pairs alias its
// storage from dispatch until the writer has encoded the response
// frame, at which point the pending releases it (conn.go). Capacity
// starts at one MaxScan and grows as needed (several shards can each
// contribute up to max pairs before the merge truncates); grown
// buffers are pooled at their grown size.
type scanBuf struct {
	kvs []wire.KV
}

var scanBufPool = sync.Pool{New: func() any {
	return &scanBuf{kvs: make([]wire.KV, 0, wire.MaxScan)}
}}

// scanAll merges per-shard scans into one globally ordered result of
// up to max pairs, staged in a pooled buffer the caller must hand back
// (pending.release) once the response is encoded. Keys are
// hash-partitioned, so a range covers every shard: each shard
// contributes its first max pairs >= start and the merge keeps the
// smallest max overall. The result is not a snapshot — shards are
// scanned one after another — matching the per-leaf (rather than
// whole-range) consistency the underlying scans provide.
func (s *Server) scanAll(c *locks.Ctx, start uint64, max int) ([]wire.KV, *scanBuf) {
	sb := scanBufPool.Get().(*scanBuf)
	all := sb.kvs[:0]
	for _, sh := range s.shards {
		all = sh.idx.Scan(c, start, max, all)
	}
	slices.SortFunc(all, func(a, b wire.KV) int {
		switch {
		case a.Key < b.Key:
			return -1
		case a.Key > b.Key:
			return 1
		}
		return 0
	})
	sb.kvs = all // keep any growth for reuse
	if len(all) > max {
		all = all[:max]
	}
	return all, sb
}

// putScanBuf returns a scan buffer to the pool.
func putScanBuf(sb *scanBuf) {
	sb.kvs = sb.kvs[:0]
	scanBufPool.Put(sb)
}
