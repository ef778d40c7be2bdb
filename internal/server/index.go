package server

import (
	"fmt"
	"sync"

	"optiql/internal/art"
	"optiql/internal/btree"
	"optiql/internal/locks"
	"optiql/internal/server/wire"
)

// Index is the substrate surface the server needs: point ops plus an
// ordered scan appending pairs. *btree.Tree and *art.Tree are adapted
// below. A PUT maps to Insert (which overwrites an
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

// newIndex builds the server's index instance.
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

// scanBuf is a pooled scan result buffer of one MaxScan pairs, the
// most a request may ask for. A response's Pairs alias its storage
// from dispatch until the writer has encoded the response frame, at
// which point the pending releases it (conn.go).
type scanBuf struct {
	kvs []wire.KV
}

var scanBufPool = sync.Pool{New: func() any {
	return &scanBuf{kvs: make([]wire.KV, 0, wire.MaxScan)}
}}

// putScanBuf returns a scan buffer to the pool.
func putScanBuf(sb *scanBuf) {
	sb.kvs = sb.kvs[:0]
	scanBufPool.Put(sb)
}
