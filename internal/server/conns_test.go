package server

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"testing"

	"optiql/internal/core"
	"optiql/internal/server/wire"
)

// TestManyConnections holds more connections open at once than the
// server's queue-node pool has nodes and gets a PUT, a GET and a SCAN
// answered on every one of them. A connection's reader runs only GETs
// and SCANs, which take no queue node, so the connection count must
// not be bounded by the pool: when each reader reserved nodes up
// front, the ~125th connection exhausted the pool and the daemon
// panicked outside every recover.
func TestManyConnections(t *testing.T) {
	const conns = core.MaxQNodes + 76
	for _, kind := range []string{"btree", "art"} {
		t.Run(kind, func(t *testing.T) {
			_, addr := startServer(t, Config{Index: kind})
			ncs := make([]net.Conn, conns)
			for i := range ncs {
				nc, err := net.Dial("tcp", addr)
				if err != nil {
					t.Fatalf("dial %d: %v", i, err)
				}
				defer nc.Close()
				ncs[i] = nc
			}
			errs := make(chan error, conns)
			var wg sync.WaitGroup
			for i, nc := range ncs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs <- exchangePutGetScan(nc, uint64(i))
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// exchangePutGetScan pipelines PUT k, GET k and SCAN from k over nc and
// checks that each answer reflects the PUT.
func exchangePutGetScan(nc net.Conn, k uint64) error {
	reqs := []wire.Request{wire.Put(k, k+1), wire.Get(k), wire.Scan(k, 1)}
	var out []byte
	for i := range reqs {
		var err error
		if out, err = wire.AppendRequest(out, &reqs[i]); err != nil {
			return err
		}
	}
	if _, err := nc.Write(out); err != nil {
		return err
	}
	br := bufio.NewReaderSize(nc, 4<<10)
	var buf []byte
	for i := range reqs {
		payload, err := wire.ReadFrame(br, &buf)
		if err != nil {
			return err
		}
		r, err := wire.ParseResponse(payload, &reqs[i])
		if err != nil {
			return err
		}
		ok := r.Status == wire.StatusOK
		switch reqs[i].Op {
		case wire.OpGet:
			ok = ok && r.Value == k+1
		case wire.OpScan:
			ok = ok && len(r.Pairs) == 1 && r.Pairs[0] == wire.KV{Key: k, Value: k + 1}
		}
		if !ok {
			return fmt.Errorf("key %d: %+v answered %+v", k, reqs[i], r)
		}
	}
	return nil
}
