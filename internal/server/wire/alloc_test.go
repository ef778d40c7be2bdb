package wire

import (
	"bufio"
	"bytes"
	"testing"
)

// TestEncodeDecodeAllocs pins the per-frame alloc budget of the hot
// serving path: with reused encode buffers, a point op's full
// encode/decode round trip (request and response) must not allocate,
// and a scan response encode into a reused buffer must not either.
func TestEncodeDecodeAllocs(t *testing.T) {
	reqBuf := make([]byte, 0, 256)
	respBuf := make([]byte, 0, 256)

	t.Run("get-roundtrip", func(t *testing.T) {
		req := Get(42)
		resp := Response{Status: StatusOK, Value: 7}
		allocs := testing.AllocsPerRun(1000, func() {
			var err error
			reqBuf, err = AppendRequest(reqBuf[:0], &req)
			if err != nil {
				t.Fatal(err)
			}
			pr, err := ParseRequest(reqBuf[4:])
			if err != nil || pr.Key != 42 {
				t.Fatalf("ParseRequest = %+v, %v", pr, err)
			}
			respBuf, err = AppendResponse(respBuf[:0], &req, &resp)
			if err != nil {
				t.Fatal(err)
			}
			rr, err := ParseResponse(respBuf[4:], &req)
			if err != nil || rr.Value != 7 {
				t.Fatalf("ParseResponse = %+v, %v", rr, err)
			}
		})
		if allocs != 0 {
			t.Errorf("GET round trip allocates %.1f objects, want 0", allocs)
		}
	})

	// A BATCH decoded into caller-given slots allocates nothing.
	t.Run("batch-parse-into", func(t *testing.T) {
		sub := make([]Request, MaxBatch)
		for i := range sub {
			sub[i] = Put(uint64(i), uint64(i))
		}
		req := Batch(sub...)
		frame, err := AppendRequest(nil, &req)
		if err != nil {
			t.Fatal(err)
		}
		var slots [MaxBatch]Request
		allocs := testing.AllocsPerRun(100, func() {
			pr, err := ParseRequestInto(frame[4:], slots[:])
			if err != nil || len(pr.Sub) != MaxBatch {
				t.Fatalf("ParseRequestInto = %d subs, %v", len(pr.Sub), err)
			}
		})
		if allocs != 0 {
			t.Errorf("BATCH parse into slots allocates %.1f objects, want 0", allocs)
		}
	})

	t.Run("scan-encode", func(t *testing.T) {
		pairs := make([]KV, 64)
		for i := range pairs {
			pairs[i] = KV{Key: uint64(i), Value: uint64(i) * 2}
		}
		req := Scan(0, 64)
		resp := Response{Status: StatusOK, Pairs: pairs}
		buf := make([]byte, 0, 4+1+4+16*len(pairs))
		allocs := testing.AllocsPerRun(1000, func() {
			var err error
			buf, err = AppendResponse(buf[:0], &req, &resp)
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("scan response encode allocates %.1f objects, want 0", allocs)
		}
	})

	// The frame reader retains its small buffer across frames, so
	// steady-state reads of modest frames must not allocate.
	t.Run("read-frame", func(t *testing.T) {
		req := Get(42)
		frame, err := AppendRequest(nil, &req)
		if err != nil {
			t.Fatal(err)
		}
		var stream bytes.Buffer
		for i := 0; i < 8; i++ {
			stream.Write(frame)
		}
		rd := bytes.NewReader(stream.Bytes())
		br := bufio.NewReader(rd)
		var fb FrameBuf
		// Warm the retained buffer before measuring.
		if _, err := ReadFrameBuf(br, &fb); err != nil {
			t.Fatal(err)
		}
		fb.Release()
		allocs := testing.AllocsPerRun(1000, func() {
			rd.Seek(0, 0)
			br.Reset(rd)
			payload, err := ReadFrameBuf(br, &fb)
			if err != nil || len(payload) != len(frame)-4 {
				t.Fatalf("ReadFrameBuf = %d bytes, %v", len(payload), err)
			}
			fb.Release()
		})
		if allocs != 0 {
			t.Errorf("frame read allocates %.1f objects, want 0", allocs)
		}
	})
}

// TestReadFrameAllocs pins the client-side frame reader: once buf has
// grown to the stream's frame size, reading a frame (header included)
// must not allocate.
func TestReadFrameAllocs(t *testing.T) {
	req := Get(42)
	frame, err := AppendRequest(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(frame)
	br := bufio.NewReader(rd)
	var buf []byte
	// Warm buf up to the frame size before measuring.
	if _, err := ReadFrame(br, &buf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		rd.Seek(0, 0)
		br.Reset(rd)
		payload, err := ReadFrame(br, &buf)
		if err != nil || len(payload) != len(frame)-4 {
			t.Fatalf("ReadFrame = %d bytes, %v", len(payload), err)
		}
	})
	if allocs != 0 {
		t.Errorf("ReadFrame allocates %.1f objects per frame, want 0", allocs)
	}
}
