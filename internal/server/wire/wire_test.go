package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// stripHeader peels the 4-byte frame header after checking it matches
// the payload length.
func stripHeader(t *testing.T, frame []byte) []byte {
	t.Helper()
	if len(frame) < 4 {
		t.Fatalf("frame too short: %d bytes", len(frame))
	}
	n := binary.BigEndian.Uint32(frame)
	if int(n) != len(frame)-4 {
		t.Fatalf("frame header says %d bytes, payload has %d", n, len(frame)-4)
	}
	return frame[4:]
}

func TestRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		Get(0),
		Get(^uint64(0)),
		Put(42, 99),
		Del(7),
		Scan(100, 16),
		Scan(0, MaxScan),
		Batch(Get(1), Put(2, 3), Del(4), Scan(5, 6)),
	}
	// Each request decodes twice: with new storage (ParseRequest) and
	// into caller-given slots, which a BATCH's Sub must alias.
	var slots [MaxBatch]Request
	for _, want := range reqs {
		frame, err := AppendRequest(nil, &want)
		if err != nil {
			t.Fatalf("AppendRequest(%+v): %v", want, err)
		}
		for _, subs := range [][]Request{nil, slots[:]} {
			got, err := ParseRequestInto(stripHeader(t, frame), subs)
			if err != nil {
				t.Fatalf("ParseRequestInto(%+v, %d slots): %v", want, len(subs), err)
			}
			if got.Op != want.Op || got.Key != want.Key || got.Value != want.Value || got.Max != want.Max {
				t.Fatalf("round trip %+v -> %+v", want, got)
			}
			if len(got.Sub) != len(want.Sub) {
				t.Fatalf("batch round trip lost subs: %d -> %d", len(want.Sub), len(got.Sub))
			}
			if subs != nil && len(got.Sub) > 0 && &got.Sub[0] != &slots[0] {
				t.Fatalf("batch decoded into %d slots does not alias them", len(subs))
			}
			for i := range got.Sub {
				g, w := got.Sub[i], want.Sub[i]
				if g.Op != w.Op || g.Key != w.Key || g.Value != w.Value || g.Max != w.Max {
					t.Fatalf("sub %d: %+v -> %+v", i, w, g)
				}
			}
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []struct {
		req  Request
		resp Response
	}{
		{Get(1), Response{Status: StatusOK, Value: 77}},
		{Get(1), Response{Status: StatusNotFound}},
		{Put(1, 2), Response{Status: StatusOK, Inserted: true}},
		{Put(1, 2), Response{Status: StatusOK, Inserted: false}},
		{Del(1), Response{Status: StatusOK}},
		{Del(1), Response{Status: StatusNotFound}},
		{Scan(0, 4), Response{Status: StatusOK, Pairs: []KV{{Key: 1, Value: 10}, {Key: 2, Value: 20}}}},
		{Scan(0, 4), Response{Status: StatusOK, Pairs: nil}},
		{Get(9), Response{Status: StatusErr, Err: "boom"}},
		{Batch(Get(1), Put(2, 3)), Response{Status: StatusOK, Sub: []Response{
			{Status: StatusNotFound},
			{Status: StatusOK, Inserted: true},
		}}},
	}
	for _, tc := range cases {
		frame, err := AppendResponse(nil, &tc.req, &tc.resp)
		if err != nil {
			t.Fatalf("AppendResponse(%+v): %v", tc.resp, err)
		}
		got, err := ParseResponse(stripHeader(t, frame), &tc.req)
		if err != nil {
			t.Fatalf("ParseResponse(%+v): %v", tc.resp, err)
		}
		if got.Status != tc.resp.Status || got.Value != tc.resp.Value ||
			got.Inserted != tc.resp.Inserted || got.Err != tc.resp.Err {
			t.Fatalf("round trip %+v -> %+v", tc.resp, got)
		}
		if len(got.Pairs) != len(tc.resp.Pairs) || len(got.Sub) != len(tc.resp.Sub) {
			t.Fatalf("round trip lost pairs/subs: %+v -> %+v", tc.resp, got)
		}
		for i := range got.Pairs {
			if got.Pairs[i] != tc.resp.Pairs[i] {
				t.Fatalf("pair %d: %+v -> %+v", i, tc.resp.Pairs[i], got.Pairs[i])
			}
		}
		for i := range got.Sub {
			if got.Sub[i].Status != tc.resp.Sub[i].Status || got.Sub[i].Inserted != tc.resp.Sub[i].Inserted {
				t.Fatalf("sub %d: %+v -> %+v", i, tc.resp.Sub[i], got.Sub[i])
			}
		}
	}
}

func TestRequestEncodeErrors(t *testing.T) {
	bad := []Request{
		{Op: 0},                               // unknown opcode
		{Op: 99},                              // unknown opcode
		Scan(0, 0),                            // zero scan max
		Scan(0, MaxScan+1),                    // oversized scan max
		Batch(),                               // empty batch
		Batch(Batch(Get(1))),                  // nested batch
		Batch(make([]Request, MaxBatch+1)...), // oversized batch
	}
	for _, r := range bad {
		if _, err := AppendRequest(nil, &r); err == nil {
			t.Fatalf("AppendRequest accepted %+v", r)
		}
	}
}

func TestRequestParseErrors(t *testing.T) {
	valid := func(r Request) []byte {
		frame, err := AppendRequest(nil, &r)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		return stripHeader(t, frame)
	}
	cases := map[string][]byte{
		"empty":          {},
		"unknown opcode": {99, 0, 0, 0, 0, 0, 0, 0, 0},
		"truncated get":  valid(Get(1))[:5],
		"trailing bytes": append(valid(Get(1)), 0),
		"zero scan max":  append(append([]byte{OpScan}, make([]byte, 8)...), 0, 0, 0, 0),
		"nested batch":   {OpBatch, 0, 0, 0, 1, OpBatch, 0, 0, 0, 1, OpGet, 0, 0, 0, 0, 0, 0, 0, 0},
		"zero batch":     {OpBatch, 0, 0, 0, 0},
	}
	for name, payload := range cases {
		if _, err := ParseRequest(payload); err == nil {
			t.Fatalf("%s: ParseRequest accepted % x", name, payload)
		}
	}
}

func TestResponseParseErrors(t *testing.T) {
	get := Get(1)
	scan := Scan(0, 4)
	batch := Batch(Get(1), Get(2))
	cases := []struct {
		name    string
		payload []byte
		req     *Request
	}{
		{"empty", []byte{}, &get},
		{"unknown status", []byte{9}, &get},
		{"truncated get value", []byte{StatusOK, 0, 0}, &get},
		{"trailing bytes", []byte{StatusNotFound, 0}, &get},
		{"truncated err msg", []byte{StatusErr, 0, 10, 'x'}, &get},
		{"scan count too big", append([]byte{StatusOK}, 0xFF, 0xFF, 0xFF, 0xFF), &scan},
		{"batch count mismatch", []byte{StatusOK, 0, 0, 0, 1, StatusNotFound}, &batch},
	}
	for _, tc := range cases {
		if _, err := ParseResponse(tc.payload, tc.req); err == nil {
			t.Fatalf("%s: ParseResponse accepted % x", tc.name, tc.payload)
		}
	}
}

func TestErrMessageTruncated(t *testing.T) {
	req := Get(1)
	resp := Response{Status: StatusErr, Err: strings.Repeat("x", 1<<16)}
	frame, err := AppendResponse(nil, &req, &resp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseResponse(stripHeader(t, frame), &req)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Err) != 1<<15 {
		t.Fatalf("error message length %d, want truncation to %d", len(got.Err), 1<<15)
	}
}

func TestReadFrame(t *testing.T) {
	var buf bytes.Buffer
	frame, err := AppendRequest(nil, &Request{Op: OpPut, Key: 5, Value: 6})
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(frame)
	var scratch []byte
	payload, err := ReadFrame(bufio.NewReader(&buf), &scratch)
	if err != nil {
		t.Fatal(err)
	}
	req, err := ParseRequest(payload)
	if err != nil {
		t.Fatal(err)
	}
	if req.Op != OpPut || req.Key != 5 || req.Value != 6 {
		t.Fatalf("frame round trip = %+v", req)
	}

	// Oversized header is rejected before any allocation.
	var huge bytes.Buffer
	hdr := binary.BigEndian.AppendUint32(nil, MaxFrame+1)
	huge.Write(hdr)
	if _, err := ReadFrame(bufio.NewReader(&huge), &scratch); err == nil {
		t.Fatal("ReadFrame accepted an oversized frame header")
	}

	// Truncated payload reports an unexpected EOF, not a clean one.
	var short bytes.Buffer
	short.Write(binary.BigEndian.AppendUint32(nil, 10))
	short.Write([]byte{1, 2, 3})
	if _, err := ReadFrame(bufio.NewReader(&short), &scratch); err == nil {
		t.Fatal("ReadFrame accepted a truncated frame")
	}
}
