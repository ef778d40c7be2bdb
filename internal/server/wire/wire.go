// Package wire defines the length-prefixed binary protocol spoken by
// the optiqld key-value server and its clients, plus a pipelined
// client implementation.
//
// Every message is one frame: a 4-byte big-endian payload length
// followed by the payload. A request payload starts with a one-byte
// opcode; a response payload starts with a one-byte status. All
// integers are big-endian; keys and values are 8 bytes, matching the
// index substrates. Responses are not self-describing — their shape
// depends on the request's opcode — so the decoder takes the request
// it answers, which a pipelined client has to remember anyway.
//
// Request payloads:
//
//	GET    op(1) key(8)
//	PUT    op(1) key(8) value(8)
//	DELETE op(1) key(8)
//	SCAN   op(1) start(8) max(4)
//	BATCH  op(1) n(4) then n sub-requests (opcode + body, no nesting)
//
// Response payloads:
//
//	status(1) then, when status is OK:
//	GET    value(8)            (NOT_FOUND carries no body)
//	PUT    inserted(1)         (1 = new key, 0 = overwrote)
//	DELETE -                   (NOT_FOUND when the key was absent)
//	SCAN   n(4) then n key(8) value(8) pairs
//	BATCH  n(4) then n sub-responses (status + body each)
//	ERR    len(2) message      (any opcode; the connection then closes)
//
// NOT_FOUND and OVERLOADED carry no body. OVERLOADED answers a request
// the server's admission control shed before executing it (see
// internal/server); the request was not applied and may be retried.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"optiql/internal/kv"
)

// Opcodes.
const (
	OpGet byte = iota + 1
	OpPut
	OpDelete
	OpScan
	OpBatch
)

// Response statuses. StatusOverloaded means admission control shed
// the request before executing it — nothing was applied, so any
// request answered with it is safe to retry after backing off.
const (
	StatusOK byte = iota
	StatusNotFound
	StatusErr
	StatusOverloaded
)

// Protocol limits. Frames above MaxFrame, scans above MaxScan and
// batches above MaxBatch are rejected before any allocation sized from
// untrusted input.
const (
	MaxFrame = 1 << 20
	MaxScan  = 4096
	MaxBatch = 1024
)

// KV is one key/value pair in a SCAN response. It aliases the
// repo-wide pair type, so index scan results pass through the server
// without per-pair conversion.
type KV = kv.KV

// Request is one decoded client request. For OpBatch only Sub is
// meaningful; Max is the SCAN result cap.
type Request struct {
	Op    byte
	Key   uint64
	Value uint64
	Max   uint32
	Sub   []Request
}

// Response is one decoded server response, shaped by the request it
// answers. Found is false exactly when Status is StatusNotFound.
type Response struct {
	Status   byte
	Value    uint64 // GET
	Inserted bool   // PUT
	Pairs    []KV   // SCAN
	Sub      []Response
	Err      string
}

// Get/Put/Del/Scan/Batch are request constructors for the common case.
func Get(k uint64) Request                  { return Request{Op: OpGet, Key: k} }
func Put(k, v uint64) Request               { return Request{Op: OpPut, Key: k, Value: v} }
func Del(k uint64) Request                  { return Request{Op: OpDelete, Key: k} }
func Scan(start uint64, max uint32) Request { return Request{Op: OpScan, Key: start, Max: max} }
func Batch(sub ...Request) Request          { return Request{Op: OpBatch, Sub: sub} }

// errNestedBatch rejects a batch inside a batch, on both sides.
var errNestedBatch = errors.New("wire: nested batch")

// Error constructors for protocol violations. These live outside the
// encode/decode bodies because fmt.Errorf boxes its operands: the hot
// functions carry the //optiql:noalloc contract, and a malformed frame
// is the one path where paying an allocation is fine.
func errScanMax(m uint32) error {
	return fmt.Errorf("wire: scan max %d out of range [1, %d]", m, MaxScan)
}

func errBatchSize(n int) error {
	return fmt.Errorf("wire: batch size %d out of range [1, %d]", n, MaxBatch)
}

func errUnknownOp(op byte) error { return fmt.Errorf("wire: unknown opcode %d", op) }

func errUnknownStatus(st byte) error { return fmt.Errorf("wire: unknown status %d", st) }

func errRequestFrame(n int) error {
	return fmt.Errorf("wire: request frame %d exceeds %d bytes", n, MaxFrame)
}

func errResponseFrame(n int) error {
	return fmt.Errorf("wire: response frame %d exceeds %d bytes", n, MaxFrame)
}

func errFrameLen(n uint32) error {
	return fmt.Errorf("wire: frame of %d bytes exceeds %d", n, MaxFrame)
}

func errTrailingRequest(n int) error {
	return fmt.Errorf("wire: %d trailing bytes after request", n)
}

func errTrailingResponse(n int) error {
	return fmt.Errorf("wire: %d trailing bytes after response", n)
}

func errScanPairs(n int) error {
	return fmt.Errorf("wire: scan response with %d pairs exceeds %d", n, MaxScan)
}

func errScanCount(n uint32) error {
	return fmt.Errorf("wire: scan response count %d exceeds %d", n, MaxScan)
}

func errBatchResp(n, want int) error {
	return fmt.Errorf("wire: batch response has %d sub-responses for %d sub-requests", n, want)
}

//optiql:noalloc
func appendU16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }

//optiql:noalloc
func appendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }

//optiql:noalloc
func appendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

// appendRequestBody encodes r without the frame header.
//
//optiql:noalloc
func appendRequestBody(dst []byte, r *Request, nested bool) ([]byte, error) {
	dst = append(dst, r.Op)
	switch r.Op {
	case OpGet, OpDelete:
		dst = appendU64(dst, r.Key)
	case OpPut:
		dst = appendU64(dst, r.Key)
		dst = appendU64(dst, r.Value)
	case OpScan:
		if r.Max == 0 || r.Max > MaxScan {
			return nil, errScanMax(r.Max)
		}
		dst = appendU64(dst, r.Key)
		dst = appendU32(dst, r.Max)
	case OpBatch:
		if nested {
			return nil, errNestedBatch
		}
		if len(r.Sub) == 0 || len(r.Sub) > MaxBatch {
			return nil, errBatchSize(len(r.Sub))
		}
		dst = appendU32(dst, uint32(len(r.Sub)))
		for i := range r.Sub {
			var err error
			if dst, err = appendRequestBody(dst, &r.Sub[i], true); err != nil {
				return nil, err
			}
		}
	default:
		return nil, errUnknownOp(r.Op)
	}
	return dst, nil
}

// AppendRequest encodes r as a complete frame appended to dst.
//
//optiql:noalloc
func AppendRequest(dst []byte, r *Request) ([]byte, error) {
	at := len(dst)
	dst = appendU32(dst, 0) // patched below
	dst, err := appendRequestBody(dst, r, false)
	if err != nil {
		return nil, err
	}
	n := len(dst) - at - 4
	if n > MaxFrame {
		return nil, errRequestFrame(n)
	}
	binary.BigEndian.PutUint32(dst[at:], uint32(n))
	return dst, nil
}

// reader walks an already-read payload.
type reader struct {
	b []byte
}

//optiql:noalloc
func (r *reader) u8() (byte, error) {
	if len(r.b) < 1 {
		return 0, io.ErrUnexpectedEOF
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v, nil
}

//optiql:noalloc
func (r *reader) u16() (uint16, error) {
	if len(r.b) < 2 {
		return 0, io.ErrUnexpectedEOF
	}
	v := binary.BigEndian.Uint16(r.b)
	r.b = r.b[2:]
	return v, nil
}

//optiql:noalloc
func (r *reader) u32() (uint32, error) {
	if len(r.b) < 4 {
		return 0, io.ErrUnexpectedEOF
	}
	v := binary.BigEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v, nil
}

//optiql:noalloc
func (r *reader) u64() (uint64, error) {
	if len(r.b) < 8 {
		return 0, io.ErrUnexpectedEOF
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v, nil
}

//optiql:noalloc
func (r *reader) bytes(n int) ([]byte, error) {
	if len(r.b) < n {
		return nil, io.ErrUnexpectedEOF
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v, nil
}

// parseRequestBody decodes one request. A BATCH's sub-requests go
// into subs[:n] when subs has room for them, and into a new slice
// otherwise; nested decodes pass nil.
//
//optiql:noalloc
func parseRequestBody(r *reader, subs []Request, nested bool) (Request, error) {
	var req Request
	op, err := r.u8()
	if err != nil {
		return req, err
	}
	req.Op = op
	switch op {
	case OpGet, OpDelete:
		req.Key, err = r.u64()
	case OpPut:
		if req.Key, err = r.u64(); err == nil {
			req.Value, err = r.u64()
		}
	case OpScan:
		if req.Key, err = r.u64(); err == nil {
			req.Max, err = r.u32()
			if err == nil && (req.Max == 0 || req.Max > MaxScan) {
				err = errScanMax(req.Max)
			}
		}
	case OpBatch:
		if nested {
			return req, errNestedBatch
		}
		var n uint32
		if n, err = r.u32(); err != nil {
			return req, err
		}
		if n == 0 || n > MaxBatch {
			return req, errBatchSize(int(n))
		}
		if len(subs) < int(n) {
			//optiqlvet:ignore noalloc ParseRequest's batch owns a new sub-request slice; the server decodes into pooled slots through ParseRequestInto and allocates nothing
			subs = make([]Request, n)
		}
		req.Sub = subs[:n:n]
		for i := range req.Sub {
			if req.Sub[i], err = parseRequestBody(r, nil, true); err != nil {
				return req, err
			}
		}
	default:
		err = errUnknownOp(op)
	}
	return req, err
}

// ParseRequest decodes one request payload (without the frame header).
// Trailing bytes are a protocol error. A BATCH's sub-requests get a
// new slice.
//
//optiql:noalloc
func ParseRequest(payload []byte) (Request, error) {
	return ParseRequestInto(payload, nil)
}

// ParseRequestInto is ParseRequest with caller-given BATCH slots: a
// BATCH of n sub-requests is decoded into subs[:n], which the returned
// request's Sub aliases, so a caller that passes MaxBatch slots
// decodes every request without allocating. With fewer than n slots
// the batch gets a new slice, as in ParseRequest.
//
//optiql:noalloc
func ParseRequestInto(payload []byte, subs []Request) (Request, error) {
	r := reader{payload}
	req, err := parseRequestBody(&r, subs, false)
	if err != nil {
		return req, err
	}
	if len(r.b) != 0 {
		return req, errTrailingRequest(len(r.b))
	}
	return req, nil
}

// appendResponseBody encodes resp for the request shape req.
//
//optiql:noalloc
func appendResponseBody(dst []byte, req *Request, resp *Response) ([]byte, error) {
	dst = append(dst, resp.Status)
	if resp.Status == StatusErr {
		msg := resp.Err
		if len(msg) > 1<<15 {
			msg = msg[:1<<15]
		}
		dst = appendU16(dst, uint16(len(msg)))
		dst = append(dst, msg...)
		return dst, nil
	}
	if resp.Status != StatusOK {
		return dst, nil // NOT_FOUND has no body
	}
	switch req.Op {
	case OpGet:
		dst = appendU64(dst, resp.Value)
	case OpPut:
		var ins byte
		if resp.Inserted {
			ins = 1
		}
		dst = append(dst, ins)
	case OpDelete:
	case OpScan:
		if len(resp.Pairs) > MaxScan {
			return nil, errScanPairs(len(resp.Pairs))
		}
		dst = appendU32(dst, uint32(len(resp.Pairs)))
		for _, pr := range resp.Pairs {
			dst = appendU64(dst, pr.Key)
			dst = appendU64(dst, pr.Value)
		}
	case OpBatch:
		if len(resp.Sub) != len(req.Sub) {
			return nil, errBatchResp(len(resp.Sub), len(req.Sub))
		}
		dst = appendU32(dst, uint32(len(resp.Sub)))
		for i := range resp.Sub {
			var err error
			if dst, err = appendResponseBody(dst, &req.Sub[i], &resp.Sub[i]); err != nil {
				return nil, err
			}
		}
	default:
		return nil, errUnknownOp(req.Op)
	}
	return dst, nil
}

// AppendResponse encodes resp (answering req) as a complete frame
// appended to dst.
//
//optiql:noalloc
func AppendResponse(dst []byte, req *Request, resp *Response) ([]byte, error) {
	at := len(dst)
	dst = appendU32(dst, 0)
	dst, err := appendResponseBody(dst, req, resp)
	if err != nil {
		return nil, err
	}
	n := len(dst) - at - 4
	if n > MaxFrame {
		return nil, errResponseFrame(n)
	}
	binary.BigEndian.PutUint32(dst[at:], uint32(n))
	return dst, nil
}

//optiql:noalloc
func parseResponseBody(r *reader, req *Request) (Response, error) {
	var resp Response
	st, err := r.u8()
	if err != nil {
		return resp, err
	}
	resp.Status = st
	switch st {
	case StatusErr:
		n, err := r.u16()
		if err != nil {
			return resp, err
		}
		msg, err := r.bytes(int(n))
		if err != nil {
			return resp, err
		}
		//optiqlvet:ignore noalloc the error message must outlive the frame buffer it aliases; ERR closes the connection, so this copy happens at most once per connection
		resp.Err = string(msg)
		return resp, nil
	case StatusNotFound, StatusOverloaded:
		return resp, nil
	case StatusOK:
	default:
		return resp, errUnknownStatus(st)
	}
	switch req.Op {
	case OpGet:
		resp.Value, err = r.u64()
	case OpPut:
		var b byte
		if b, err = r.u8(); err == nil {
			resp.Inserted = b == 1
		}
	case OpDelete:
	case OpScan:
		var n uint32
		if n, err = r.u32(); err != nil {
			return resp, err
		}
		if n > MaxScan {
			return resp, errScanCount(n)
		}
		//optiqlvet:ignore noalloc the decoded pairs must outlive the frame buffer; clients that care reuse the Response and the alloc tests pin the encode side instead
		resp.Pairs = make([]KV, n)
		for i := range resp.Pairs {
			if resp.Pairs[i].Key, err = r.u64(); err != nil {
				return resp, err
			}
			if resp.Pairs[i].Value, err = r.u64(); err != nil {
				return resp, err
			}
		}
	case OpBatch:
		var n uint32
		if n, err = r.u32(); err != nil {
			return resp, err
		}
		if int(n) != len(req.Sub) {
			return resp, errBatchResp(int(n), len(req.Sub))
		}
		//optiqlvet:ignore noalloc a batch owns its sub-response slice; the allocation is per batch, not per operation
		resp.Sub = make([]Response, n)
		for i := range resp.Sub {
			if resp.Sub[i], err = parseResponseBody(r, &req.Sub[i]); err != nil {
				return resp, err
			}
		}
	default:
		err = errUnknownOp(req.Op)
	}
	return resp, err
}

// ParseResponse decodes one response payload answering req. Trailing
// bytes are a protocol error.
//
//optiql:noalloc
func ParseResponse(payload []byte, req *Request) (Response, error) {
	r := reader{payload}
	resp, err := parseResponseBody(&r, req)
	if err != nil {
		return resp, err
	}
	if len(r.b) != 0 {
		return resp, errTrailingResponse(len(r.b))
	}
	return resp, nil
}

// ReadFrame reads one frame payload from br into buf (growing it as
// needed) and returns the payload slice, which aliases buf and is only
// valid until the next call.
//
//optiql:noalloc
func ReadFrame(br *bufio.Reader, buf *[]byte) ([]byte, error) {
	// The header is staged in buf too, for the reason ReadFrameBuf
	// gives: a local array escapes through io.ReadFull.
	hdr := grow(buf, 4)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrame {
		return nil, errFrameLen(n)
	}
	payload := grow(buf, int(n))
	if _, err := io.ReadFull(br, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return payload, nil
}

// grow returns the first n bytes of *buf, reallocating it if it is too
// small; the old contents are not kept.
//
//optiql:noalloc
func grow(buf *[]byte, n int) []byte {
	if cap(*buf) < n {
		//optiqlvet:ignore noalloc grow-only buffer: reallocates only while warming up to the connection's peak frame size
		*buf = make([]byte, n)
	}
	return (*buf)[:n]
}

// frameRetain is the largest read buffer a FrameBuf keeps to itself
// between frames. The overwhelming majority of frames are tens of
// bytes; anything larger is served from a shared pool and returned as
// soon as the payload has been parsed, so one huge frame does not pin
// up to MaxFrame of memory for the rest of the connection's lifetime
// (which ReadFrame's grow-only buffer does).
const frameRetain = 64 << 10

// bigFramePool serves the rare above-frameRetain payloads. Entries are
// full MaxFrame buffers so a Get never needs to grow.
var bigFramePool = sync.Pool{New: func() any {
	b := make([]byte, MaxFrame)
	return &b
}}

// FrameBuf is a reusable frame read buffer with bounded retention: a
// small buffer is kept across frames, large ones are borrowed from a
// shared pool for exactly one frame. The zero value is ready to use.
type FrameBuf struct {
	small []byte
	big   *[]byte
}

// take returns a buffer with room for an n-byte payload.
//
//optiql:noalloc
func (f *FrameBuf) take(n int) []byte {
	if n <= frameRetain {
		if cap(f.small) < n {
			//optiqlvet:ignore noalloc one-time warmup: the retained buffer is allocated at full size on first use and reused for every later frame
			f.small = make([]byte, frameRetain)
		}
		return f.small[:n]
	}
	if f.big == nil {
		f.big = bigFramePool.Get().(*[]byte)
	}
	return (*f.big)[:n]
}

// Release returns a borrowed large buffer to the shared pool. Call it
// once the previous payload has been fully consumed (parsed into an
// owned Request/Response — the parsers never alias the payload);
// calling it with no borrow outstanding is a no-op.
//
//optiql:noalloc
func (f *FrameBuf) Release() {
	if f.big != nil {
		bigFramePool.Put(f.big)
		f.big = nil
	}
}

// ReadFrameBuf is ReadFrame against a FrameBuf: the returned payload
// aliases the FrameBuf's storage and is valid until the next call or
// Release, whichever comes first.
//
//optiql:noalloc
func ReadFrameBuf(br *bufio.Reader, fb *FrameBuf) ([]byte, error) {
	// The header is staged in the retained buffer rather than a local
	// array: a local escapes through the io.ReadFull interface call and
	// would cost one heap allocation per frame.
	hdr := fb.take(4)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrame {
		return nil, errFrameLen(n)
	}
	payload := fb.take(int(n))
	if _, err := io.ReadFull(br, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return payload, nil
}
