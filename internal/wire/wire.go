// Package wire is the real-TCP backend behind the parameter-server
// transport seam (internal/ps/transport.go): a length-prefixed binary
// protocol carrying the PS data-plane operators — sparse pull, push-add,
// fused update programs, range pull — between OS processes, so the LR
// trainer that normally runs on simnet virtual time can run against real
// sockets (cmd/ps2serve, cmd/ps2worker).
//
// The package deliberately does not implement the simnet-typed ps.Transport
// interface: CallShard's request payloads are Go closures executed against
// in-process shard memory, and a closure cannot cross a socket. Instead wire
// speaks the concrete encodings of the operators those closures implement,
// and maps the same at-least-once machinery onto real time:
//
//   - every mutating request carries a client-assigned request ID; servers
//     keep an applied-set per client and replay the cached response on a
//     duplicate, so lost responses never double-apply an update (mirrors
//     rpc.go). Request IDs are only unique within one client, so every
//     frame also carries the client's random 64-bit ID;
//   - every request carries the client's acknowledgement watermark — the
//     highest request ID below which nothing is still in flight — and the
//     server prunes that client's applied entries at or below it (mirrors
//     pruneApplied);
//   - a lost or stalled exchange surfaces as a connection deadline expiry,
//     which the client maps onto the same RetryConfig schedule the simnet
//     backend uses: resend after TimeoutSec, exponential backoff capped at
//     MaxBackoffSec when the endpoint looks dead, ErrEndpointDown after
//     MaxRetries attempts.
//
// Frame layout (little-endian). Request:
//
//	magic   uint16  0x5053 ("PS")
//	op      uint8   opcode, Op* below
//	flags   uint8   bit 0: request mutates server state (dedup applies)
//	client  uint64  random client ID; scopes reqID and ackedTo
//	reqID   uint64  dedup ID; 0 for read-only requests
//	ackedTo uint64  client's acknowledgement watermark
//	plen    uint32  payload length, ≤ MaxPayload
//	payload [plen]byte
//
// Response:
//
//	magic  uint16  0x5053
//	status uint8   0 = ok (payload is the result), 1 = application error
//	               (payload is the error text)
//	pad    uint8
//	plen   uint32
//	payload [plen]byte
//
// The transport conformance suite (conformance_test.go) pins the behaviours
// this backend must share with the simnet one: delivery, timeout surfacing,
// endpoint-down surfacing, and large-payload integrity.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Magic prefixes every frame in both directions.
const Magic uint16 = 0x5053

// MaxPayload bounds a single frame's payload; a peer announcing more is
// treated as a protocol violation and the connection is dropped.
const MaxPayload = 64 << 20

// Opcodes. The numbering is part of the wire format; append, never renumber.
const (
	OpPing        byte = 1 // echo the payload (liveness probe, conformance)
	OpCreateShard byte = 2 // allocate a matrix shard (idempotent)
	OpPullSparse  byte = 3 // read selected columns of one row
	OpPushAdd     byte = 4 // add sparse deltas into one row (mutates)
	OpFused       byte = 5 // run an op program atomically (mutates)
	OpPullRange   byte = 6 // read the shard's whole stretch of one row
	OpStats       byte = 7 // server-side counters
)

// FlagMutates marks a request whose effects must be exactly-once; the
// server tracks its reqID in the applied-set.
const FlagMutates byte = 1

// ErrTimeout classifies an attempt that died waiting on the socket — the
// real-time analogue of simnet.ErrMsgLost: resend, don't give up.
var ErrTimeout = errors.New("wire: request timed out")

// ErrEndpointDown classifies an endpoint that stayed unreachable through
// the whole retry schedule — the analogue of ps.ErrServerDown.
var ErrEndpointDown = errors.New("wire: endpoint down")

// ServerError is a status-1 response: the server executed the request and
// reported a deterministic application failure (bad matrix id, column out
// of the shard's range, malformed payload). It is never retried.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "wire: server error: " + e.Msg }

const (
	reqHeaderLen  = 32
	respHeaderLen = 8
)

// Frame is one decoded request.
type Frame struct {
	Op      byte
	Flags   byte
	Client  uint64
	ReqID   uint64
	AckedTo uint64
	Payload []byte
}

// Mutates reports whether the request's effects need dedup tracking.
func (f Frame) Mutates() bool { return f.Flags&FlagMutates != 0 }

// WriteFrame serializes one request onto w.
func WriteFrame(w io.Writer, f Frame) error {
	if len(f.Payload) > MaxPayload {
		return fmt.Errorf("wire: payload %d exceeds cap %d", len(f.Payload), MaxPayload)
	}
	var h [reqHeaderLen]byte
	binary.LittleEndian.PutUint16(h[0:], Magic)
	h[2] = f.Op
	h[3] = f.Flags
	binary.LittleEndian.PutUint64(h[4:], f.Client)
	binary.LittleEndian.PutUint64(h[12:], f.ReqID)
	binary.LittleEndian.PutUint64(h[20:], f.AckedTo)
	binary.LittleEndian.PutUint32(h[28:], uint32(len(f.Payload)))
	if _, err := w.Write(h[:]); err != nil {
		return err
	}
	_, err := w.Write(f.Payload)
	return err
}

// ReadFrame decodes one request from r, allocating a fresh payload.
func ReadFrame(r io.Reader) (Frame, error) {
	var f Frame
	err := ReadFrameReuse(r, &f, nil)
	return f, err
}

// ReadFrameReuse decodes one request from r into *f. When buf is non-nil the
// payload is read into *buf (grown as needed) and f.Payload aliases it, so a
// connection loop can reuse one buffer across frames instead of allocating
// per frame; the payload is only valid until the next ReadFrameReuse with the
// same buf. With a nil buf it behaves like ReadFrame.
func ReadFrameReuse(r io.Reader, f *Frame, buf *[]byte) error {
	// Read the header through the reuse buffer: a local array would escape
	// through the io.ReadFull interface call and cost an allocation per
	// frame. The payload read below overwrites it — header fields are parsed
	// into f first.
	if buf == nil {
		buf = new([]byte)
	}
	h := grow(buf, reqHeaderLen)
	if _, err := io.ReadFull(r, h); err != nil {
		return err
	}
	if m := binary.LittleEndian.Uint16(h[0:]); m != Magic {
		return fmt.Errorf("wire: bad magic %#x", m)
	}
	plen := binary.LittleEndian.Uint32(h[28:])
	if plen > MaxPayload {
		return fmt.Errorf("wire: payload %d exceeds cap %d", plen, MaxPayload)
	}
	f.Op = h[2]
	f.Flags = h[3]
	f.Client = binary.LittleEndian.Uint64(h[4:])
	f.ReqID = binary.LittleEndian.Uint64(h[12:])
	f.AckedTo = binary.LittleEndian.Uint64(h[20:])
	f.Payload = nil
	if plen > 0 {
		p := grow(buf, int(plen))
		if _, err := io.ReadFull(r, p); err != nil {
			return err
		}
		f.Payload = p
	}
	return nil
}

// grow resizes *buf to length n, reallocating only when capacity is short,
// and returns the sized slice.
func grow(buf *[]byte, n int) []byte {
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// WriteResponse serializes one response onto w. A nil appErr sends status 0
// with the result payload; otherwise status 1 with the error text.
func WriteResponse(w io.Writer, payload []byte, appErr error) error {
	status := byte(0)
	if appErr != nil {
		status = 1
		payload = []byte(appErr.Error())
	}
	if len(payload) > MaxPayload {
		return fmt.Errorf("wire: response payload %d exceeds cap %d", len(payload), MaxPayload)
	}
	var h [respHeaderLen]byte
	binary.LittleEndian.PutUint16(h[0:], Magic)
	h[2] = status
	binary.LittleEndian.PutUint32(h[4:], uint32(len(payload)))
	if _, err := w.Write(h[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadResponse decodes one response from r, allocating a fresh payload. A
// status-1 frame returns (nil, application error); transport failures return
// the IO error.
func ReadResponse(r io.Reader) ([]byte, error) {
	return ReadResponseReuse(r, nil)
}

// ReadResponseReuse decodes one response from r. When buf is non-nil the
// payload is read into *buf (grown as needed) and the returned slice aliases
// it — valid only until the next read into the same buf; callers that keep
// the payload must copy it out. With a nil buf it behaves like ReadResponse.
func ReadResponseReuse(r io.Reader, buf *[]byte) ([]byte, error) {
	// Same header-through-buffer trick as ReadFrameReuse: a local array
	// escapes via the io.ReadFull interface call.
	if buf == nil {
		buf = new([]byte)
	}
	h := grow(buf, respHeaderLen)
	if _, err := io.ReadFull(r, h); err != nil {
		return nil, err
	}
	if m := binary.LittleEndian.Uint16(h[0:]); m != Magic {
		return nil, fmt.Errorf("wire: bad magic %#x", m)
	}
	plen := binary.LittleEndian.Uint32(h[4:])
	status := h[2]
	if plen > MaxPayload {
		return nil, fmt.Errorf("wire: response payload %d exceeds cap %d", plen, MaxPayload)
	}
	payload := grow(buf, int(plen))
	if plen > 0 {
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, err
		}
	}
	if status != 0 {
		return nil, &ServerError{Msg: string(payload)}
	}
	return payload, nil
}
