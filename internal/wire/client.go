package wire

// Client is the worker side of the protocol: one logical endpoint per PS
// server address, each with a small connection pool, request-ID allocation
// and the acknowledgement watermark, and a deadline-based retry loop that
// maps ps.RetryConfig's virtual-time schedule onto wall-clock time:
//
//	simnet backend                      wire backend
//	------------------------------      -----------------------------------
//	lost message → wait TimeoutSec      read/write deadline of TimeoutSec
//	  then resend (same reqID)            expires → resend (same reqID)
//	server down → backoff sleep,        dial refused / conn reset → backoff
//	  doubling to MaxBackoffSec           sleep, doubling to MaxBackoffSec
//	MaxRetries exhausted →              MaxRetries exhausted →
//	  ps.ErrServerDown                    wire.ErrEndpointDown

import (
	"bufio"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/arena"
	"repro/internal/ps"
)

// Retry is the wall-clock retry schedule. Zero value is unusable; use
// DefaultRetry or RetryFromPS.
type Retry struct {
	Timeout    time.Duration // per-attempt deadline before a resend
	Backoff    time.Duration // first wait when the endpoint looks dead
	MaxBackoff time.Duration // backoff cap
	MaxRetries int           // attempts before ErrEndpointDown
}

// RetryFromPS converts the simulated schedule into its wall-clock twin,
// second for second.
func RetryFromPS(rc ps.RetryConfig) Retry {
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	return Retry{
		Timeout:    sec(rc.TimeoutSec),
		Backoff:    sec(rc.BackoffSec),
		MaxBackoff: sec(rc.MaxBackoffSec),
		MaxRetries: rc.MaxRetries,
	}
}

// DefaultRetry mirrors ps.DefaultRetryConfig on the wall clock.
func DefaultRetry() Retry { return RetryFromPS(ps.DefaultRetryConfig()) }

// ClientStats counts the client's traffic across all endpoints.
type ClientStats struct {
	Calls    uint64 // logical calls issued
	Attempts uint64 // frames actually sent (> Calls under retries)
	Timeouts uint64 // attempts killed by the per-attempt deadline
	Redials  uint64 // attempts that had to re-establish a connection
	BytesOut uint64
	BytesIn  uint64
}

// poolConn is a pooled connection with its buffered reader/writer and the
// response payload buffer, all reused across exchanges so the steady-state
// round trip allocates nothing. The rbuf contents are only valid between an
// exchange and the connection's release back to the pool — hence
// callDecode's decode-before-release discipline.
type poolConn struct {
	net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	rbuf []byte
}

// endpoint is one server address plus its idle-connection pool.
type endpoint struct {
	addr string
	pool chan *poolConn
}

// Client talks the wire protocol to a fixed set of server endpoints,
// indexed the same way the range partitioner indexes servers. Safe for
// concurrent use.
type Client struct {
	eps   []*endpoint
	retry Retry
	id    uint64 // random, non-zero; scopes request IDs on the servers

	mu          sync.Mutex
	reqSeq      uint64
	outstanding map[uint64]struct{}
	ackedTo     uint64
	stats       ClientStats
}

// poolSize bounds idle connections kept per endpoint; concurrent calls
// beyond it dial extra connections and close them when done.
const poolSize = 4

// NewClient returns a client for the given endpoints. Connections are
// dialed lazily on first use.
func NewClient(addrs []string, retry Retry) *Client {
	c := &Client{
		eps:         make([]*endpoint, len(addrs)),
		retry:       retry,
		id:          newClientID(),
		outstanding: make(map[uint64]struct{}),
	}
	for i, a := range addrs {
		c.eps[i] = &endpoint{addr: a, pool: make(chan *poolConn, poolSize)}
	}
	return c
}

// newClientID draws a random non-zero client ID (zero is left to hand-built
// frames that carry none). Every client numbers its requests from 1, so the
// servers' dedup state is keyed by this ID too. A failing crypto/rand means
// the platform has no entropy source, which the Go runtime itself treats as
// fatal from 1.24 on.
func newClientID() uint64 {
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			panic(fmt.Sprintf("wire: client ID: %v", err))
		}
		if id := binary.LittleEndian.Uint64(b[:]); id != 0 {
			return id
		}
	}
}

// Servers returns the endpoint count.
func (c *Client) Servers() int { return len(c.eps) }

// Stats returns a copy of the traffic counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Close drops every pooled connection. In-flight calls finish on their own
// connections.
func (c *Client) Close() {
	for _, ep := range c.eps {
		for {
			select {
			case conn := <-ep.pool:
				conn.Close()
			default:
				goto next
			}
		}
	next:
	}
}

// begin allocates a request ID for a mutating call and snapshots the
// watermark to ride with it.
func (c *Client) begin(mutates bool) (reqID, ackedTo uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Calls++
	if mutates {
		c.reqSeq++
		reqID = c.reqSeq
		c.outstanding[reqID] = struct{}{}
	}
	return reqID, c.ackedTo
}

// finish retires a mutating call's ID and advances the watermark to the
// highest ID below which nothing is in flight.
func (c *Client) finish(reqID uint64) {
	if reqID == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.outstanding, reqID)
	if len(c.outstanding) == 0 {
		c.ackedTo = c.reqSeq
		return
	}
	min := c.reqSeq
	for id := range c.outstanding {
		if id < min {
			min = id
		}
	}
	c.ackedTo = min - 1
}

func (c *Client) count(f func(st *ClientStats)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
}

// Call sends one operator to server s and returns the response payload as a
// fresh allocation the caller owns. Mutating calls are exactly-once across
// retries (server-side dedup); the retry loop resends on deadline expiry and
// backs off on connection errors, returning an error wrapping ErrTimeout or
// ErrEndpointDown after MaxRetries attempts. A status-1 application error is
// returned as-is and never retried — it is deterministic, not a transport
// fault.
func (c *Client) Call(s int, op byte, mutates bool, payload []byte) ([]byte, error) {
	var out []byte
	err := c.callDecode(s, op, mutates, payload, func(resp []byte) error {
		out = append([]byte(nil), resp...)
		return nil
	})
	return out, err
}

// callDecode is the allocation-free core of Call: the response payload is
// handed to decode while it still aliases the pooled connection's read
// buffer, and the connection is only released afterwards. decode must not
// retain the slice. It is invoked at most once, on the successful attempt.
func (c *Client) callDecode(s int, op byte, mutates bool, payload []byte, decode func(resp []byte) error) error {
	if s < 0 || s >= len(c.eps) {
		return fmt.Errorf("wire: server index %d out of range [0,%d)", s, len(c.eps))
	}
	ep := c.eps[s]
	reqID, ackedTo := c.begin(mutates)
	defer c.finish(reqID)

	flags := byte(0)
	if mutates {
		flags = FlagMutates
	}
	f := Frame{Op: op, Flags: flags, Client: c.id, ReqID: reqID, AckedTo: ackedTo, Payload: payload}

	backoff := c.retry.Backoff
	var lastClass error = ErrEndpointDown
	var lastErr error
	for attempt := 0; attempt < c.retry.MaxRetries; attempt++ {
		pc, fresh, err := c.dial(ep)
		if err != nil {
			lastClass, lastErr = ErrEndpointDown, err
			c.count(func(st *ClientStats) { st.Redials++ })
			time.Sleep(backoff)
			backoff = minDuration(backoff*2, c.retry.MaxBackoff)
			continue
		}
		if fresh {
			c.count(func(st *ClientStats) { st.Redials++ })
		}
		resp, err := c.exchange(pc, f)
		if err == nil {
			// Decode before release: resp aliases pc.rbuf, which the next
			// user of this pooled connection will overwrite.
			derr := decode(resp)
			c.release(ep, pc)
			return derr
		}
		pc.Close() // connection state is suspect after any failure
		var appErr *appError
		if errors.As(err, &appErr) {
			return appErr.err
		}
		var nerr net.Error
		if errors.As(err, &nerr) && nerr.Timeout() {
			// The deadline already consumed TimeoutSec of waiting — resend
			// immediately, exactly like the simnet loop after its timeout
			// sleep.
			lastClass, lastErr = ErrTimeout, err
			c.count(func(st *ClientStats) { st.Timeouts++ })
			continue
		}
		// Reset/EOF mid-exchange: endpoint restarting or gone; back off.
		lastClass, lastErr = ErrEndpointDown, err
		time.Sleep(backoff)
		backoff = minDuration(backoff*2, c.retry.MaxBackoff)
	}
	return fmt.Errorf("wire: server %d (%s) unreachable after %d attempts: %w (last: %v)",
		s, ep.addr, c.retry.MaxRetries, lastClass, lastErr)
}

// appError wraps a status-1 response so Call can tell it apart from
// transport failures.
type appError struct{ err error }

func (e *appError) Error() string { return e.err.Error() }

// dial returns a pooled connection or establishes a new one; fresh reports
// whether a new dial happened. The bufio pair lives with the connection so
// an exchange does not rebuild 4-KiB buffers per attempt.
func (c *Client) dial(ep *endpoint) (pc *poolConn, fresh bool, err error) {
	select {
	case pc = <-ep.pool:
		return pc, false, nil
	default:
	}
	conn, err := net.DialTimeout("tcp", ep.addr, c.retry.Timeout)
	if err != nil {
		return nil, true, err
	}
	return &poolConn{Conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}, true, nil
}

// release parks the connection back into the pool, or closes it if the
// pool is full.
func (c *Client) release(ep *endpoint, pc *poolConn) {
	select {
	case ep.pool <- pc:
	default:
		pc.Close()
	}
}

// exchange runs one request/response round trip under the per-attempt
// deadline. The returned payload aliases pc.rbuf — valid until the
// connection's next exchange. A server-reported application error is wrapped
// in appError.
func (c *Client) exchange(pc *poolConn, f Frame) ([]byte, error) {
	if err := pc.SetDeadline(time.Now().Add(c.retry.Timeout)); err != nil {
		return nil, err
	}
	if err := WriteFrame(pc.bw, f); err != nil {
		return nil, err
	}
	if err := pc.bw.Flush(); err != nil {
		return nil, err
	}
	c.count(func(st *ClientStats) {
		st.Attempts++
		st.BytesOut += uint64(reqHeaderLen + len(f.Payload))
	})
	resp, err := ReadResponseReuse(pc.br, &pc.rbuf)
	if err != nil {
		var sErr *ServerError
		if errors.As(err, &sErr) {
			// The server executed the request and reported a deterministic
			// failure; retrying cannot help.
			return nil, &appError{err: err}
		}
		return nil, err // transport: timeout, reset, EOF on a stale conn
	}
	c.count(func(st *ClientStats) { st.BytesIn += uint64(respHeaderLen + len(resp)) })
	return resp, nil
}

func minDuration(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}

// --- Operator wrappers ---

// Ping round-trips payload through server s unchanged.
func (c *Client) Ping(s int, payload []byte) ([]byte, error) {
	return c.Call(s, OpPing, false, payload)
}

// CreateShard allocates (idempotently) a rows × [lo,hi) shard of matrix mat
// on server s.
func (c *Client) CreateShard(s int, mat uint32, rows, lo, hi int) error {
	_, err := c.Call(s, OpCreateShard, true, encodeCreateShard(mat, rows, lo, hi))
	return err
}

// PullSparse reads the given columns of one row from server s. Columns must
// lie inside the server's shard range.
func (c *Client) PullSparse(s int, mat uint32, row int, cols []int) ([]float64, error) {
	var out []float64
	if err := c.PullSparseInto(s, mat, row, cols, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// PullSparseInto is PullSparse decoding into caller scratch: *valsBuf is
// grown as needed and resized to len(cols). Steady-state calls with a warm
// buffer allocate nothing beyond the pooled request payload.
func (c *Client) PullSparseInto(s int, mat uint32, row int, cols []int, valsBuf *[]float64) error {
	req := AppendPullSparseReq(arena.Bytes(0), mat, row, cols)
	defer arena.PutBytes(req)
	return c.callDecode(s, OpPullSparse, false, req, func(resp []byte) error {
		vals, err := DecodeValsInto(resp, valsBuf)
		if err != nil {
			return err
		}
		if len(vals) != len(cols) {
			return fmt.Errorf("wire: pulled %d values for %d columns", len(vals), len(cols))
		}
		return nil
	})
}

// PushAdd adds sparse deltas into one row on server s, exactly once.
func (c *Client) PushAdd(s int, mat uint32, row int, cols []int, vals []float64) error {
	if len(cols) != len(vals) {
		return fmt.Errorf("wire: %d columns vs %d values", len(cols), len(vals))
	}
	req := AppendPushAdd(arena.Bytes(0), mat, row, cols, vals)
	defer arena.PutBytes(req)
	return c.callDecode(s, OpPushAdd, true, req, func([]byte) error { return nil })
}

// Fused runs an op program atomically on server s, exactly once.
func (c *Client) Fused(s int, mat uint32, ops []FusedOp) error {
	req := AppendFused(arena.Bytes(0), mat, ops)
	defer arena.PutBytes(req)
	return c.callDecode(s, OpFused, true, req, func([]byte) error { return nil })
}

// PullRange reads server s's whole stretch of one row, returning the range
// start and the values.
func (c *Client) PullRange(s int, mat uint32, row int) (lo int, vals []float64, err error) {
	err = c.PullRangeInto(s, mat, row, &lo, &vals)
	return lo, vals, err
}

// PullRangeInto is PullRange decoding into caller scratch.
func (c *Client) PullRangeInto(s int, mat uint32, row int, lo *int, valsBuf *[]float64) error {
	req := AppendPullRangeReq(arena.Bytes(0), mat, row)
	defer arena.PutBytes(req)
	return c.callDecode(s, OpPullRange, false, req, func(resp []byte) error {
		l, _, err := DecodePullRangeRespInto(resp, valsBuf)
		if err != nil {
			return err
		}
		*lo = l
		return nil
	})
}

// ServerStats fetches server s's traffic counters.
func (c *Client) ServerStats(s int) (ServerStats, error) {
	resp, err := c.Call(s, OpStats, false, nil)
	if err != nil {
		return ServerStats{}, err
	}
	return decodeStatsResp(resp)
}
