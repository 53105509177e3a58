package wire

// The transport conformance suite: each test pins one behaviour both
// backends of the ps transport seam must share, with one subtest driving
// the simnet backend (ps.SimnetTransport on virtual time) and one driving
// this package's TCP backend on real sockets.
//
//   delivery       a send between live endpoints succeeds and is counted
//   timeout        a lost/stalled exchange surfaces as a retryable timeout
//                  signal, not a hang and not a permanent failure
//   endpoint-down  a dead endpoint surfaces as the down-classified error
//   large-payload  multi-megabyte payloads survive the trip intact
//   exactly-once   a resent mutating request applies once (TCP only: the
//                  simnet side of this contract is pinned by the ps dedup
//                  tests, which drive the same machinery through chaos)

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/ps"
	"repro/internal/simnet"
)

// fastRetry keeps conformance failures quick: ~100ms per attempt.
func fastRetry() Retry {
	return Retry{
		Timeout:    100 * time.Millisecond,
		Backoff:    10 * time.Millisecond,
		MaxBackoff: 40 * time.Millisecond,
		MaxRetries: 3,
	}
}

// simPair builds a one-executor, one-server simulated cluster and runs fn
// on a spawned process with a fresh simnet transport.
func simPair(t *testing.T, fn func(p *simnet.Proc, tr *ps.SimnetTransport, from, to *simnet.Node)) {
	t.Helper()
	sim := simnet.New()
	cfg := cluster.DefaultConfig()
	cfg.Executors = 1
	cfg.Servers = 1
	cl := cluster.New(sim, cfg)
	tr := ps.NewSimnetTransport()
	sim.Spawn("conformance", func(p *simnet.Proc) {
		fn(p, tr, cl.Executors[0], cl.Servers[0])
	})
	sim.Run()
}

// startServer boots a wire server on a loopback port and returns it with
// its address; cleanup closes it.
func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	srv := NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)
	return srv, addr
}

func TestConformanceDelivery(t *testing.T) {
	t.Run("simnet", func(t *testing.T) {
		simPair(t, func(p *simnet.Proc, tr *ps.SimnetTransport, from, to *simnet.Node) {
			if err := tr.Send(p, from, to, 1024); err != nil {
				t.Errorf("send between live endpoints failed: %v", err)
			}
			st := tr.Stats()
			if st.Sends != 1 || st.Bytes != 1024 {
				t.Errorf("stats = %+v, want 1 send of 1024B", st)
			}
		})
	})
	t.Run("tcp", func(t *testing.T) {
		_, addr := startServer(t)
		c := NewClient([]string{addr}, fastRetry())
		defer c.Close()
		got, err := c.Ping(0, []byte("conformance"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, []byte("conformance")) {
			t.Fatalf("echo = %q", got)
		}
		if st := c.Stats(); st.Calls != 1 || st.BytesOut == 0 || st.BytesIn == 0 {
			t.Fatalf("stats = %+v, want 1 counted call with traffic", st)
		}
	})
}

func TestConformanceTimeout(t *testing.T) {
	t.Run("simnet", func(t *testing.T) {
		// Total message loss: the send must surface ErrMsgLost — the signal
		// CallShard maps to its timeout-and-resend wait — not block forever
		// and not report the endpoint down.
		sim := simnet.New()
		cfg := cluster.DefaultConfig()
		cfg.Executors = 1
		cfg.Servers = 1
		cl := cluster.New(sim, cfg)
		sim.EnableChaos(1, 1.0, 0)
		tr := ps.NewSimnetTransport()
		sim.Spawn("conformance", func(p *simnet.Proc) {
			err := tr.Send(p, cl.Executors[0], cl.Servers[0], 256)
			if !errors.Is(err, simnet.ErrMsgLost) {
				t.Errorf("err = %v, want ErrMsgLost", err)
			}
			if tr.Stats().SendErrors != 1 {
				t.Errorf("stats = %+v, want 1 send error", tr.Stats())
			}
		})
		sim.Run()
	})
	t.Run("tcp", func(t *testing.T) {
		// A listener that accepts and reads but never answers: every
		// attempt must die on the deadline and the call must classify as
		// timeout after the schedule is exhausted.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				go func(c net.Conn) {
					defer c.Close()
					buf := make([]byte, 4096)
					for {
						if _, err := c.Read(buf); err != nil {
							return
						}
					}
				}(conn)
			}
		}()
		c := NewClient([]string{ln.Addr().String()}, fastRetry())
		defer c.Close()
		_, err = c.Ping(0, []byte("x"))
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("err = %v, want ErrTimeout class", err)
		}
		st := c.Stats()
		if st.Attempts != uint64(fastRetry().MaxRetries) {
			t.Fatalf("attempts = %d, want %d (full retry schedule)", st.Attempts, fastRetry().MaxRetries)
		}
		if st.Timeouts == 0 {
			t.Fatalf("stats = %+v, want counted timeouts", st)
		}
	})
}

func TestConformanceEndpointDown(t *testing.T) {
	t.Run("simnet", func(t *testing.T) {
		simPair(t, func(p *simnet.Proc, tr *ps.SimnetTransport, from, to *simnet.Node) {
			to.Fail()
			if tr.Up(to) {
				t.Error("Up() true for failed node")
			}
			if err := tr.Send(p, from, to, 256); !errors.Is(err, simnet.ErrNodeDown) {
				t.Errorf("err = %v, want ErrNodeDown", err)
			}
		})
	})
	t.Run("tcp", func(t *testing.T) {
		// Bind a port, then close it: nothing listens there afterwards.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		c := NewClient([]string{addr}, fastRetry())
		defer c.Close()
		_, err = c.Ping(0, nil)
		if !errors.Is(err, ErrEndpointDown) {
			t.Fatalf("err = %v, want ErrEndpointDown class", err)
		}
	})
}

func TestConformanceLargePayload(t *testing.T) {
	const size = 8 << 20
	t.Run("simnet", func(t *testing.T) {
		simPair(t, func(p *simnet.Proc, tr *ps.SimnetTransport, from, to *simnet.Node) {
			before := p.Now()
			if err := tr.Send(p, from, to, size); err != nil {
				t.Errorf("large send failed: %v", err)
			}
			if p.Now() <= before {
				t.Error("large transfer advanced no virtual time")
			}
			if tr.Stats().Bytes != size {
				t.Errorf("bytes = %v, want %v", tr.Stats().Bytes, float64(size))
			}
		})
	})
	t.Run("tcp", func(t *testing.T) {
		_, addr := startServer(t)
		// Large transfers need a deadline that covers the copy.
		r := fastRetry()
		r.Timeout = 5 * time.Second
		c := NewClient([]string{addr}, r)
		defer c.Close()
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i * 31)
		}
		got, err := c.Ping(0, payload)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("large payload corrupted in transit")
		}
	})
}

// TestConformanceExactlyOnce resends a mutating frame with the same request
// ID — the wire picture of a client retrying after a lost response — and
// asserts the server applies it once and replays the cached response. The
// follow-up frame carries an advanced watermark and must prune the entry.
func TestConformanceExactlyOnce(t *testing.T) {
	srv, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)

	send := func(f Frame) []byte {
		t.Helper()
		if err := WriteFrame(conn, f); err != nil {
			t.Fatal(err)
		}
		resp, err := ReadResponse(r)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	send(Frame{Op: OpCreateShard, Flags: FlagMutates, ReqID: 1,
		Payload: encodeCreateShard(1, 1, 0, 10)})
	push := Frame{Op: OpPushAdd, Flags: FlagMutates, ReqID: 2,
		Payload: encodePushAdd(1, 0, []int{3}, []float64{5})}
	send(push)
	send(push) // duplicate: must dedup, not double-apply

	resp := send(Frame{Op: OpPullSparse, Payload: encodePullSparseReq(1, 0, []int{3})})
	vals, err := decodeVals(resp)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 5 {
		t.Fatalf("col 3 = %v after duplicate push, want 5 (exactly-once violated)", vals[0])
	}
	if hits := srv.Stats().DedupHits; hits != 1 {
		t.Fatalf("DedupHits = %d, want 1", hits)
	}

	// Watermark 2 retires both entries; a replayed ID below it would
	// re-apply, which is fine — the client guarantees it never resends
	// acknowledged IDs. Here we only check the prune happened.
	send(Frame{Op: OpPullSparse, AckedTo: 2, Payload: encodePullSparseReq(1, 0, []int{3})})
	if n := appliedEntries(srv); n != 0 {
		t.Fatalf("applied-set has %d entries after watermark prune, want 0", n)
	}
}

// TestClientWatermarkAdvances drives sequential mutations through the real
// client and checks the server's applied-set stays pruned, mirroring
// ps's TestDedupBoundedByWatermark on the wire backend.
func TestClientWatermarkAdvances(t *testing.T) {
	srv, addr := startServer(t)
	c := NewClient([]string{addr}, fastRetry())
	defer c.Close()
	if err := c.CreateShard(0, 1, 1, 0, 10); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := c.PushAdd(0, 1, 0, []int{i % 10}, []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	// Sequential calls: at most the latest entry survives (its ack rides
	// the next request).
	if n := appliedEntries(srv); n > 1 {
		t.Fatalf("applied-set has %d entries after 51 sequential mutations, want ≤ 1", n)
	}
	vals, err := c.PullSparse(0, 1, 0, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v != 5 {
			t.Fatalf("col %d = %v, want 5", i, v)
		}
	}
}
