package ps

// Regression tests for the untraced hot paths. Every run here keeps the
// tracer disabled (testMaster never calls Sim.EnableTrace), so any call site
// that dereferences the tracer without a nil guard panics the simulation.
// The two scenarios pinned are the ones production code reaches only under
// failure: a server's dedup set absorbing a retried mutation (rpc.go), and
// the failure detector declaring a server dead (detector.go).

import (
	"testing"

	"repro/internal/linalg"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

// TestDedupHitWithoutTracer drives mutations through a lossy network with
// tracing off. Lost responses force the client to resend requests the server
// already applied, so the dedup-hit branch — which emits a KDedupHit instant
// when traced — must run repeatedly without a tracer present.
func TestDedupHitWithoutTracer(t *testing.T) {
	sim, cl, m := testMaster(3)
	if sim.Tracer() != nil {
		t.Fatal("precondition: tracer must be disabled")
	}
	sim.EnableChaos(7, 0.15, 0)
	m.Unreliable = true
	run(sim, func(p *simnet.Proc) {
		mat, err := m.CreateMatrix(p, 1, 30)
		if err != nil {
			t.Fatal(err)
		}
		worker := cl.Executors[0]
		for r := 0; r < 300; r++ {
			sv, _ := linalg.NewSparse([]int{r % 30}, []float64{1})
			rdd.Check(mat.TryPushAdd(p, worker, 0, sv))
		}
		if m.Net.DedupHits == 0 {
			t.Fatal("no dedup hits: the scenario never exercised the branch under test")
		}
		// Exactly-once held across every retried mutation: 300 increments of
		// +1 spread over 30 columns.
		row := rdd.Must(mat.TryPullRow(p, worker, 0))
		for c, v := range row {
			if v != 10 {
				t.Fatalf("col %d = %v after 300 pushes, want 10 (dedup replay corrupted state)", c, v)
			}
		}
	})
}

// TestDetectorFiresWithoutTracer crashes a server with tracing off and lets
// the monitor detect and auto-recover it. The declaration branch emits a
// KDetect instant and opens a KDetectWin span when traced; untraced it must
// complete the whole fence-replace-restore pipeline without panicking.
func TestDetectorFiresWithoutTracer(t *testing.T) {
	sim, cl, m := testMaster(4)
	if sim.Tracer() != nil {
		t.Fatal("precondition: tracer must be disabled")
	}
	run(sim, func(p *simnet.Proc) {
		mat, _ := m.CreateMatrix(p, 1, 40)
		worker := cl.Executors[0]
		vals := make([]float64, 40)
		for i := range vals {
			vals[i] = float64(i)
		}
		rdd.Check(mat.TrySetRow(p, worker, 0, vals))
		m.Checkpoint(p, mat)

		m.StartMonitor(DefaultDetectorConfig())
		defer m.StopMonitor()

		m.CrashServer(1)
		p.Sleep(5) // several heartbeat rounds: detect + recover

		if m.Recovery.Detections != 1 {
			t.Fatalf("Detections = %d, want 1", m.Recovery.Detections)
		}
		if m.Recovery.Recoveries != 1 {
			t.Fatalf("Recoveries = %d, want 1", m.Recovery.Recoveries)
		}
		row := rdd.Must(mat.TryPullRow(p, worker, 0))
		for c, v := range row {
			if v != vals[c] {
				t.Fatalf("col %d = %v after untraced recovery, want %v", c, v, vals[c])
			}
		}
	})
}

// TestSimnetTransportAccounting pins the default backend's bookkeeping: the
// master boots with the simnet transport installed, data-plane traffic lands
// in its counters, and chaos-induced losses show up as send errors rather
// than delivered bytes.
func TestSimnetTransportAccounting(t *testing.T) {
	sim, cl, m := testMaster(3)
	if got := m.Transport().Name(); got != "simnet" {
		t.Fatalf("default transport = %q, want simnet", got)
	}
	sim.EnableChaos(11, 0.1, 0)
	m.Unreliable = true
	run(sim, func(p *simnet.Proc) {
		mat, err := m.CreateMatrix(p, 1, 30)
		if err != nil {
			t.Fatal(err)
		}
		worker := cl.Executors[0]
		for r := 0; r < 100; r++ {
			sv, _ := linalg.NewSparse([]int{r % 30}, []float64{1})
			rdd.Check(mat.TryPushAdd(p, worker, 0, sv))
		}
		st := m.Transport().Stats()
		if st.Sends == 0 || st.Bytes <= 0 {
			t.Fatalf("transport recorded no delivered traffic: %+v", st)
		}
		if st.SendErrors == 0 {
			t.Fatalf("10%% loss over 100 mutations produced no transport errors: %+v", st)
		}
	})
}

// TestSetTransportNilRestoresDefault pins the reset semantics SetTransport
// documents: a nil argument reinstalls a fresh simnet backend.
func TestSetTransportNilRestoresDefault(t *testing.T) {
	_, _, m := testMaster(2)
	m.SetTransport(nil)
	if m.Transport() == nil || m.Transport().Name() != "simnet" {
		t.Fatal("SetTransport(nil) did not restore the simnet backend")
	}
}
