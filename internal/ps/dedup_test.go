package ps

import (
	"testing"

	"repro/internal/linalg"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

// maxDedupSize returns the largest applied-set across servers.
func maxDedupSize(m *Master) int {
	max := 0
	for i := 0; i < m.NumServers(); i++ {
		if n := m.Server(i).DedupSize(); n > max {
			max = n
		}
	}
	return max
}

// TestDedupBoundedByWatermark drives many mutating calls through a lossy
// network and asserts the servers' dedup sets stay bounded: the master's
// acknowledgement watermark rides every request, so each server retires the
// entries of calls that can never be resent instead of accumulating one entry
// per mutation forever.
func TestDedupBoundedByWatermark(t *testing.T) {
	sim, cl, m := testMaster(3)
	sim.EnableChaos(42, 0.1, 0)
	m.Unreliable = true
	const rounds = 200
	run(sim, func(p *simnet.Proc) {
		mat, err := m.CreateMatrix(p, 1, 30)
		if err != nil {
			t.Fatal(err)
		}
		worker := cl.Executors[0]
		peak := 0
		for r := 0; r < rounds; r++ {
			sv, _ := linalg.NewSparse([]int{r % 30}, []float64{1})
			rdd.Check(mat.TryPushAdd(p, worker, 0, sv))
			if n := maxDedupSize(m); n > peak {
				peak = n
			}
		}
		// Each round issues at most one call per server; nothing older than
		// the in-flight window may survive on any server.
		if peak > 16 {
			t.Fatalf("dedup set peaked at %d entries over %d mutations; watermark not pruning", peak, rounds)
		}
		if m.Net.DedupPruned == 0 {
			t.Fatal("no dedup entries were ever pruned")
		}
		if len(m.outstanding) != 0 {
			t.Fatalf("%d request IDs still outstanding after all calls returned", len(m.outstanding))
		}
		if m.ackedTo != m.reqSeq {
			t.Fatalf("watermark %d lags reqSeq %d with nothing in flight", m.ackedTo, m.reqSeq)
		}
	})
}

// TestReadOnlyCallsAllocateNoIDs asserts the read-only invoke path stays out
// of the dedup machinery even in unreliable runs: reductions are naturally
// idempotent, so they must not grow the request-ID sequence or any server's
// applied set.
func TestReadOnlyCallsAllocateNoIDs(t *testing.T) {
	sim, cl, m := testMaster(3)
	m.Unreliable = true
	run(sim, func(p *simnet.Proc) {
		mat, err := m.CreateMatrix(p, 1, 30)
		if err != nil {
			t.Fatal(err)
		}
		worker := cl.Executors[0]
		vals := make([]float64, 30)
		for i := range vals {
			vals[i] = float64(i % 5)
		}
		rdd.Check(mat.TrySetRow(p, worker, 0, vals))
		seqAfterWrite := m.reqSeq
		rdd.Must(mat.TryRowSum(p, worker, 0))
		rdd.Must(mat.TryRowNnz(p, worker, 0))
		rdd.Must(mat.TryRowNorm2(p, worker, 0))
		if _, err := mat.TryPullRow(p, worker, 0); err != nil {
			t.Fatal(err)
		}
		if m.reqSeq != seqAfterWrite {
			t.Fatalf("read-only operators allocated %d request IDs", m.reqSeq-seqAfterWrite)
		}
	})
}

// TestCrashResetsPruneWatermark asserts a recovered server re-enters the
// dedup protocol cleanly: its incarnation-local applied set and prune cursor
// both restart at zero, and subsequent mutations still dedup and prune.
func TestCrashResetsPruneWatermark(t *testing.T) {
	sim, cl, m := testMaster(3)
	m.Unreliable = true
	run(sim, func(p *simnet.Proc) {
		mat, err := m.CreateMatrix(p, 1, 30)
		if err != nil {
			t.Fatal(err)
		}
		worker := cl.Executors[0]
		for r := 0; r < 10; r++ {
			sv, _ := linalg.NewSparse([]int{r}, []float64{1})
			rdd.Check(mat.TryPushAdd(p, worker, 0, sv))
		}
		m.CrashServer(0)
		m.RecoverServer(p, 0)
		if got := m.Server(0).prunedTo; got != 0 {
			t.Fatalf("recovered server prune cursor = %d, want 0", got)
		}
		if got := m.Server(0).DedupSize(); got != 0 {
			t.Fatalf("recovered server applied set has %d entries, want 0", got)
		}
		for r := 0; r < 10; r++ {
			sv, _ := linalg.NewSparse([]int{r}, []float64{1})
			rdd.Check(mat.TryPushAdd(p, worker, 0, sv))
		}
		if n := maxDedupSize(m); n > 16 {
			t.Fatalf("dedup set grew to %d entries after recovery", n)
		}
	})
}
