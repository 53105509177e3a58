package dcv

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/ps"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b)) }

// TestBatchMatchesUnfusedOps runs a mixed program through one fused batch and
// checks the final vector state and every reduction against host-side math —
// the same results the unfused operator sequence produces.
func TestBatchMatchesUnfusedOps(t *testing.T) {
	sim, cl, sess := testSession(4)
	run(sim, func(p *simnet.Proc) {
		driver := cl.Driver
		w, err := sess.Dense(p, 50, 4)
		if err != nil {
			t.Fatal(err)
		}
		a := rdd.Must(w.Derive())
		g := rdd.Must(w.Derive())
		rdd.Check(w.TrySet(p, driver, seq(50)))

		b := NewBatch(w)
		b.Fill(a, 2).Axpy(a, 3, w).Scale(a, 0.5)
		b.Zero(g).AddVec(g, a).SubVec(g, w)
		dotAW := b.Dot(a, w)
		sumG := b.Sum(g)
		normW := b.Norm2(w)
		b.ZipMap(a, 1, func(lo int, rows [][]float64) {
			at, gt := rows[0], rows[1]
			for i := range at {
				at[i] += gt[i]
			}
		}, g)
		if b.Len() != 10 {
			t.Fatalf("recorded %d ops, want 10", b.Len())
		}
		if err := b.Run(p, driver); err != nil {
			t.Fatal(err)
		}

		// Host-side replay of the same program.
		wantA := make([]float64, 50)
		wantG := make([]float64, 50)
		var wantDot, wantSum, wantNorm float64
		for i := range wantA {
			wi := float64(i)
			ai := (2 + 3*wi) * 0.5
			gi := ai - wi
			wantDot += ai * wi
			wantSum += gi
			wantNorm += wi * wi
			wantA[i] = ai + gi
			wantG[i] = gi
		}
		wantNorm = math.Sqrt(wantNorm)

		gotA := rdd.Must(a.TryPull(p, driver))
		gotG := rdd.Must(g.TryPull(p, driver))
		for i := range wantA {
			if !approx(gotA[i], wantA[i]) || !approx(gotG[i], wantG[i]) {
				t.Fatalf("col %d: a=%v g=%v, want %v / %v", i, gotA[i], gotG[i], wantA[i], wantG[i])
			}
		}
		if !approx(dotAW.Value(), wantDot) {
			t.Fatalf("dot = %v, want %v", dotAW.Value(), wantDot)
		}
		if !approx(sumG.Value(), wantSum) {
			t.Fatalf("sum = %v, want %v", sumG.Value(), wantSum)
		}
		if !approx(normW.Value(), wantNorm) {
			t.Fatalf("norm2 = %v, want %v", normW.Value(), wantNorm)
		}
	})
}

// TestBatchOneRequestPerServer asserts the whole point of fusion: a batch of
// k ops costs exactly one logical call per server, not k fan-outs.
func TestBatchOneRequestPerServer(t *testing.T) {
	sim, cl, sess := testSession(4)
	run(sim, func(p *simnet.Proc) {
		w, err := sess.Dense(p, 40, 3)
		if err != nil {
			t.Fatal(err)
		}
		a := rdd.Must(w.Derive())
		before := sess.Master.Net.Calls
		b := NewBatch(w).Fill(a, 1).Axpy(a, 2, w).Scale(a, 0.25)
		b.Sum(a)
		if err := b.Run(p, cl.Driver); err != nil {
			t.Fatal(err)
		}
		if got := sess.Master.Net.Calls - before; got != 4 {
			t.Fatalf("batch of 4 ops cost %d calls, want 4 (one per server)", got)
		}
		if sess.Master.Net.FusedOps < 4 {
			t.Fatalf("FusedOps = %d, want >= 4", sess.Master.Net.FusedOps)
		}
	})
}

// TestBatchRejectsNonColocated asserts recording against a foreign matrix is
// remembered and surfaced by Run without any communication.
func TestBatchRejectsNonColocated(t *testing.T) {
	sim, cl, sess := testSession(3)
	run(sim, func(p *simnet.Proc) {
		w, _ := sess.Dense(p, 20)
		other, _ := sess.Dense(p, 20)
		before := sess.Master.Net.Calls
		b := NewBatch(w).Axpy(w, 1, other)
		if err := b.Run(p, cl.Driver); !errors.Is(err, ErrNotColocated) {
			t.Fatalf("err = %v, want ErrNotColocated", err)
		}
		if sess.Master.Net.Calls != before {
			t.Fatal("failed batch still issued calls")
		}
		// A nil operand is also a recording error, not a panic.
		b2 := NewBatch(w).Fill(nil, 0)
		if err := b2.Run(p, cl.Driver); err == nil {
			t.Fatal("nil vector accepted")
		}
	})
}

func TestBatchSingleUse(t *testing.T) {
	sim, cl, sess := testSession(2)
	run(sim, func(p *simnet.Proc) {
		w, _ := sess.Dense(p, 10)
		b := NewBatch(w).Fill(w, 1)
		if err := b.Run(p, cl.Driver); err != nil {
			t.Fatal(err)
		}
		if err := b.Run(p, cl.Driver); err == nil {
			t.Fatal("second Run succeeded")
		}
	})
}

func TestScalarPanicsBeforeRun(t *testing.T) {
	sim, _, sess := testSession(2)
	run(sim, func(p *simnet.Proc) {
		w, _ := sess.Dense(p, 10)
		sc := NewBatch(w).Sum(w)
		defer func() {
			if recover() == nil {
				t.Error("Scalar read before Run did not panic")
			}
		}()
		sc.Value()
	})
}

// TestBatchExactlyOnceUnderChaos repeats a fused increment through a lossy
// network: the batch rides one dedup'd CallShard per server, so retried
// requests must apply the mutation exactly once.
func TestBatchExactlyOnceUnderChaos(t *testing.T) {
	sim, cl, sess := testSession(3)
	sim.EnableChaos(7, 0.15, 0)
	sess.Master.Unreliable = true
	const rounds = 60
	run(sim, func(p *simnet.Proc) {
		w, err := sess.Dense(p, 30, 2)
		if err != nil {
			t.Fatal(err)
		}
		ones := rdd.Must(w.Derive())
		rdd.Check(ones.TryFill(p, cl.Driver, 1))
		rdd.Check(w.TrySet(p, cl.Driver, make([]float64, 30)))
		for r := 0; r < rounds; r++ {
			if err := NewBatch(w).Axpy(w, 1, ones).Run(p, cl.Driver); err != nil {
				t.Fatal(err)
			}
		}
		got := rdd.Must(w.TryPull(p, cl.Driver))
		for c, v := range got {
			if v != rounds {
				t.Fatalf("col %d = %v after %d fused increments, want %d", c, v, rounds, rounds)
			}
		}
		if sess.Master.Net.Attempts <= sess.Master.Net.Calls {
			t.Fatal("chaos run recorded no retries; loss rate not exercised")
		}
	})
}

// TestTryFillSurfacesExhaustedRetries pins the Try/plain split: with a dead
// shard and finite retries, TryFill must return a typed error instead of
// silently succeeding (the pre-split operators dropped it on the floor).
func TestTryFillSurfacesExhaustedRetries(t *testing.T) {
	sim, cl, sess := testSession(3)
	sess.Master.Retry = ps.RetryConfig{TimeoutSec: 0.01, BackoffSec: 0.01, MaxBackoffSec: 0.02, MaxRetries: 3}
	run(sim, func(p *simnet.Proc) {
		w, err := sess.Dense(p, 30)
		if err != nil {
			t.Fatal(err)
		}
		sess.Master.CrashServer(0) // no monitor: stays dead
		if err := w.TryFill(p, cl.Driver, 1); !errors.Is(err, ps.ErrServerDown) {
			t.Fatalf("TryFill err = %v, want ErrServerDown", err)
		}
		if err := w.TryScale(p, cl.Driver, 2); !errors.Is(err, ps.ErrServerDown) {
			t.Fatalf("TryScale err = %v, want ErrServerDown", err)
		}
		if err := w.TryZero(p, cl.Driver); !errors.Is(err, ps.ErrServerDown) {
			t.Fatalf("TryZero err = %v, want ErrServerDown", err)
		}
		// The plain variants panic with the same error.
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Error("Fill on a dead shard did not panic")
				}
			}()
			rdd.Check(w.TryFill(p, cl.Driver, 1))
		}()
	})
}

// TestZipInvokeRejectsPartitionMismatch pins the shuffle-path compatibility
// check: an operand whose matrix carves the dimension differently (here, a
// different server count) must be rejected up front with a typed error
// instead of misaligning slices mid-shuffle.
func TestZipInvokeRejectsPartitionMismatch(t *testing.T) {
	sim := simnet.New()
	mkSess := func(servers int) (*cluster.Cluster, *Session) {
		cfg := cluster.DefaultConfig()
		cfg.Executors = 2
		cfg.Servers = servers
		cl := cluster.New(sim, cfg)
		return cl, NewSession(ps.NewMaster(cl))
	}
	cl4, sess4 := mkSess(4)
	_, sess3 := mkSess(3)
	run(sim, func(p *simnet.Proc) {
		a, err := sess4.Dense(p, 60)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sess3.Dense(p, 60)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.TryAddVec(p, cl4.Driver, b); !errors.Is(err, ErrPartitionMismatch) {
			t.Fatalf("AddVec err = %v, want ErrPartitionMismatch", err)
		}
		if _, err := a.TryDot(p, cl4.Driver, b); !errors.Is(err, ErrPartitionMismatch) {
			t.Fatalf("Dot err = %v, want ErrPartitionMismatch", err)
		}
		if err := a.TryAxpy(p, cl4.Driver, 1, b); !errors.Is(err, ErrPartitionMismatch) {
			t.Fatalf("Axpy err = %v, want ErrPartitionMismatch", err)
		}
		// Same layout, different matrix: still allowed via the shuffle path.
		c, err := sess4.Dense(p, 60)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.TryAddVec(p, cl4.Driver, c); err != nil {
			t.Fatalf("same-layout shuffle rejected: %v", err)
		}
	})
}
