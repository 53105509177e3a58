package ps

import (
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

// TestPushBufferCombinesDeltas asserts write combining applies the exact sum
// of all buffered deltas in one flush and that the coalesced wire cost is
// below what the individual pushes would have paid.
func TestPushBufferCombinesDeltas(t *testing.T) {
	sim, cl, m := testMaster(3)
	run(sim, func(p *simnet.Proc) {
		mat, _ := m.CreateMatrix(p, 3, 60)
		worker := cl.Executors[0]
		cc := NewCachedClient(mat, CacheConfig{CombinePushes: true})
		buf := cc.NewPushBuffer()

		// Many overlapping sparse deltas into one hot row, plus a dense
		// multi-row delta.
		want := map[int]map[int]float64{}
		addWant := func(row, col int, v float64) {
			if want[row] == nil {
				want[row] = map[int]float64{}
			}
			want[row][col] += v
		}
		for i := 0; i < 10; i++ {
			cols := []int{2, 17, 40, 59}
			vals := []float64{1, 0.5, -1, 2}
			sv, _ := linalg.NewSparse(cols, vals)
			if err := buf.Add(0, sv); err != nil {
				t.Fatal(err)
			}
			for k, c := range cols {
				addWant(0, c, vals[k])
			}
		}
		dense := make([]float64, 60)
		for c := range dense {
			dense[c] = float64(c) / 10
			addWant(1, c, dense[c])
			addWant(2, c, 2*dense[c])
		}
		double := make([]float64, 60)
		for c := range double {
			double[c] = 2 * dense[c]
		}
		buf.AddRowsDelta([]int{1, 2}, [][]float64{dense, double})

		if buf.Pending() == 0 {
			t.Fatal("buffer reports nothing pending")
		}
		// Read-your-writes: pending deltas merge into pulled values.
		vecs := [][]float64{make([]float64, 60)}
		buf.ApplyPending([]int{0}, vecs)
		if vecs[0][2] != want[0][2] || vecs[0][59] != want[0][59] {
			t.Fatalf("ApplyPending: got %v/%v, want %v/%v",
				vecs[0][2], vecs[0][59], want[0][2], want[0][59])
		}

		rdd.Check(buf.TryFlush(p, worker))
		if buf.Pending() != 0 {
			t.Fatal("flush left deltas pending")
		}
		for row, cols := range want {
			got := rdd.Must(mat.TryPullRow(p, worker, row))
			for c := range got {
				if got[c] != cols[c] {
					t.Fatalf("row %d col %d = %v, want %v", row, c, got[c], cols[c])
				}
			}
		}
		st := m.Cache
		if st.Flushes != 1 || st.CombinedPushes != 12 {
			t.Fatalf("stats: %d flushes of %d combined pushes, want 1 of 12", st.Flushes, st.CombinedPushes)
		}
		if st.FlushedBytes >= st.FlushBaselineBytes {
			t.Fatalf("combined flush paid %v of baseline %v; no saving",
				st.FlushedBytes, st.FlushBaselineBytes)
		}
	})
}

// TestCombinedFlushExactlyOnceUnderChaos drives buffered flushes through a
// lossy network with a crash/recovery in the middle: retries must never
// double-apply a coalesced delta (the request-ID dedup rides the flush), so
// the final values are the exact sums.
func TestCombinedFlushExactlyOnceUnderChaos(t *testing.T) {
	sim, cl, m := testMaster(3)
	sim.EnableChaos(11, 0.15, 0)
	m.Unreliable = true
	m.Retry = RetryConfig{TimeoutSec: 0.01, BackoffSec: 0.005, MaxBackoffSec: 0.05, MaxRetries: 400}
	run(sim, func(p *simnet.Proc) {
		mat, _ := m.CreateMatrix(p, 1, 45)
		worker := cl.Executors[0]
		cc := NewCachedClient(mat, CacheConfig{CombinePushes: true})
		buf := cc.NewPushBuffer()
		m.Checkpoint(p, mat)

		total := make([]float64, 45)
		for round := 0; round < 40; round++ {
			cols := []int{round % 45, (round*7 + 3) % 45}
			if cols[0] > cols[1] {
				cols[0], cols[1] = cols[1], cols[0]
			}
			if cols[0] == cols[1] {
				cols = cols[:1]
			}
			vals := make([]float64, len(cols))
			for k := range vals {
				vals[k] = 1
				total[cols[k]]++
			}
			sv, _ := linalg.NewSparse(cols, vals)
			if err := buf.Add(0, sv); err != nil {
				t.Fatal(err)
			}
			if round%4 == 3 {
				rdd.Check(buf.TryFlush(p, worker))
			}
		}
		rdd.Check(buf.TryFlush(p, worker))
		got := rdd.Must(mat.TryPullRow(p, worker, 0))
		for c := range got {
			if got[c] != total[c] {
				t.Fatalf("col %d = %v, want exactly %v (loss rate forced retries; double-apply?)",
					c, got[c], total[c])
			}
		}
		if m.Net.Attempts <= m.Net.Calls {
			t.Fatalf("chaos produced no retries (%d attempts / %d calls); test is vacuous",
				m.Net.Attempts, m.Net.Calls)
		}
	})
}

// TestAutoFlushDisabledByDefault asserts a buffer with no AutoFlushTarget
// never volunteers a flush, no matter how much it holds.
func TestAutoFlushDisabledByDefault(t *testing.T) {
	sim, _, m := testMaster(3)
	run(sim, func(p *simnet.Proc) {
		mat, _ := m.CreateMatrix(p, 1, 200)
		buf := NewPushBuffer(mat)
		for c := 0; c < 200; c++ {
			sv, _ := linalg.NewSparse([]int{c}, []float64{1})
			if err := buf.Add(0, sv); err != nil {
				t.Fatal(err)
			}
			if buf.ShouldFlush() {
				t.Fatal("ShouldFlush true with auto-flushing disabled")
			}
		}
	})
}

// TestAutoFlushThresholdAndAdaptation asserts the tuner (a) trips exactly when
// pending payload crosses framingEst·t/(1−t), (b) counts the flush it caused,
// and (c) tightens its framing estimate toward what the flush actually paid.
func TestAutoFlushThresholdAndAdaptation(t *testing.T) {
	sim, cl, m := testMaster(3)
	run(sim, func(p *simnet.Proc) {
		mat, _ := m.CreateMatrix(p, 1, 3000)
		worker := cl.Executors[0]
		cc := NewCachedClient(mat, CacheConfig{CombinePushes: true, AutoFlushTarget: 0.5})
		buf := cc.NewPushBuffer()

		// Before any flush the tuner assumes worst-case fan-out: every server
		// framed, one row header each. At target 0.5 the threshold is exactly
		// that framing seed (t/(1-t) = 1).
		seed := float64(mat.Part.NumServers()) * (2*cl.Cost.RequestOverheadB + 4)
		wantCols := int(math.Ceil(seed / sparseColBytes))
		col := 0
		for !buf.ShouldFlush() {
			sv, _ := linalg.NewSparse([]int{col}, []float64{1})
			if err := buf.Add(0, sv); err != nil {
				t.Fatal(err)
			}
			col++
			if col > wantCols+1 {
				t.Fatalf("no flush signal after %d distinct cols (threshold should be %d)", col, wantCols)
			}
		}
		if col != wantCols {
			t.Fatalf("tripped at %d distinct cols, want %d (seed framing %v)", col, wantCols, seed)
		}
		// Merging into an already-buffered element adds no payload, so the
		// threshold counts distinct elements, not Adds.
		sv, _ := linalg.NewSparse([]int{0}, []float64{1})
		if err := buf.Add(0, sv); err != nil {
			t.Fatal(err)
		}
		if buf.pendingBytes != float64(col)*sparseColBytes {
			t.Fatalf("pendingBytes %v after duplicate add, want %v", buf.pendingBytes, float64(col)*sparseColBytes)
		}

		rdd.Check(buf.TryFlush(p, worker))
		if m.Cache.AutoFlushes != 1 || m.Cache.Flushes != 1 {
			t.Fatalf("stats: %d auto of %d flushes, want 1 of 1", m.Cache.AutoFlushes, m.Cache.Flushes)
		}
		if buf.ShouldFlush() {
			t.Fatal("ShouldFlush still true on an empty buffer")
		}
		// The low columns all live on server 0, so the flush actually framed
		// ONE request, far below the all-servers seed. The first observation
		// replaces the seed, tightening future thresholds by ~3x.
		wantFraming := 2*cl.Cost.RequestOverheadB + 4 // one server, one sparse row header
		if buf.framingEst != wantFraming {
			t.Fatalf("framingEst %v after first flush, want observed %v", buf.framingEst, wantFraming)
		}

		// A tick-style flush (not tuner-triggered) must not count as auto.
		sv2, _ := linalg.NewSparse([]int{1}, []float64{1})
		if err := buf.Add(0, sv2); err != nil {
			t.Fatal(err)
		}
		rdd.Check(buf.TryFlush(p, worker))
		if m.Cache.AutoFlushes != 1 || m.Cache.Flushes != 2 {
			t.Fatalf("stats after manual flush: %d auto of %d flushes, want 1 of 2", m.Cache.AutoFlushes, m.Cache.Flushes)
		}
	})
}

// TestFlushSnapshotsBufferAtStart asserts deltas added while a flush is in
// flight land in the next batch instead of being lost or double-counted.
func TestFlushSnapshotsBufferAtStart(t *testing.T) {
	sim, cl, m := testMaster(2)
	run(sim, func(p *simnet.Proc) {
		mat, _ := m.CreateMatrix(p, 1, 20)
		worker := cl.Executors[0]
		buf := NewPushBuffer(mat)
		sv, _ := linalg.NewSparse([]int{4}, []float64{1})
		if err := buf.Add(0, sv); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		p.Sim().Spawn("concurrent-add", func(cp *simnet.Proc) {
			// Runs while the flush below is blocked on the network: the add
			// must survive into the next flush.
			sv2, _ := linalg.NewSparse([]int{9}, []float64{5})
			if err := buf.Add(0, sv2); err != nil {
				t.Error(err)
			}
			close(done)
		})
		rdd.Check(buf.TryFlush(p, worker))
		<-done
		if buf.Pending() != 1 {
			t.Fatalf("concurrent add lost: %d pending after flush", buf.Pending())
		}
		rdd.Check(buf.TryFlush(p, worker))
		got := rdd.Must(mat.TryPullRow(p, worker, 0))
		if got[4] != 1 || got[9] != 5 {
			t.Fatalf("got %v/%v at cols 4/9, want 1/5", got[4], got[9])
		}
	})
}
