// Epoch-fencing tests for the value-bounded cache policy, plus the SSP
// wait/release regression against the pre-refactor gate. Value-bounded
// entries have no clock expiry — absent the epoch fence a huge bound would
// let a stale copy serve forever — so these tests pin down that migrations
// and crash recoveries invalidate them exactly like clock-bounded entries.
package ps

import (
	"testing"

	"repro/internal/consistency"
	"repro/internal/linalg"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

// TestValueBoundedCacheFencedByMigration is TestCachedClientSurvivesMigration
// with a value-bounded policy at an effectively infinite bound: the policy
// alone would serve the warm entry forever (no pushes were credited through
// the cache, so pending delta and drift stay 0), which makes the placement
// generation fence the only thing standing between the reader and a stale
// cross-placement value.
func TestValueBoundedCacheFencedByMigration(t *testing.T) {
	sim, cl, m := testMaster(8)
	run(sim, func(p *simnet.Proc) {
		worker := cl.Executors[0]
		mat, err := m.CreateMatrixPlaced(p, 1, 24, mustRange(24, 4))
		if err != nil {
			panic(err)
		}
		vals := make([]float64, 24)
		for c := range vals {
			vals[c] = float64(c) * 1.5
		}
		rdd.Check(mat.TrySetRow(p, worker, 0, vals))
		cc := NewCachedClient(mat, CacheConfig{Policy: consistency.NewValueBounded(1e18)})
		idx := []int{0, 5, 11, 17, 23}
		rdd.Must(cc.TryPullRowIndices(p, worker, 0, idx)) // warm under placement A
		if err := m.MigrateMatrix(p, mat, mustRange(24, 6), fp(mat)); err != nil {
			t.Fatal(err)
		}
		// Mutate through the new placement. The write does not go through the
		// cache client, so no delta is credited: a value-bounded entry without
		// the fence would still claim ServeCached.
		sv, _ := linalg.NewSparse([]int{5, 17}, []float64{100, 200})
		rdd.Check(mat.TryPushAdd(p, worker, 0, sv))
		vals[5] += 100
		vals[17] += 200
		got := rdd.Must(cc.TryPullRowIndices(p, worker, 0, idx))
		for k, c := range idx {
			if got[k] != vals[c] {
				t.Fatalf("cached col %d = %v, want %v (value-bounded entry crossed the migration)",
					c, got[k], vals[c])
			}
		}
		if m.Cache.EpochFences == 0 {
			t.Fatal("migration did not fence any value-bounded cache entry")
		}
	})
}

// TestValueBoundedCacheFencedByRecovery is the recovery twin: a crash rolls
// the shard back to its checkpoint and resets version counters, so neither
// stamps nor drift watermarks can be trusted across it. The recovery epoch
// bump must fence value-bounded entries (sparse and dense forms) exactly as
// it fences clock-bounded ones.
func TestValueBoundedCacheFencedByRecovery(t *testing.T) {
	sim, cl, m := testMaster(2)
	run(sim, func(p *simnet.Proc) {
		mat, _ := m.CreateMatrix(p, 2, 40)
		worker := cl.Executors[0]
		fillRow(p, mat, worker, 0, func(c int) float64 { return float64(c) })
		fillRow(p, mat, worker, 1, func(c int) float64 { return float64(c) })
		m.Checkpoint(p, mat)

		cc := NewCachedClient(mat, CacheConfig{Policy: consistency.NewValueBounded(1e18)})
		idx := []int{1, 5, 25, 39}
		// Warm the cache with post-checkpoint state, in both entry forms.
		sv, _ := linalg.NewSparse(idx, []float64{100, 100, 100, 100})
		rdd.Check(mat.TryPushAdd(p, worker, 0, sv))
		rdd.Must(cc.TryPullRowIndices(p, worker, 0, idx))
		rdd.Must(cc.TryPullRows(p, worker, []int{1}))

		// Lose server 0: the restore replays the checkpoint (the +100 update
		// is lost) and starts fresh version counters and drift watermarks.
		m.KillServer(0)
		m.RecoverServer(p, 0)

		cc.Tick()
		fences := m.Cache.EpochFences
		got := rdd.Must(cc.TryPullRowIndices(p, worker, 0, idx))
		rows := rdd.Must(cc.TryPullRows(p, worker, []int{1}))
		want := rdd.Must(mat.TryPullRowIndices(p, worker, 0, idx))
		wantRow := rdd.Must(mat.TryPullRows(p, worker, []int{1}))[0]
		for k := range idx {
			if got[k] != want[k] {
				t.Fatalf("idx %d = %v after recovery, want restored %v (value-bounded read crossed the epoch)",
					idx[k], got[k], want[k])
			}
		}
		for c, v := range rows[0] {
			if v != wantRow[c] {
				t.Fatalf("row 1 col %d = %v after recovery, want restored %v", c, v, wantRow[c])
			}
		}
		if m.Cache.EpochFences == fences {
			t.Fatal("no value-bounded cache entry was epoch-fenced by the recovery")
		}
	})
}

// legacySSP is a frozen copy of the pre-refactor SSP gate — waiters keyed by
// a plain integer target, released when MinClock() >= target, in insertion
// order. The regression below runs it head-to-head against the policy-based
// gate on identical worker schedules.
type legacySSP struct {
	sim     *simnet.Sim
	clocks  []int
	waiters []legacyWaiter
}

type legacyWaiter struct {
	target int
	sig    *simnet.Signal
}

func (c *legacySSP) min() int {
	m := c.clocks[0]
	for _, v := range c.clocks[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

func (c *legacySSP) tick(w int) {
	c.clocks[w]++
	kept := c.waiters[:0]
	for _, wt := range c.waiters {
		if c.min() >= wt.target {
			wt.sig.Fire()
			continue
		}
		kept = append(kept, wt)
	}
	c.waiters = kept
}

func (c *legacySSP) waitTurn(p *simnet.Proc, iter, staleness int) {
	if c.min() >= iter-staleness {
		return
	}
	wt := legacyWaiter{target: iter - staleness, sig: c.sim.NewSignal()}
	c.waiters = append(c.waiters, wt)
	wt.sig.Wait(p)
}

// TestSSPWaitReleaseSequencesMatchLegacy replays a heterogeneous 4-worker
// schedule through both gates and requires the exact same start sequence
// (worker, iteration, virtual time) and the same finish time: WaitPolicy with
// a ClockBounded policy is behaviorally indistinguishable from the historic
// integer comparison.
func TestSSPWaitReleaseSequencesMatchLegacy(t *testing.T) {
	type event struct {
		w, it int
		at    simnet.Time
	}
	schedule := func(useLegacy bool, staleness int) ([]event, simnet.Time) {
		sim := simnet.New()
		var trace []event
		var legacy *legacySSP
		var clock *SSPClock
		if useLegacy {
			legacy = &legacySSP{sim: sim, clocks: make([]int, 4)}
		} else {
			clock = NewSSPClock(sim, 4)
		}
		for w := 0; w < 4; w++ {
			w := w
			d := simnet.Time(w*w+1) * 0.01 // heterogeneous speeds
			sim.Spawn("worker", func(p *simnet.Proc) {
				for it := 0; it < 12; it++ {
					if useLegacy {
						legacy.waitTurn(p, it, staleness)
					} else {
						clock.WaitPolicy(p, consistency.NewClockBounded(staleness), it)
					}
					trace = append(trace, event{w: w, it: it, at: p.Now()})
					p.Sleep(d)
					if useLegacy {
						legacy.tick(w)
					} else {
						clock.Tick(w)
					}
				}
			})
		}
		sim.Run()
		return trace, sim.Now()
	}
	for _, staleness := range []int{0, 1, 3} {
		legacyTrace, legacyEnd := schedule(true, staleness)
		policyTrace, policyEnd := schedule(false, staleness)
		if len(legacyTrace) != len(policyTrace) {
			t.Fatalf("staleness %d: trace lengths %d vs %d", staleness, len(legacyTrace), len(policyTrace))
		}
		for i := range legacyTrace {
			if legacyTrace[i] != policyTrace[i] {
				t.Fatalf("staleness %d: event %d diverged: legacy %+v, policy %+v",
					staleness, i, legacyTrace[i], policyTrace[i])
			}
		}
		if legacyEnd != policyEnd {
			t.Fatalf("staleness %d: finish time %v vs %v", staleness, legacyEnd, policyEnd)
		}
	}
}

// TestSSPWaitPolicyZeroSlack pins a zero-slack clock-bounded wait to its
// contract: the waiter releases exactly when the minimum clock reaches the
// target, not a tick earlier or later.
func TestSSPWaitPolicyZeroSlack(t *testing.T) {
	sim := simnet.New()
	clock := NewSSPClock(sim, 2)
	released := -1
	sim.Spawn("driver", func(p *simnet.Proc) {
		clock.WaitPolicy(p, consistency.NewClockBounded(0), 3)
		released = clock.MinClock()
	})
	sim.Spawn("ticker", func(p *simnet.Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(0.01)
			clock.Tick(0)
			clock.Tick(1)
		}
	})
	sim.Run()
	if released != 3 {
		t.Fatalf("zero-slack wait released at min clock %d, want exactly 3", released)
	}
}
