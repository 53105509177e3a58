package ps

import (
	"testing"

	"repro/internal/simnet"
)

// fullDiff is the reference diffCount replaces: an element compare of every
// row, flags ignored.
func fullDiff(prev, cur *Shard) int {
	n := 0
	for r := range cur.Rows {
		for c, v := range cur.Rows[r] {
			if prev.Rows[r][c] != v {
				n++
			}
		}
	}
	return n
}

func anyDirty(sh *Shard) bool {
	if sh.allDirty {
		return true
	}
	for _, d := range sh.dirty {
		if d {
			return true
		}
	}
	return false
}

// TestDirtyFlagsTrackUndeclaredMutation pins the shard-wide dirty flag an
// undeclared mutation sets: diffCount must then scan every row, clearDirty
// must return the shard to per-row tracking, and a clone starts clean.
func TestDirtyFlagsTrackUndeclaredMutation(t *testing.T) {
	prev := newShard(6, ColView{Lo: 0, Hi: 10})
	cur := prev.clone()

	// An undeclared write to rows 1 and 4: every row counts as dirty.
	cur.Rows[1][3] = 7
	cur.Rows[4][0] = -2
	cur.Rows[4][9] = 5
	cur.touchAll()
	if got, want := diffCount(prev, cur), fullDiff(prev, cur); got != want || want != 3 {
		t.Fatalf("after touchAll diffCount = %d, full scan = %d, want both 3", got, want)
	}

	// After clearDirty only declared rows are scanned: row 2 is declared,
	// the write to row 5 is not, so it stays invisible to the delta.
	base := cur.clone()
	cur.clearDirty()
	if anyDirty(cur) {
		t.Fatal("clearDirty left a dirty flag set")
	}
	rows := []int{2}
	cur.commitMutate(rows, cur.preMutate(rows))
	cur.Rows[2][1] = 3
	cur.Rows[5][2] = 9
	if got := diffCount(base, cur); got != 1 {
		t.Fatalf("after clearDirty diffCount = %d, want 1 (declared row 2 only)", got)
	}

	// A recovery clone starts clean even when its source is all-dirty.
	cur.touchAll()
	if c := cur.clone(); anyDirty(c) {
		t.Fatal("clone of an all-dirty shard is not clean")
	}
}

// TestDeltaCheckpointAfterUndeclaredMutation asserts a delta checkpoint
// taken after an undeclared mutation ships exactly what a full element
// compare of every shard finds changed.
func TestDeltaCheckpointAfterUndeclaredMutation(t *testing.T) {
	sim, cl, m := testMaster(2)
	run(sim, func(p *simnet.Proc) {
		mat, _ := m.CreateMatrix(p, 6, 100)
		worker := cl.Executors[0]
		for r := 0; r < 6; r++ {
			r := r
			fillRow(p, mat, worker, r, func(c int) float64 { return float64(r*c + 1) })
		}
		m.Checkpoint(p, mat) // base snapshot; clears every dirty flag
		base := []*Shard{mat.ShardOf(0).clone(), mat.ShardOf(1).clone()}

		// An undeclared mutation on each shard: two changed elements on
		// shard 0 (rows 0 and 5), one on shard 1 (row 3).
		for s, writes := range [][][2]int{{{0, 1}, {5, 7}}, {{3, 2}}} {
			writes := writes
			err := mat.CallShard(p, worker, CallSpec{
				Name:    "undeclared",
				Shard:   s,
				Mutates: true,
				Fn: func(_ *simnet.Proc, sh *Shard) error {
					for _, w := range writes {
						sh.Rows[w[0]][w[1]] += 1
					}
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
		}

		var want float64
		for s := 0; s < 2; s++ {
			want += m.Cl.Cost.SparseBytes(fullDiff(base[s], mat.ShardOf(s)))
		}
		before := m.Recovery.CheckpointBytesWritten
		m.Checkpoint(p, mat)
		if got := m.Recovery.CheckpointBytesWritten - before; got != want {
			t.Fatalf("delta checkpoint shipped %v bytes, want full-scan %v", got, want)
		}
		if want != m.Cl.Cost.SparseBytes(2)+m.Cl.Cost.SparseBytes(1) {
			t.Fatalf("full-scan reference %v does not match the three writes", want)
		}
	})
}
