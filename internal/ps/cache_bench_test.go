package ps

import (
	"testing"

	"repro/internal/linalg"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

// BenchmarkPushBufferCombine measures the host-side cost of write combining:
// merging one 64-nnz sparse delta into the per-server accumulation maps.
func BenchmarkPushBufferCombine(b *testing.B) {
	sim, _, m := testMaster(4)
	var mat *Matrix
	run(sim, func(p *simnet.Proc) {
		var err error
		mat, err = m.CreateMatrix(p, 1, 4096)
		if err != nil {
			b.Fatal(err)
		}
	})
	buf := NewPushBuffer(mat)
	cols := make([]int, 64)
	vals := make([]float64, 64)
	for k := range cols {
		cols[k] = k * 64
		vals[k] = float64(k)
	}
	sv, err := linalg.NewSparse(cols, vals)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := buf.Add(0, sv); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCachedPullWarm measures a 256-index sparse pull served entirely
// from a warm clock-fresh cache: the fast path every repeated pull takes
// under a staleness bound, which never touches the simulated network.
func BenchmarkCachedPullWarm(b *testing.B) {
	sim, cl, m := testMaster(4)
	run(sim, func(p *simnet.Proc) {
		mat, err := m.CreateMatrix(p, 1, 4096)
		if err != nil {
			b.Fatal(err)
		}
		cc := NewCachedClient(mat, CacheConfig{Staleness: 1})
		idx := make([]int, 256)
		for k := range idx {
			idx[k] = k * 16
		}
		node := cl.Executors[0]
		rdd.Must(cc.TryPullRowIndices(p, node, 0, idx)) // warm the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = rdd.Must(cc.TryPullRowIndices(p, node, 0, idx))
		}
	})
}
