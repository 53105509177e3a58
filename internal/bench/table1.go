package bench

import (
	"fmt"

	"repro/internal/dcv"
	"repro/internal/linalg"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

func init() {
	register("table1", "DCV operator set, each demonstrated live with its virtual cost", runTable1)
}

// runTable1 exercises every operator of the paper's Table 1 once on a
// dim-100K DCV over 8 servers and reports each operator's virtual latency
// and wire bytes — making the operator-set table executable.
func runTable1(o Opts) *Result {
	dim := 100_000
	if o.Quick {
		dim = 20_000
	}
	e := paperEngine(4, 8)
	r := &Result{ID: "table1", Title: fmt.Sprintf("DCV operators on a dim-%d vector, 8 servers", dim),
		Header: []string{"category", "operator", "virtual ms", "wire KB"}}

	e.Run(func(p *simnet.Proc) {
		worker := e.Cluster.Executors[0]
		driver := e.Driver()
		measure := func(category, name string, fn func()) {
			startBytes := e.Cluster.TotalBytesOnWire()
			start := p.Now()
			fn()
			r.AddRow(category, name,
				fmt.Sprintf("%.3f", 1000*(p.Now()-start)),
				fmt.Sprintf("%.1f", (e.Cluster.TotalBytesOnWire()-startBytes)/1000))
		}

		var v, w *dcv.Vector
		measure("creation", "dense", func() {
			var err error
			v, err = e.DCV.Dense(p, dim, 4)
			if err != nil {
				panic(err)
			}
		})
		measure("creation", "derive", func() { w = rdd.Must(v.Derive()) })
		var sp *dcv.Vector
		measure("creation", "sparse", func() {
			var err error
			sp, err = e.DCV.Sparse(p, dim, 1)
			if err != nil {
				panic(err)
			}
		})
		_ = sp

		vals := make([]float64, dim)
		for i := range vals {
			vals[i] = float64(i%100) / 100
		}
		rdd.Check(v.TrySet(p, worker, vals))
		rdd.Check(w.TrySet(p, worker, vals))

		measure("row access", "pull", func() { rdd.Must(v.TryPull(p, worker)) })
		idx := make([]int, 1000)
		for i := range idx {
			idx[i] = i * (dim / 1000)
		}
		measure("row access", "pull (sparse)", func() { rdd.Must(v.TryPullIndices(p, worker, idx)) })
		delta, err := linalg.NewSparse(idx, make([]float64, len(idx)))
		if err != nil {
			panic(err)
		}
		measure("row access", "push (add)", func() { rdd.Check(v.TryAdd(p, worker, delta)) })
		measure("row access", "sum", func() { rdd.Must(v.TrySum(p, worker)) })
		measure("row access", "nnz", func() { rdd.Must(v.TryNnz(p, worker)) })
		measure("row access", "norm2", func() { rdd.Must(v.TryNorm2(p, worker)) })

		measure("column access", "dot", func() { rdd.Must(v.TryDot(p, worker, w)) })
		measure("column access", "axpy", func() { rdd.Check(v.TryAxpy(p, driver, 0.5, w)) })
		measure("column access", "add", func() { rdd.Check(v.TryAddVec(p, driver, w)) })
		measure("column access", "sub", func() { rdd.Check(v.TrySubVec(p, driver, w)) })
		measure("column access", "mul", func() { rdd.Check(v.TryMulVec(p, driver, w)) })
		measure("column access", "div", func() { rdd.Check(v.TryDivVec(p, driver, w)) })
		measure("column access", "copy", func() { rdd.Check(v.TryCopyFrom(p, driver, w)) })
		measure("column access", "zip+mapPartition", func() {
			rdd.Check(v.TryZipMap(p, driver, 2, func(lo int, rows [][]float64) {
				a, b := rows[0], rows[1]
				for i := range a {
					a[i] += 0.1 * b[i]
				}
			}, w))
		})
	})
	r.Note("column-access operators move only commands and scalars: compare their wire KB against the row-access pull")
	return r
}
