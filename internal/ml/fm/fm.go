// Package fm implements a second-order Factorization Machine on PS2. The
// paper's introduction names FM alongside LR as the classification models
// Tencent runs over 200M-feature user profiles; like Adam-for-LR it is a
// "multiple vectors as the model" workload: one first-order weight vector
// plus K factor vectors, all dimension co-located DCVs, with sparse pulls of
// each batch's features and server-side axpy updates.
//
// The model is
//
//	y(x) = Σ_i w_i x_i + ½ Σ_f [ (Σ_i v_{i,f} x_i)² − Σ_i v_{i,f}² x_i² ]
//
// trained on logistic loss with mini-batch SGD.
package fm

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dcv"
	"repro/internal/linalg"
	"repro/internal/ml/lr"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

// Config holds the FM hyperparameters.
type Config struct {
	Factors       int // K, the latent dimension
	LearningRate  float64
	BatchFraction float64
	Iterations    int
	InitScale     float64 // stddev of the factor initialization
	Seed          uint64
}

// DefaultConfig returns a standard small-factor configuration.
func DefaultConfig() Config {
	return Config{Factors: 8, LearningRate: 0.1, BatchFraction: 0.2, Iterations: 40, InitScale: 0.1, Seed: 77}
}

// Model is the trained output: the first-order weights and the K factor
// vectors, all rows of one co-located raw matrix.
type Model struct {
	Weights *dcv.Vector
	Factors []*dcv.Vector
	Trace   *core.Trace
}

// Train fits the FM on PS2.
func Train(p *simnet.Proc, e *core.Engine, dataset *rdd.RDD[data.Instance], dim int, cfg Config) (*Model, error) {
	if cfg.Factors < 1 || cfg.Iterations <= 0 || dim <= 0 {
		return nil, fmt.Errorf("fm: invalid config K=%d iters=%d dim=%d", cfg.Factors, cfg.Iterations, dim)
	}
	// Rows: w, grad_w, then (v_f, grad_v_f) per factor — all co-located.
	k := cfg.Factors
	w, err := e.DCV.Dense(p, dim, 2+2*k)
	if err != nil {
		return nil, err
	}
	driver := e.Driver()
	// derive hands out the next co-located row, zeroed when it holds a
	// gradient.
	derive := func(zero bool) (*dcv.Vector, error) {
		v, err := w.Derive()
		if err != nil || !zero {
			return v, err
		}
		return v, v.TryFill(p, driver, 0)
	}
	gradW, err := derive(true)
	if err != nil {
		return nil, err
	}
	factors := make([]*dcv.Vector, k)
	gradV := make([]*dcv.Vector, k)
	for f := 0; f < k; f++ {
		if factors[f], err = derive(false); err != nil {
			return nil, err
		}
		if gradV[f], err = derive(true); err != nil {
			return nil, err
		}
	}
	initFactors(p, e, factors, cfg)

	model := &Model{Weights: w, Factors: factors, Trace: &core.Trace{Name: "PS2-FM"}}
	cost := e.Cluster.Cost

	type stat struct {
		Loss float64
		N    int
	}
	for it := 0; it < cfg.Iterations; it++ {
		batch := dataset.Sample(cfg.BatchFraction, cfg.Seed+uint64(it))
		stats := rdd.RunPartitions(p, batch, 24, func(tc *rdd.TaskContext, part int, rows []data.Instance) stat {
			if len(rows) == 0 {
				return stat{}
			}
			idx := lr.DistinctIndices(rows)
			pos := make(map[int]int, len(idx))
			for i, ix := range idx {
				pos[ix] = i
			}
			// Sparse pulls: weights plus every factor row at the batch's
			// feature indices.
			wv := rdd.Must(w.TryPullIndices(tc.P, tc.Node, idx))
			vv := make([][]float64, k)
			for f := 0; f < k; f++ {
				vv[f] = rdd.Must(factors[f].TryPullIndices(tc.P, tc.Node, idx))
			}
			dw := make([]float64, len(idx))
			dv := make([][]float64, k)
			for f := range dv {
				dv[f] = make([]float64, len(idx))
			}
			var lossSum float64
			sums := make([]float64, k)
			for _, inst := range rows {
				fv := inst.Features
				// Margin.
				var z float64
				for t, ix := range fv.Indices {
					z += wv[pos[ix]] * fv.Values[t]
				}
				for f := 0; f < k; f++ {
					var s, s2 float64
					for t, ix := range fv.Indices {
						vx := vv[f][pos[ix]] * fv.Values[t]
						s += vx
						s2 += vx * vx
					}
					sums[f] = s
					z += 0.5 * (s*s - s2)
				}
				g := linalg.Sigmoid(z) - inst.Label
				lossSum += linalg.LogLoss(z, inst.Label)
				// Gradients.
				for t, ix := range fv.Indices {
					i := pos[ix]
					x := fv.Values[t]
					dw[i] += g * x
					for f := 0; f < k; f++ {
						dv[f][i] += g * x * (sums[f] - vv[f][i]*x)
					}
				}
			}
			tc.Charge(cost.GradWork(lr.TotalNnz(rows) * (k + 1)))
			tc.Commit()
			// Push gradients with DCV add.
			push := func(target *dcv.Vector, vals []float64) {
				gi := make([]int, 0, len(idx))
				gv := make([]float64, 0, len(idx))
				for i, ix := range idx {
					if vals[i] != 0 {
						gi = append(gi, ix)
						gv = append(gv, vals[i])
					}
				}
				if len(gi) == 0 {
					return
				}
				sort.Sort(byIndex{gi, gv})
				sv, err := linalg.NewSparse(gi, gv)
				if err != nil {
					panic(err)
				}
				rdd.Check(target.TryAdd(tc.P, tc.Node, sv))
			}
			push(gradW, dw)
			for f := 0; f < k; f++ {
				push(gradV[f], dv[f])
			}
			return stat{Loss: lossSum, N: len(rows)}
		})
		var lossSum float64
		var count int
		for _, st := range stats {
			lossSum += st.Loss
			count += st.N
		}
		if count == 0 {
			continue
		}
		// Server-side SGD step on every model vector, then clear gradients.
		eta := cfg.LearningRate / math.Sqrt(float64(it+1)) / float64(count)
		if err := w.TryAxpy(p, driver, -eta, gradW); err != nil {
			return nil, err
		}
		if err := gradW.TryZero(p, driver); err != nil {
			return nil, err
		}
		for f := 0; f < k; f++ {
			if err := factors[f].TryAxpy(p, driver, -eta, gradV[f]); err != nil {
				return nil, err
			}
			if err := gradV[f].TryZero(p, driver); err != nil {
				return nil, err
			}
		}
		model.Trace.Add(p.Now(), lossSum/float64(count))
	}
	return model, nil
}

// byIndex sorts parallel index/value slices by index.
type byIndex struct {
	i []int
	v []float64
}

func (b byIndex) Len() int           { return len(b.i) }
func (b byIndex) Less(x, y int) bool { return b.i[x] < b.i[y] }
func (b byIndex) Swap(x, y int)      { b.i[x], b.i[y] = b.i[y], b.i[x]; b.v[x], b.v[y] = b.v[y], b.v[x] }

// initFactors gives the factor rows small random values, server-side.
func initFactors(p *simnet.Proc, e *core.Engine, factors []*dcv.Vector, cfg Config) {
	cost := e.Cluster.Cost
	mat := factors[0].Matrix()
	rows := make([]int, len(factors))
	for f, v := range factors {
		rows[f] = v.Row()
	}
	g := p.Sim().NewGroup()
	for s := 0; s < mat.Part.NumServers(); s++ {
		s := s
		g.Go("init-factors", func(cp *simnet.Proc) {
			sh := mat.ShardOf(s)
			srv := mat.ServerNode(s)
			e.Driver().Send(cp, srv, cost.RequestOverheadB)
			srv.Compute(cp, cost.ElemWork(len(rows)*sh.Width()))
			rng := linalg.NewRNG(cfg.Seed*131 + uint64(s))
			for _, r := range rows {
				row := sh.Rows[r]
				for i := range row {
					row[i] = rng.NormFloat64() * cfg.InitScale
				}
			}
			srv.Send(cp, e.Driver(), cost.RequestOverheadB)
		})
	}
	g.Wait(p)
}

// Predict computes the FM margin for one instance against pulled model
// slices (host-side evaluation helper).
func Predict(inst data.Instance, w []float64, factors [][]float64) float64 {
	fv := inst.Features
	var z float64
	for t, ix := range fv.Indices {
		z += w[ix] * fv.Values[t]
	}
	for f := range factors {
		var s, s2 float64
		for t, ix := range fv.Indices {
			vx := factors[f][ix] * fv.Values[t]
			s += vx
			s2 += vx * vx
		}
		z += 0.5 * (s*s - s2)
	}
	return z
}

// EvalLoss computes mean logistic loss over instances.
func EvalLoss(instances []data.Instance, w []float64, factors [][]float64) float64 {
	if len(instances) == 0 {
		return math.NaN()
	}
	var total float64
	for _, inst := range instances {
		total += linalg.LogLoss(Predict(inst, w, factors), inst.Label)
	}
	return total / float64(len(instances))
}

// Accuracy computes classification accuracy over instances.
func Accuracy(instances []data.Instance, w []float64, factors [][]float64) float64 {
	if len(instances) == 0 {
		return math.NaN()
	}
	correct := 0
	for _, inst := range instances {
		pred := 0.0
		if Predict(inst, w, factors) > 0 {
			pred = 1
		}
		if pred == inst.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(instances))
}
