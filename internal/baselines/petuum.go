package baselines

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/ml/lr"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

// TrainLRPetuum trains LR on a Petuum-style parameter server. The weight
// vector is chunked over the servers as a Petuum table, but the client
// interface has no sparse pull: every worker fetches the entire dense model
// each iteration (paper Section 6.3.1: "Petuum has to pull all of the
// model", against PS2's pull of only the batch's features). Updates are
// sparse increments applied server-side, the same synchronous SGD step the
// PS2 trainer computes.
func TrainLRPetuum(p *simnet.Proc, e *core.Engine, dataset *rdd.RDD[data.Instance], dim int, cfg lr.Config) (*core.Trace, []float64, error) {
	if cfg.Iterations <= 0 {
		return nil, nil, fmt.Errorf("baselines: iterations must be positive")
	}
	if len(e.Cluster.Servers) == 0 {
		return nil, nil, fmt.Errorf("baselines: Petuum needs at least one server")
	}
	mat, err := e.PS.CreateMatrix(p, 1, dim)
	if err != nil {
		return nil, nil, err
	}
	trace := &core.Trace{Name: "Petuum"}
	cost := e.Cluster.Cost
	// Synchronous SGD with server-side increments needs the batch size up
	// front; the expected global batch is fraction × |dataset|.
	totalRows := rdd.Count(p, dataset)

	type stat struct {
		Loss float64
		N    int
	}
	for it := 0; it < cfg.Iterations; it++ {
		batch := dataset.Sample(cfg.BatchFraction, cfg.Seed+uint64(it))
		expected := float64(totalRows) * cfg.BatchFraction
		if cfg.BatchFraction >= 1 {
			expected = float64(totalRows)
		}
		eta := cfg.LearningRate / math.Sqrt(float64(it+1)) / expected
		stats := rdd.RunPartitions(p, batch, 24, func(tc *rdd.TaskContext, part int, rows []data.Instance) stat {
			if len(rows) == 0 {
				return stat{}
			}
			// Full-model pull: the whole dense vector from every server.
			w := rdd.Must(mat.TryPullRow(tc.P, tc.Node, 0))
			g, lossSum := lr.BatchGradient(cfg.Objective, rows, func(i int) float64 { return w[i] })
			tc.Charge(cost.GradWork(lr.TotalNnz(rows)))
			tc.Commit()
			// Sparse increment push, applied at the servers.
			gi := make([]int, 0, len(g))
			for i := range g {
				gi = append(gi, i)
			}
			sort.Ints(gi)
			gv := make([]float64, len(gi))
			for k, i := range gi {
				gv[k] = -eta * g[i]
			}
			sv, err := linalg.NewSparse(gi, gv)
			if err != nil {
				panic(err)
			}
			rdd.Check(mat.TryPushAdd(tc.P, tc.Node, 0, sv))
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
		trace.Add(p.Now(), lossSum/float64(count))
	}
	return trace, hostRow(mat), nil
}

// TrainLDAPetuum runs the collapsed-Gibbs LDA of internal/ml/lda with
// Petuum's communication: the K×V count matrix is row-partitioned (each
// topic row whole on one server) and every worker pulls the full matrix each
// iteration — no sparse pull, no compression.
func TrainLDAPetuum(p *simnet.Proc, e *core.Engine, docs *rdd.RDD[data.Document], vocab, topics, iterations int, alpha, beta float64, seed uint64) (*core.Trace, error) {
	if topics < 2 || vocab <= 0 || iterations <= 0 {
		return nil, fmt.Errorf("baselines: invalid LDA config")
	}
	servers := e.Cluster.Servers
	if len(servers) == 0 {
		return nil, fmt.Errorf("baselines: Petuum needs servers")
	}
	trace := &core.Trace{Name: "Petuum-LDA"}
	cost := e.Cluster.Cost

	nwt := make([][]float64, topics)
	for k := range nwt {
		nwt[k] = make([]float64, vocab)
	}
	totals := make([]float64, topics)
	hostOf := func(k int) *simnet.Node { return servers[k%len(servers)] }

	type st struct {
		z   [][]int32
		ndk [][]int32
	}
	states := map[int]*st{}
	rowBytes := cost.DenseBytes(vocab)

	rdd.RunPartitions(p, docs, 8, func(tc *rdd.TaskContext, part int, rows []data.Document) struct{} {
		tc.Commit()
		state := &st{z: make([][]int32, len(rows)), ndk: make([][]int32, len(rows))}
		states[part] = state
		rng := linalg.NewRNG(seed*31 + uint64(part))
		deltaBytes := 0
		for d, doc := range rows {
			state.z[d] = make([]int32, len(doc.Words))
			state.ndk[d] = make([]int32, topics)
			for t, w := range doc.Words {
				k := rng.Intn(topics)
				state.z[d][t] = int32(k)
				state.ndk[d][k]++
				nwt[k][w]++
				totals[k]++
				deltaBytes++
			}
		}
		for k := 0; k < topics; k++ {
			tc.Node.Send(tc.P, hostOf(k), cost.SparseBytes(deltaBytes/topics))
		}
		return struct{}{}
	})

	vb := float64(vocab) * beta
	alphaSum := alpha * float64(topics)
	for it := 0; it < iterations; it++ {
		type res struct {
			logLik float64
			tokens int
		}
		results := rdd.RunPartitions(p, docs, 16, func(tc *rdd.TaskContext, part int, rows []data.Document) res {
			// Full-matrix pull: each topic row whole from its hosting server.
			g := tc.P.Sim().NewGroup()
			for k := 0; k < topics; k++ {
				k := k
				g.Go("petuum-pull", func(cp *simnet.Proc) {
					tc.Node.Send(cp, hostOf(k), cost.RequestOverheadB)
					hostOf(k).Send(cp, tc.Node, rowBytes)
				})
			}
			g.Wait(tc.P)
			tc.Commit()

			state := states[part]
			rng := linalg.NewRNG(seed*101 + uint64(part)*13 + uint64(tc.Attempt) + uint64(it)*7)
			// Sample against the pulled snapshot (the same approximate
			// distributed-LDA consistency PS2 uses); deltas apply at push.
			local := map[int][]float64{}
			col := func(w int) []float64 {
				vec, ok := local[w]
				if !ok {
					vec = nwtColumn(nwt, w)
					local[w] = vec
				}
				return vec
			}
			snapshot := append([]float64(nil), totals...)
			ltot := append([]float64(nil), totals...)
			probs := make([]float64, topics)
			r := res{}
			delta := map[int]map[int]float64{}
			deltas := 0
			for d, doc := range rows {
				docLen := float64(len(doc.Words))
				for t, w := range doc.Words {
					wc := col(int(w))
					old := int(state.z[d][t])
					state.ndk[d][old]--
					wc[old]--
					ltot[old]--
					addTo(delta, old, int(w), -1)
					var sum float64
					for k := 0; k < topics; k++ {
						pk := (float64(state.ndk[d][k]) + alpha) * (wc[k] + beta) / (ltot[k] + vb)
						if pk < 0 {
							pk = 0
						}
						probs[k] = pk
						sum += pk
					}
					u := rng.Float64() * sum
					newK := topics - 1
					acc := 0.0
					for k := 0; k < topics; k++ {
						acc += probs[k]
						if u <= acc {
							newK = k
							break
						}
					}
					r.logLik += math.Log(sum / (docLen - 1 + alphaSum))
					state.z[d][t] = int32(newK)
					state.ndk[d][newK]++
					wc[newK]++
					ltot[newK]++
					addTo(delta, newK, int(w), +1)
					r.tokens++
					deltas += 2
				}
			}
			tc.Charge(cost.ElemWork(r.tokens * topics))
			// Sparse delta push, uncompressed (8B values), applied at the
			// hosting servers.
			for k, words := range delta {
				for w, v := range words {
					nwt[k][w] += v
				}
			}
			for k := 0; k < topics; k++ {
				totals[k] += ltot[k] - snapshot[k]
			}
			for k := 0; k < topics; k++ {
				tc.Node.Send(tc.P, hostOf(k), cost.RequestOverheadB+float64(deltas/topics)*(8+8))
			}
			return r
		})
		var logLik float64
		var tokens int
		for _, r := range results {
			logLik += r.logLik
			tokens += r.tokens
		}
		if tokens > 0 {
			trace.Add(p.Now(), logLik/float64(tokens))
		}
	}
	return trace, nil
}
