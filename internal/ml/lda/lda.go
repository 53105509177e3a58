// Package lda implements Latent Dirichlet Allocation trained with collapsed
// Gibbs sampling on PS2 (the paper evaluates LDA on PubMED and Tencent's APP
// corpus, Section 6.3.3). The topic-word count matrix lives on the parameter
// servers as a K-row, V-column matrix — K co-located DCVs, column-partitioned
// over the vocabulary — plus a tiny topic-totals vector. Document-topic
// counts and topic assignments stay on the workers.
//
// Per iteration every worker batch-pulls the topic counts of exactly the
// words its partition contains (sparse pull), resamples its tokens against
// the local copy (the standard approximate-distributed-LDA scheme), and
// pushes count deltas back. PS2's message compression is modelled by
// shipping counts as 4-byte integers instead of 8-byte floats.
package lda

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/ps"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

// Sampler selects the Gibbs sampling arithmetic.
type Sampler int

const (
	// SamplerStandard computes the full K-dimensional conditional per token.
	SamplerStandard Sampler = iota
	// SamplerSparse uses the SparseLDA three-bucket decomposition (the
	// technique behind the authors' LDA*): same distribution, O(nonzero)
	// work per token instead of O(K).
	SamplerSparse
)

// Config holds the LDA hyperparameters; α and β follow the paper's Table 4.
type Config struct {
	Topics     int
	Alpha      float64
	Beta       float64
	Iterations int
	Sampler    Sampler
	// CompressedBytesPerCount is the wire size of one count value. PS2 uses
	// 4 (compressed ints); baselines without compression use 8.
	CompressedBytesPerCount float64
	Seed                    uint64
}

// DefaultConfig returns Table 4 values with a scaled topic count.
func DefaultConfig() Config {
	return Config{Topics: 50, Alpha: 0.5, Beta: 0.01, Iterations: 15, CompressedBytesPerCount: 4, Seed: 23}
}

// Model is the trained topic model.
type Model struct {
	WordTopic *ps.Matrix // Topics rows × Vocab columns of counts
	Totals    []float64  // per-topic token totals (driver copy)
	Vocab     int
	Topics    int
	Trace     *core.Trace // mean per-token log-likelihood (rising)

	states []*partState // worker-local sampler state, kept for Theta
	alpha  float64
}

// partState is the worker-local sampler state for one partition.
type partState struct {
	z   [][]int32 // topic assignment per token per doc
	ndk [][]int32 // doc-topic counts
}

// Train runs collapsed Gibbs sampling over the document RDD.
func Train(p *simnet.Proc, e *core.Engine, docs *rdd.RDD[data.Document], vocab int, cfg Config) (*Model, error) {
	if cfg.Topics < 2 || vocab <= 0 || cfg.Iterations <= 0 {
		return nil, fmt.Errorf("lda: invalid config K=%d V=%d iters=%d", cfg.Topics, vocab, cfg.Iterations)
	}
	if cfg.CompressedBytesPerCount <= 0 {
		cfg.CompressedBytesPerCount = 8
	}
	mat, err := e.PS.CreateMatrix(p, cfg.Topics, vocab)
	if err != nil {
		return nil, err
	}
	model := &Model{WordTopic: mat, Vocab: vocab, Topics: cfg.Topics,
		Totals: make([]float64, cfg.Topics), Trace: &core.Trace{Name: "PS2-LDA"},
		alpha: cfg.Alpha}

	states := make([]*partState, docs.Partitions())
	model.states = states

	// Initialization: assign random topics and push the initial counts.
	totalsDelta := initAssignments(p, e, docs, mat, states, cfg)
	for k := range model.Totals {
		model.Totals[k] += totalsDelta[k]
	}

	for it := 0; it < cfg.Iterations; it++ {
		totals := append([]float64(nil), model.Totals...)
		// Broadcast the topic totals (tiny).
		e.RDD.Broadcast(p, float64(cfg.Topics)*cfg.CompressedBytesPerCount)
		results := rdd.RunPartitions(p, docs, 8*float64(cfg.Topics)+16,
			func(tc *rdd.TaskContext, part int, rows []data.Document) iterResult {
				return gibbsSweep(tc, mat, states[part], rows, totals, vocab, cfg)
			})
		var logLik float64
		var tokens int
		for _, r := range results {
			logLik += r.LogLik
			tokens += r.Tokens
			for k := 0; k < cfg.Topics; k++ {
				model.Totals[k] += r.TotalsDelta[k]
			}
		}
		if tokens > 0 {
			model.Trace.Add(p.Now(), logLik/float64(tokens))
		}
	}
	return model, nil
}

type iterResult struct {
	LogLik      float64
	Tokens      int
	TotalsDelta []float64
}

// initAssignments gives every token a random topic and pushes the initial
// topic-word counts; returns the global topic totals.
func initAssignments(p *simnet.Proc, e *core.Engine, docs *rdd.RDD[data.Document],
	mat *ps.Matrix, states []*partState, cfg Config) []float64 {
	totals := make([]float64, cfg.Topics)
	results := rdd.RunPartitions(p, docs, 8*float64(cfg.Topics),
		func(tc *rdd.TaskContext, part int, rows []data.Document) []float64 {
			st := &partState{z: make([][]int32, len(rows)), ndk: make([][]int32, len(rows))}
			states[part] = st
			rng := linalg.NewRNG(cfg.Seed*31 + uint64(part))
			delta := map[int]map[int]float64{} // topic -> word -> count
			localTotals := make([]float64, cfg.Topics)
			for d, doc := range rows {
				st.z[d] = make([]int32, len(doc.Words))
				st.ndk[d] = make([]int32, cfg.Topics)
				for t, w := range doc.Words {
					k := rng.Intn(cfg.Topics)
					st.z[d][t] = int32(k)
					st.ndk[d][k]++
					m, ok := delta[k]
					if !ok {
						m = map[int]float64{}
						delta[k] = m
					}
					m[int(w)]++
					localTotals[k]++
				}
			}
			tc.Charge(e.Cluster.Cost.ElemWork(len(rows)))
			tc.Commit()
			pushDeltas(tc, mat, delta, cfg)
			return localTotals
		})
	for _, r := range results {
		for k := range totals {
			totals[k] += r[k]
		}
	}
	return totals
}

// pushDeltas ships topic->word count deltas to the servers: one batched
// request per server carrying compressed (topic, word, delta) triplets.
func pushDeltas(tc *rdd.TaskContext, mat *ps.Matrix, delta map[int]map[int]float64, cfg Config) {
	cost := tc.Ctx.Cl.Cost
	// Group triplets by owning server.
	type triplet struct {
		k, w int
		v    float64
	}
	byServer := make([][]triplet, mat.Part.NumServers())
	for k, words := range delta {
		for w, v := range words {
			s := mat.Part.ServerOf(w)
			byServer[s] = append(byServer[s], triplet{k, w, v})
		}
	}
	g := tc.P.Sim().NewGroup()
	for s := range byServer {
		if len(byServer[s]) == 0 {
			continue
		}
		s := s
		g.Go("lda-push", func(cp *simnet.Proc) {
			trips := byServer[s]
			// Deterministic application order.
			sort.Slice(trips, func(a, b int) bool {
				if trips[a].k != trips[b].k {
					return trips[a].k < trips[b].k
				}
				return trips[a].w < trips[b].w
			})
			sh := mat.ShardOf(s)
			srv := mat.ServerNode(s)
			bytes := cost.RequestOverheadB + float64(len(trips))*(8+cfg.CompressedBytesPerCount)
			tc.Node.Send(cp, srv, bytes)
			srv.Compute(cp, cost.RequestHandleWork+cost.ElemWork(len(trips)))
			for _, tr := range trips {
				sh.Rows[tr.k][sh.Local(tr.w)] += tr.v
			}
			srv.Send(cp, tc.Node, cost.RequestOverheadB)
		})
	}
	g.Wait(tc.P)
}

// pullWordCounts batch-pulls the K-dimensional topic vectors of the given
// sorted distinct words: one request per server, compressed values back.
func pullWordCounts(tc *rdd.TaskContext, mat *ps.Matrix, words []int, cfg Config) map[int][]float64 {
	cost := tc.Ctx.Cl.Cost
	out := make(map[int][]float64, len(words))
	split := mat.Part.SplitIndices(words)
	g := tc.P.Sim().NewGroup()
	for s := range split {
		if len(split[s]) == 0 {
			continue
		}
		s := s
		g.Go("lda-pull", func(cp *simnet.Proc) {
			idx := split[s]
			sh := mat.ShardOf(s)
			srv := mat.ServerNode(s)
			tc.Node.Send(cp, srv, cost.RequestOverheadB+4*float64(len(idx)))
			srv.Compute(cp, cost.RequestHandleWork+cost.ElemWork(len(idx)*mat.Rows))
			srv.Send(cp, tc.Node, cost.RequestOverheadB+float64(len(idx)*mat.Rows)*cfg.CompressedBytesPerCount)
			for _, w := range idx {
				vec := make([]float64, mat.Rows)
				for k := 0; k < mat.Rows; k++ {
					vec[k] = sh.Rows[k][sh.Local(w)]
				}
				out[w] = vec
			}
		})
	}
	g.Wait(tc.P)
	return out
}

// gibbsSweep resamples every token of a partition once against a local
// snapshot of the word-topic counts and pushes the deltas.
func gibbsSweep(tc *rdd.TaskContext, mat *ps.Matrix, st *partState, rows []data.Document,
	totals []float64, vocab int, cfg Config) iterResult {
	cost := tc.Ctx.Cl.Cost
	K := cfg.Topics
	words := distinctWords(rows)
	counts := pullWordCounts(tc, mat, words, cfg)
	// Commit before mutating the worker-local sampler state: a doomed retry
	// re-pulls but must not double-apply assignment changes.
	tc.Commit()

	rng := linalg.NewRNG(cfg.Seed*101 + uint64(tc.Part)*13 + uint64(tc.Attempt))
	localTotals := append([]float64(nil), totals...)
	delta := map[int]map[int]float64{}
	addDelta := func(k, w int, v float64) {
		m, ok := delta[k]
		if !ok {
			m = map[int]float64{}
			delta[k] = m
		}
		m[w] += v
	}
	probs := make([]float64, K)
	var logLik float64
	tokens := 0
	vb := float64(vocab) * cfg.Beta
	if cfg.Sampler == SamplerSparse {
		return sparseSweep(tc, mat, st, rows, rng, counts, localTotals, totals, vb, delta, addDelta, cfg)
	}
	for d, doc := range rows {
		docLen := float64(len(doc.Words))
		for t, w := range doc.Words {
			wc := counts[int(w)]
			old := int(st.z[d][t])
			// Remove the token from the model.
			st.ndk[d][old]--
			wc[old]--
			localTotals[old]--
			addDelta(old, int(w), -1)
			// Sample a new topic.
			var sum float64
			for k := 0; k < K; k++ {
				pk := (float64(st.ndk[d][k]) + cfg.Alpha) * (wc[k] + cfg.Beta) / (localTotals[k] + vb)
				if pk < 0 {
					pk = 0
				}
				probs[k] = pk
				sum += pk
			}
			u := rng.Float64() * sum
			newK := K - 1
			acc := 0.0
			for k := 0; k < K; k++ {
				acc += probs[k]
				if u <= acc {
					newK = k
					break
				}
			}
			// Token log-likelihood under the predictive distribution.
			alphaSum := cfg.Alpha * float64(K)
			logLik += math.Log(sum / (docLen - 1 + alphaSum))
			// Add the token back with its new topic.
			st.z[d][t] = int32(newK)
			st.ndk[d][newK]++
			wc[newK]++
			localTotals[newK]++
			addDelta(newK, int(w), +1)
			tokens++
		}
	}
	tc.Charge(cost.ElemWork(tokens * K))
	pushDeltas(tc, mat, delta, cfg)

	res := iterResult{LogLik: logLik, Tokens: tokens, TotalsDelta: make([]float64, K)}
	for k := 0; k < K; k++ {
		res.TotalsDelta[k] = localTotals[k] - totals[k]
	}
	return res
}

// sparseSweep is gibbsSweep's SparseLDA variant: identical distribution,
// bucketized arithmetic, compute charged by the operations actually walked.
func sparseSweep(tc *rdd.TaskContext, mat *ps.Matrix, st *partState, rows []data.Document,
	rng *linalg.RNG, counts map[int][]float64, localTotals, totals []float64, vb float64,
	delta map[int]map[int]float64, addDelta func(k, w int, v float64), cfg Config) iterResult {
	cost := tc.Ctx.Cl.Cost
	K := cfg.Topics
	alphaSum := cfg.Alpha * float64(K)
	sw := newSparseSweeper(K, cfg.Alpha, cfg.Beta, vb, counts, localTotals)
	var logLik float64
	tokens := 0
	ops := 0
	for d, doc := range rows {
		dIdx := newNZIndexInt(st.ndk[d], K)
		sw.beginDoc(st.ndk[d], dIdx)
		ops += K
		docLen := float64(len(doc.Words))
		for t, w := range doc.Words {
			old := int(st.z[d][t])
			sw.remove(int(w), old)
			addDelta(old, int(w), -1)
			newK, total := sw.sample(rng, int(w))
			ops += len(sw.wordIdx[int(w)].items) + len(dIdx.items) + 4
			logLik += math.Log(total / (docLen - 1 + alphaSum))
			sw.insert(int(w), newK)
			st.z[d][t] = int32(newK)
			addDelta(newK, int(w), +1)
			tokens++
		}
	}
	tc.Charge(cost.ElemWork(ops))
	pushDeltas(tc, mat, delta, cfg)
	res := iterResult{LogLik: logLik, Tokens: tokens, TotalsDelta: make([]float64, K)}
	for k := 0; k < K; k++ {
		res.TotalsDelta[k] = localTotals[k] - totals[k]
	}
	return res
}

func distinctWords(rows []data.Document) []int {
	seen := map[int32]bool{}
	for _, doc := range rows {
		for _, w := range doc.Words {
			seen[w] = true
		}
	}
	out := make([]int, 0, len(seen))
	for w := range seen {
		out = append(out, int(w))
	}
	sort.Ints(out)
	return out
}

// TopWords returns the n highest-count words of one topic (pulled from the
// servers), for qualitative inspection.
func TopWords(p *simnet.Proc, from *simnet.Node, m *Model, topic, n int) []int {
	row := rdd.Must(m.WordTopic.TryPullRow(p, from, topic))
	type wc struct {
		w int
		c float64
	}
	all := make([]wc, len(row))
	for w, c := range row {
		all[w] = wc{w, c}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].c > all[b].c })
	out := make([]int, 0, n)
	for i := 0; i < n && i < len(all); i++ {
		out = append(out, all[i].w)
	}
	return out
}
