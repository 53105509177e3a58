// Package embedding implements DeepWalk-style graph embedding (paper
// Section 5.2.2, Figures 5 and 6): every vertex gets an input (embedding)
// vector and an output (context) vector, stored as the 2V rows of one
// column-partitioned raw matrix — i.e. 2V dimension co-located DCVs created
// via dense(K, V*2) + derive. Training slides skip-gram with negative
// sampling over random-walk pairs.
//
// Two execution modes reproduce the paper's Figure 9(c)/(d) comparison:
//
//   - ModeDCV ("PS2-DeepWalk"): the dot products and the axpy updates run
//     server-side; only vertex ids, partial dots and a handful of scalars
//     cross the network.
//   - ModePullPush ("PS-DeepWalk"): a classic parameter server — the worker
//     pulls the full vectors of the center and all context vertices, updates
//     them locally, and pushes the deltas back.
package embedding

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/ps"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

// Mode selects the communication strategy.
type Mode int

const (
	// ModeDCV is PS2's server-side computation path.
	ModeDCV Mode = iota
	// ModePullPush is the pull/update/push baseline path.
	ModePullPush
)

func (m Mode) String() string {
	if m == ModeDCV {
		return "PS2"
	}
	return "PS"
}

// Config holds the DeepWalk hyperparameters; defaults follow Table 4.
type Config struct {
	K            int // embedding dimension
	LearningRate float64
	BatchSize    int // pairs per worker per iteration
	Negatives    int
	Iterations   int
	Mode         Mode
	// UniformNegatives draws negative samples uniformly instead of from the
	// word2vec unigram^0.75 noise distribution (the default).
	UniformNegatives bool
	// CheckpointEvery, when positive, checkpoints the embedding matrix to
	// the reliable store every that-many iterations, bounding what a server
	// crash can lose (paper Section 5.3).
	CheckpointEvery int
	// NoFusion disables the fused request pipeline in ModeDCV: every pair
	// issues its dot and update fan-outs separately instead of shipping the
	// previous pair's update inside the next pair's dot request. Fusion is
	// the default; the ext-fusion experiment flips this switch.
	NoFusion bool
	// Cache, when non-nil, routes ModePullPush through the worker-side
	// parameter cache: row pulls come from the executor's cache (validated
	// with cheap version stamps) and the per-pair delta pushes accumulate in
	// a write-combining buffer flushed once per partition. Pending deltas are
	// merged into pulled rows (read-your-writes), so a worker's own updates
	// stay visible between flushes. Value-bounded / adaptive cache policies
	// (Cache.Policy) need no extra wiring here: the combined pushes target the
	// very rows the cache holds, so the buffer's flush credits pending-delta
	// accounting automatically. Ignored in ModeDCV, whose updates already
	// ride fused server-side programs.
	Cache *ps.CacheConfig
	Seed  uint64
}

// DefaultConfig returns the paper's Table 4 values with an embedding
// dimension of 128 ("could be one hundred or bigger").
func DefaultConfig() Config {
	return Config{K: 128, LearningRate: 0.01, BatchSize: 512, Negatives: 5, Iterations: 10, Mode: ModeDCV, Seed: 7}
}

// Model is the trained embedding table.
type Model struct {
	Mat   *ps.Matrix // 2V rows × K columns: rows [0,V) input, [V,2V) output
	V     int
	K     int
	Trace *core.Trace // mean pair loss per iteration
}

// InputVector pulls vertex u's embedding to the caller.
func (m *Model) InputVector(p *simnet.Proc, from *simnet.Node, u int) []float64 {
	return rdd.Must(m.Mat.TryPullRows(p, from, []int{u}))[0]
}

// Train embeds the graph behind the given skip-gram pair dataset.
func Train(p *simnet.Proc, e *core.Engine, pairs *rdd.RDD[data.Pair], vertices int, cfg Config) (*Model, error) {
	if vertices <= 0 || cfg.K <= 0 || cfg.Iterations <= 0 {
		return nil, fmt.Errorf("embedding: invalid config V=%d %+v", vertices, cfg)
	}
	// One raw matrix with 2V co-located rows — DCV.dense(K, V*2) + derive in
	// the paper's Figure 6.
	mat, err := e.PS.CreateMatrix(p, 2*vertices, cfg.K)
	if err != nil {
		return nil, err
	}
	initEmbeddings(p, e, mat, vertices, cfg)

	// Optional worker-side cache for the pull/push path (the mode that ships
	// whole vectors and so has something to save).
	var cache *ps.CachedClient
	if cfg.Cache != nil && cfg.Mode == ModePullPush {
		cache = ps.NewCachedClient(mat, *cfg.Cache)
	}

	model := &Model{Mat: mat, V: vertices, K: cfg.K, Trace: &core.Trace{Name: cfg.Mode.String() + "-DeepWalk"}}
	totalPairs := rdd.Count(p, pairs)
	if totalPairs == 0 {
		return nil, fmt.Errorf("embedding: empty pair dataset")
	}
	parts := pairs.Partitions()
	fraction := float64(cfg.BatchSize*parts) / float64(totalPairs)

	// Negative-sample distribution: word2vec's unigram^0.75 over context
	// frequencies, aggregated once across the partitions and broadcast.
	var negSampler *linalg.AliasSampler
	if !cfg.UniformNegatives {
		var err error
		negSampler, err = buildNoiseSampler(p, e, pairs, vertices)
		if err != nil {
			return nil, err
		}
	}

	for it := 0; it < cfg.Iterations; it++ {
		batch := pairs.Sample(fraction, cfg.Seed+uint64(it))
		losses := rdd.RunPartitions(p, batch, 16, func(tc *rdd.TaskContext, part int, rows []data.Pair) [2]float64 {
			tc.Commit()
			var lossSum float64
			var count int
			rng := tc.RNG()
			worker := &dcvWorker{mat: mat, cfg: cfg}
			var buf *ps.PushBuffer
			if cache != nil {
				buf = cache.NewPushBuffer()
			}
			// Pair-parity context/label scratch. Two generations alternate
			// because with fusion on, pair k's held-back update op executes
			// inside pair k+1's request and still reads pair k's contexts —
			// a single reused buffer would be overwritten out from under it.
			var ctxScratch [2][]int
			var lblScratch [2][]float64
			for g := range ctxScratch {
				ctxScratch[g] = make([]int, 1+cfg.Negatives)
				lblScratch[g] = make([]float64, 1+cfg.Negatives)
			}
			var pps pullPushScratch
			for pi, pr := range rows {
				contexts, labels := ctxScratch[pi&1], lblScratch[pi&1]
				contexts[0] = vertices + int(pr.V) // positive context
				labels[0] = 1
				for n := 0; n < cfg.Negatives; n++ {
					if negSampler != nil {
						contexts[1+n] = vertices + negSampler.Sample(rng)
					} else {
						contexts[1+n] = vertices + rng.Intn(vertices)
					}
					labels[1+n] = 0
				}
				var loss float64
				if cfg.Mode == ModeDCV {
					loss = worker.step(tc, int(pr.U), contexts, labels)
				} else {
					loss = pullPushStep(tc, mat, cache, buf, int(pr.U), contexts, labels, cfg, &pps)
					// Auto-tuned mid-partition flush (opt-in via the cache
					// config): ship the combined deltas once payload dwarfs
					// framing instead of holding everything to partition end.
					// Flushed deltas leave the buffer, so read-your-writes
					// degrades to the cache's staleness bound for them — the
					// same visibility other workers' committed updates get.
					if buf != nil && buf.ShouldFlush() {
						rdd.Check(buf.TryFlush(tc.P, tc.Node))
					}
				}
				lossSum += loss
				count++
			}
			worker.flush(tc)
			if buf != nil {
				rdd.Check(buf.TryFlush(tc.P, tc.Node))
			}
			return [2]float64{lossSum, float64(count)}
		})
		var lossSum, count float64
		for _, l := range losses {
			lossSum += l[0]
			count += l[1]
		}
		if count > 0 {
			model.Trace.Add(p.Now(), lossSum/count)
		}
		// The iteration mutated the embeddings: advance the matrix's model
		// clock (serving-tier replica freshness rides it, ps/serve.go) and the
		// executor cache clocks.
		mat.TickClock()
		if cache != nil {
			cache.Tick()
		}
		if cfg.CheckpointEvery > 0 && (it+1)%cfg.CheckpointEvery == 0 {
			e.PS.Checkpoint(p, mat)
		}
	}
	return model, nil
}

// buildNoiseSampler counts context-vertex frequencies across the pair
// dataset (one small dense count vector per partition to the driver) and
// builds the unigram^0.75 alias table.
func buildNoiseSampler(p *simnet.Proc, e *core.Engine, pairs *rdd.RDD[data.Pair], vertices int) (*linalg.AliasSampler, error) {
	cost := e.Cluster.Cost
	counts := rdd.Aggregate(p, pairs, rdd.AggSpec[data.Pair, []float64]{
		Zero: func() []float64 { return make([]float64, vertices) },
		Seq: func(tc *rdd.TaskContext, acc []float64, pr data.Pair) []float64 {
			acc[pr.V]++
			return acc
		},
		Comb: func(a, b []float64) []float64 {
			for i := range a {
				a[i] += b[i]
			}
			return a
		},
		Bytes:    func([]float64) float64 { return cost.DenseBytes(vertices) },
		CombWork: cost.ElemWork(vertices),
	})
	for i := range counts {
		counts[i] = math.Pow(counts[i]+1, 0.75) // +1 smoothing: every vertex samplable
	}
	// Broadcast the noise table to the workers.
	e.RDD.Broadcast(p, cost.DenseBytes(vertices))
	return linalg.NewAliasSampler(counts)
}

// initEmbeddings gives input and output vectors small random values
// (symmetric initialization converges faster at our scaled-down update
// counts than word2vec's zero-output convention). The initialization runs
// server-side — the coordinator sends one seeded command per server and each
// server fills its own shard — so setup costs one RPC per server instead of
// 2V row writes, as production parameter servers do.
func initEmbeddings(p *simnet.Proc, e *core.Engine, mat *ps.Matrix, vertices int, cfg Config) {
	scale := 1.0 / math.Sqrt(float64(cfg.K))
	cost := e.Cluster.Cost
	g := p.Sim().NewGroup()
	for s := 0; s < mat.Part.NumServers(); s++ {
		s := s
		g.Go("init-embeddings", func(cp *simnet.Proc) {
			sh := mat.ShardOf(s)
			srv := mat.ServerNode(s)
			e.Driver().Send(cp, srv, cost.RequestOverheadB)
			srv.Compute(cp, cost.ElemWork(len(sh.Rows)*sh.Width()))
			rng := linalg.NewRNG(cfg.Seed*77 + 13 + uint64(s)*1_000_003)
			for r := range sh.Rows {
				row := sh.Rows[r]
				for i := range row {
					row[i] = (rng.Float64() - 0.5) * scale
				}
			}
			// The fill bypassed CallShard, so mark every row mutated: delta
			// checkpoints and cache version stamps must see the init values.
			sh.TouchAll()
			srv.Send(cp, e.Driver(), cost.RequestOverheadB)
		})
	}
	g.Wait(p)
}

// dcvWorker runs the server-side DeepWalk path for one partition. With fusion
// on (the default) it pipelines requests: pair k's update op is held back and
// shipped inside pair k+1's dot request as one fused program per server, so
// steady-state costs ONE fan-out per pair instead of two. The server executes
// the program in order — update first, then dots — so the dots observe exactly
// the post-update state they would have seen unfused. flush ships the last
// held-back update at partition end.
type dcvWorker struct {
	mat     *ps.Matrix
	cfg     Config
	pending *ps.InvokeOp // previous pair's update, awaiting the next request

	// Steady-state scratch, allocated once per partition instead of per pair.
	//
	// State captured by the held-back update op (gs, the op struct itself) is
	// pair-parity double-buffered: pair k's op executes inside pair k+1's
	// request, so pair k+1 must fill the OTHER generation. State consumed
	// within one step (parts, dots) and per-shard update scratch reset on Fn
	// entry (du, dcIdx/dcVal) need only one generation.
	parity int
	gs     [2][]float64   // gradient scalars, captured by the update op
	ops    [2]ps.InvokeOp // update-op storage behind dw.pending
	parts  [][]float64    // per-server dot partials; slot s written by server s only
	dots   []float64
	fused  []ps.InvokeOp // 2-op program buffer for the fused request
	du     []float64     // update scratch: center-row delta, reset at Fn start
	dcIdx  []int         // update scratch: distinct context rows, first-seen order
	dcVal  [][]float64   // update scratch: context deltas aligned with dcIdx
}

// ctxDelta returns the zeroed accumulation buffer for context row ctx,
// deduplicating repeated negatives within one sample group (nctx is tiny, so
// the linear scan beats a map and allocates nothing in steady state).
func (dw *dcvWorker) ctxDelta(ctx, n int) []float64 {
	for k, id := range dw.dcIdx {
		if id == ctx {
			return dw.dcVal[k]
		}
	}
	k := len(dw.dcIdx)
	dw.dcIdx = append(dw.dcIdx, ctx)
	if k == len(dw.dcVal) {
		dw.dcVal = append(dw.dcVal, make([]float64, n))
	}
	d := dw.dcVal[k]
	if cap(d) < n {
		d = make([]float64, n)
		dw.dcVal[k] = d
	}
	d = d[:n]
	dw.dcVal[k] = d
	linalg.Fill(d, 0)
	return d
}

// step performs one skip-gram-with-negatives update entirely server-side:
// a batched dot (one request per server, partial dots back) followed by a
// batched axpy-style update (gradient scalars out, no vector data on the
// wire). Matches the paper's Figure 5/6 flow with negative-sample batching.
func (dw *dcvWorker) step(tc *rdd.TaskContext, center int, contexts []int, labels []float64) float64 {
	cost := tc.Ctx.Cl.Cost
	mat, cfg := dw.mat, dw.cfg
	nctx := len(contexts)
	if dw.parts == nil {
		dw.parts = make([][]float64, mat.Part.NumServers())
		for s := range dw.parts {
			dw.parts[s] = make([]float64, nctx)
		}
		dw.dots = make([]float64, nctx)
		dw.gs[0] = make([]float64, nctx)
		dw.gs[1] = make([]float64, nctx)
		dw.fused = make([]ps.InvokeOp, 2)
	}
	par := dw.parity
	dw.parity ^= 1
	// Server-side dots: request carries the row ids, response the partials.
	// Each server assigns into its own slot (never accumulates into shared
	// host memory) so a retried invocation after a crash stays idempotent —
	// every successful (re)execution overwrites all nctx entries of its slot.
	partsByServer := dw.parts
	dotReq, dotResp := 4*float64(1+nctx), 8*float64(nctx)
	dotWork := func(w int) float64 { return cost.ElemWork(w * nctx) }
	dotFn := func(s int, sh *ps.Shard) float64 {
		part := partsByServer[s]
		u := sh.Rows[center]
		for j, ctx := range contexts {
			part[j] = linalg.Dot(u, sh.Rows[ctx])
		}
		return 0
	}
	if dw.pending != nil {
		dw.fused[0] = *dw.pending
		dw.fused[1] = ps.InvokeOp{ReqBytes: dotReq, RespBytes: dotResp, Work: dotWork, Fn: dotFn}
		dw.pending = nil
		rdd.Must(mat.TryInvokeFused(tc.P, tc.Node, dw.fused))
	} else {
		// No held-back update: a pure read, outside dedup tracking.
		rdd.Must(mat.TryInvokeRead(tc.P, tc.Node, dotReq, dotResp, dotWork, dotFn))
	}
	dots := dw.dots
	linalg.Fill(dots, 0)
	for _, part := range partsByServer {
		for j, x := range part {
			dots[j] += x
		}
	}
	// Gradients are scalars computed at the worker, in this pair's parity
	// generation: the previous pair's gs is still live inside dw.pending.
	gs := dw.gs[par]
	var loss float64
	for j := range contexts {
		p := linalg.Sigmoid(dots[j])
		gs[j] = cfg.LearningRate * (labels[j] - p)
		loss += linalg.LogLoss(dots[j], labels[j])
	}
	tc.Charge(cost.ElemWork(nctx))
	// Server-side update: ship only the gradient scalars; every server
	// updates its stretch of the center and context rows locally. The op
	// lives in this pair's parity slot of dw.ops so the held-back pointer
	// stays valid while the next pair records its own.
	update := &dw.ops[par]
	*update = ps.InvokeOp{
		ReqBytes: 4*float64(1+nctx) + 8*float64(nctx),
		Work:     func(w int) float64 { return cost.ElemWork(w * nctx * 2) },
		Mutates:  true,
		Fn: func(s int, sh *ps.Shard) float64 {
			// Read-then-apply: all gradients are computed against the
			// pre-update vectors, so a context sampled twice in one group
			// (possible with negative sampling) receives two additive
			// deltas — identical semantics to the pull/push path, which
			// works on pulled copies. The worker-owned du/dc scratch is
			// reset on entry; Fn bodies run start to finish with no
			// scheduler yield, so one buffer set serves every server's
			// invocation of this op.
			u := sh.Rows[center]
			if cap(dw.du) < len(u) {
				dw.du = make([]float64, len(u))
			}
			du := dw.du[:len(u)]
			linalg.Fill(du, 0)
			dw.dcIdx = dw.dcIdx[:0]
			for j, ctx := range contexts {
				c := sh.Rows[ctx]
				d := dw.ctxDelta(ctx, len(u))
				for i := range u {
					du[i] += gs[j] * c[i]
					d[i] += gs[j] * u[i]
				}
			}
			// Apply in first-seen (deterministic) order; distinct rows, so
			// the order cannot perturb any element's summation.
			for k, ctx := range dw.dcIdx {
				linalg.Add(sh.Rows[ctx], dw.dcVal[k])
			}
			linalg.Add(u, du)
			return 0
		},
	}
	if cfg.NoFusion {
		rdd.Must(mat.TryInvoke(tc.P, tc.Node, update.ReqBytes, 0, update.Work, update.Fn))
	} else {
		dw.pending = update
	}
	return loss
}

// flush ships the last held-back update at partition end.
func (dw *dcvWorker) flush(tc *rdd.TaskContext) {
	if dw.pending == nil {
		return
	}
	up := *dw.pending
	dw.pending = nil
	rdd.Must(dw.mat.TryInvoke(tc.P, tc.Node, up.ReqBytes, 0, up.Work, up.Fn))
}

// pullPushScratch is the per-partition steady-state scratch of the pull/push
// arm: row-id assembly, pull destination buffers, and delta accumulators are
// allocated once and reused across pairs. Safe because every consumer
// (TryPullRowsInto, AddRowsDelta's host-side accumulate, TryPushRowsDelta's
// synchronous call) finishes with the buffers before the next pair starts.
type pullPushScratch struct {
	rows   []int
	vecs   [][]float64
	deltas [][]float64
}

// pullPushStep is the PS-DeepWalk baseline: pull all vectors, update locally,
// push the deltas back — full vector data over the network in both
// directions. With a cache, the pull is served from the executor's cache
// (pending buffered deltas merged in for read-your-writes) and the push
// accumulates in the write-combining buffer instead of going to the wire.
func pullPushStep(tc *rdd.TaskContext, mat *ps.Matrix, cache *ps.CachedClient, buf *ps.PushBuffer, center int, contexts []int, labels []float64, cfg Config, sc *pullPushScratch) float64 {
	cost := tc.Ctx.Cl.Cost
	n := 1 + len(contexts)
	if len(sc.rows) != n {
		sc.rows = make([]int, n)
		sc.vecs = make([][]float64, n)
		sc.deltas = make([][]float64, n)
		for i := 0; i < n; i++ {
			sc.vecs[i] = make([]float64, cfg.K)
			sc.deltas[i] = make([]float64, cfg.K)
		}
	}
	rows := sc.rows
	rows[0] = center
	copy(rows[1:], contexts)
	var vecs [][]float64
	if cache != nil {
		vecs = rdd.Must(cache.TryPullRows(tc.P, tc.Node, rows))
		buf.ApplyPending(rows, vecs)
	} else {
		rdd.Check(mat.TryPullRowsInto(tc.P, tc.Node, rows, sc.vecs))
		vecs = sc.vecs
	}
	u := vecs[0]
	deltas := sc.deltas
	for i := range deltas {
		linalg.Fill(deltas[i], 0)
	}
	var loss float64
	for j := range contexts {
		c := vecs[1+j]
		dot := linalg.Dot(u, c)
		p := linalg.Sigmoid(dot)
		g := cfg.LearningRate * (labels[j] - p)
		loss += linalg.LogLoss(dot, labels[j])
		for i := range u {
			deltas[0][i] += g * c[i]
			deltas[1+j][i] += g * u[i]
		}
	}
	tc.Charge(cost.ElemWork(cfg.K * len(contexts) * 2))
	if buf != nil {
		buf.AddRowsDelta(rows, deltas)
	} else {
		rdd.Check(mat.TryPushRowsDelta(tc.P, tc.Node, rows, deltas))
	}
	return loss
}

// Similarity computes the cosine similarity between the input embeddings of
// two vertices (for evaluation).
func Similarity(a, b []float64) float64 {
	na, nb := linalg.Norm2(a), linalg.Norm2(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return linalg.Dot(a, b) / (na * nb)
}

// EdgeScore evaluates an embedding: the mean sigmoid(u·v') over the given
// positive pairs minus the mean over random pairs; positive values mean the
// embedding learned graph structure.
func EdgeScore(p *simnet.Proc, from *simnet.Node, m *Model, pairs []data.Pair, seed uint64) float64 {
	if len(pairs) == 0 {
		return math.NaN()
	}
	rng := linalg.NewRNG(seed)
	var pos, neg float64
	for _, pr := range pairs {
		vecs := rdd.Must(m.Mat.TryPullRows(p, from, []int{int(pr.U), m.V + int(pr.V), m.V + rng.Intn(m.V)}))
		pos += linalg.Sigmoid(linalg.Dot(vecs[0], vecs[1]))
		neg += linalg.Sigmoid(linalg.Dot(vecs[0], vecs[2]))
	}
	return (pos - neg) / float64(len(pairs))
}

// Neighbor is a similarity query result.
type Neighbor struct {
	Vertex     int
	Similarity float64
}

// MostSimilar returns the n vertices whose input embeddings have the highest
// cosine similarity to vertex u (host-side evaluation helper reading shard
// memory; u itself is excluded).
func (m *Model) MostSimilar(u, n int) []Neighbor {
	table := m.hostInputTable()
	base := table[u]
	out := make([]Neighbor, 0, m.V-1)
	for v := 0; v < m.V; v++ {
		if v == u {
			continue
		}
		out = append(out, Neighbor{Vertex: v, Similarity: Similarity(base, table[v])})
	}
	sortNeighbors(out)
	if n > len(out) {
		n = len(out)
	}
	return out[:n]
}

// hostInputTable assembles all V input embeddings from shard memory.
func (m *Model) hostInputTable() [][]float64 {
	table := make([][]float64, m.V)
	for v := range table {
		table[v] = make([]float64, m.K)
	}
	for s := 0; s < m.Mat.Part.NumServers(); s++ {
		sh := m.Mat.ShardOf(s)
		for v := 0; v < m.V; v++ {
			sh.Scatter(sh.Rows[v], table[v])
		}
	}
	return table
}

func sortNeighbors(ns []Neighbor) {
	sort.Slice(ns, func(a, b int) bool {
		if ns[a].Similarity != ns[b].Similarity {
			return ns[a].Similarity > ns[b].Similarity
		}
		return ns[a].Vertex < ns[b].Vertex
	})
}

// SaveText writes the input embeddings in word2vec's text format:
// a "V K" header followed by one "<vertex> <v1> ... <vK>" line per vertex.
func (m *Model) SaveText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", m.V, m.K); err != nil {
		return err
	}
	table := m.hostInputTable()
	for v, vec := range table {
		if _, err := fmt.Fprintf(bw, "%d", v); err != nil {
			return err
		}
		for _, x := range vec {
			if _, err := fmt.Fprintf(bw, " %g", x); err != nil {
				return err
			}
		}
		if _, err := bw.WriteString("\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadText reads embeddings written by SaveText, returning the table indexed
// by vertex id.
func LoadText(r io.Reader) ([][]float64, error) {
	br := bufio.NewScanner(r)
	br.Buffer(make([]byte, 1024*1024), 64*1024*1024)
	if !br.Scan() {
		return nil, fmt.Errorf("embedding: missing header")
	}
	var v, k int
	if _, err := fmt.Sscanf(br.Text(), "%d %d", &v, &k); err != nil {
		return nil, fmt.Errorf("embedding: bad header %q: %w", br.Text(), err)
	}
	if v <= 0 || k <= 0 {
		return nil, fmt.Errorf("embedding: implausible header V=%d K=%d", v, k)
	}
	table := make([][]float64, v)
	for br.Scan() {
		fields := strings.Fields(br.Text())
		if len(fields) == 0 {
			continue
		}
		if len(fields) != k+1 {
			return nil, fmt.Errorf("embedding: row has %d fields, want %d", len(fields), k+1)
		}
		var id int
		if _, err := fmt.Sscanf(fields[0], "%d", &id); err != nil || id < 0 || id >= v {
			return nil, fmt.Errorf("embedding: bad vertex id %q", fields[0])
		}
		vec := make([]float64, k)
		for i := 0; i < k; i++ {
			if _, err := fmt.Sscanf(fields[1+i], "%g", &vec[i]); err != nil {
				return nil, fmt.Errorf("embedding: bad value %q: %w", fields[1+i], err)
			}
		}
		table[id] = vec
	}
	if err := br.Err(); err != nil {
		return nil, err
	}
	for id, vec := range table {
		if vec == nil {
			return nil, fmt.Errorf("embedding: vertex %d missing", id)
		}
	}
	return table, nil
}

// LinkPredictionAUC evaluates the embedding as a link predictor: it scores
// every given positive edge and an equal number of random non-edges by
// input-embedding cosine similarity and returns the AUC of ranking positives
// above negatives (host-side evaluation helper).
func (m *Model) LinkPredictionAUC(g *data.Graph, edges []data.Pair, seed uint64) float64 {
	if len(edges) == 0 {
		return math.NaN()
	}
	table := m.hostInputTable()
	rng := linalg.NewRNG(seed)
	type scored struct {
		s   float64
		pos bool
	}
	var all []scored
	for _, e := range edges {
		all = append(all, scored{Similarity(table[e.U], table[e.V]), true})
		// Sample a non-edge with the same source.
		for tries := 0; tries < 50; tries++ {
			v := int32(rng.Intn(m.V))
			if v == e.U || hasEdge(g, e.U, v) {
				continue
			}
			all = append(all, scored{Similarity(table[e.U], table[v]), false})
			break
		}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].s < all[b].s })
	var pos, neg, rankSum float64
	i := 0
	for i < len(all) {
		j := i
		for j < len(all) && all[j].s == all[i].s {
			j++
		}
		avgRank := float64(i+j+1) / 2
		for k := i; k < j; k++ {
			if all[k].pos {
				rankSum += avgRank
				pos++
			} else {
				neg++
			}
		}
		i = j
	}
	if pos == 0 || neg == 0 {
		return math.NaN()
	}
	return (rankSum - pos*(pos+1)/2) / (pos * neg)
}

func hasEdge(g *data.Graph, u, v int32) bool {
	for _, n := range g.Adj[u] {
		if n == v {
			return true
		}
	}
	return false
}
