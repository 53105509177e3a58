// Package lr implements the paper's classification workloads on PS2:
// logistic regression and linear SVM trained with mini-batch SGD, Adam,
// Adagrad, RMSProp (Section 5.2.1 / 5.2.4) and L-BFGS, all against the DCV
// abstraction — sparse pulls of exactly the batch's features, a DCV add for
// the gradient push, and a server-side zip for the optimizer update.
package lr

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dcv"
	"repro/internal/linalg"
	"repro/internal/ps"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

// Objective selects the loss being minimized.
type Objective int

const (
	// Logistic is binary logistic regression (labels 0/1).
	Logistic Objective = iota
	// Hinge is a linear SVM with hinge loss (labels 0/1 mapped to ±1).
	Hinge
)

// Config holds the training hyperparameters; defaults follow the paper's
// Table 4.
type Config struct {
	LearningRate  float64
	BatchFraction float64
	Iterations    int
	Objective     Objective

	// Adam/RMSProp parameters.
	Beta1   float64
	Beta2   float64
	Epsilon float64

	// L2 regularization applied in the optimizer update.
	Lambda float64

	// CheckpointEvery, when positive, checkpoints the model matrix to the
	// reliable store every that-many iterations (the paper's Section 5.3
	// server fault tolerance: "PS2 periodically checkpoints the model
	// parameters on each server").
	CheckpointEvery int

	// TargetLoss, when positive, stops training once the mini-batch loss
	// reaches it — the paper's experiments all run "to an objective value".
	TargetLoss float64

	// WarmStart, when non-nil, initializes the weight vector instead of
	// zeros (fine-tuning / continued training). Must have length dim.
	WarmStart []float64

	// NoFusion disables operator fusion: the optimizer step and the gradient
	// reset go out as separate per-operator fan-outs instead of one fused
	// request per server per iteration. The math is identical either way
	// (fusion preserves op order per server); the ext-fusion benchmark uses
	// this switch for its apples-to-apples comparison.
	NoFusion bool

	// Cache, when non-nil, routes the per-task weight pulls through a
	// worker-side parameter cache (ps.CachedClient) keyed by the driver's
	// iteration clock: with Staleness 0 the trained model is bit-identical to
	// the uncached run (the weight row is frozen while tasks execute), while
	// Staleness s lets cached weights up to s iterations old serve without
	// even a validation round trip. When Cache.CombinePushes is also set, the
	// per-task gradient pushes accumulate in per-executor write-combining
	// buffers flushed once per iteration — this regroups the floating-point
	// summation of gradient contributions, so it is kept off the staleness-0
	// bit-identity arm.
	Cache *ps.CacheConfig

	// Replicas, when non-nil, serves the hot-column subset of the weight
	// pulls through a ps.HotReplicaSet: the configured columns are
	// replicated on every server, reads of them go to a rotating server
	// instead of the owner, and writes invalidate through per-element
	// version stamps. Staleness 0 keeps the trained model bit-identical
	// (the weight row is frozen while tasks execute, exactly the cache's
	// argument). Mutually exclusive with Cache — both intercept the same
	// pull, so configuring both is an error.
	Replicas *ps.ReplicaConfig

	Seed uint64
}

// DefaultConfig returns the Table 4 hyperparameters for LR.
func DefaultConfig() Config {
	return Config{
		LearningRate:  0.618,
		BatchFraction: 0.01,
		Iterations:    60,
		Beta1:         0.9,
		Beta2:         0.999,
		Epsilon:       1e-8,
		Seed:          42,
	}
}

// batchStat is the per-task summary returned from each training stage.
type batchStat struct {
	Loss  float64
	Count int
}

// BatchGradient computes the sparse mini-batch gradient and loss sum for a
// set of rows against local weight values. weights maps feature index to
// current weight for every feature appearing in rows. It is shared by the
// PS2 trainer and the baseline systems so every system optimizes the exact
// same objective.
func BatchGradient(obj Objective, rows []data.Instance, weight func(idx int) float64) (grad map[int]float64, lossSum float64) {
	grad = make(map[int]float64, len(rows)*4)
	for _, inst := range rows {
		var z float64
		fv := inst.Features
		for k, idx := range fv.Indices {
			z += fv.Values[k] * weight(idx)
		}
		switch obj {
		case Logistic:
			p := linalg.Sigmoid(z)
			lossSum += linalg.LogLoss(z, inst.Label)
			g := p - inst.Label
			for k, idx := range fv.Indices {
				grad[idx] += g * fv.Values[k]
			}
		case Hinge:
			y := 2*inst.Label - 1
			margin := y * z
			if margin < 1 {
				lossSum += 1 - margin
				for k, idx := range fv.Indices {
					grad[idx] -= y * fv.Values[k]
				}
			}
		}
	}
	return grad, lossSum
}

// DistinctIndices returns the sorted distinct feature indices of a batch —
// the index set a sparse pull fetches.
func DistinctIndices(rows []data.Instance) []int {
	seen := map[int]bool{}
	for _, inst := range rows {
		for _, idx := range inst.Features.Indices {
			seen[idx] = true
		}
	}
	out := make([]int, 0, len(seen))
	for idx := range seen {
		out = append(out, idx)
	}
	sort.Ints(out)
	return out
}

// TotalNnz counts feature entries across rows (the compute charge unit).
func TotalNnz(rows []data.Instance) int {
	n := 0
	for _, inst := range rows {
		n += inst.Features.Nnz()
	}
	return n
}

// Model is the trained output.
type Model struct {
	Weights *dcv.Vector
	Trace   *core.Trace
}

// Optimizer is a server-side update rule applied after each gradient
// aggregation.
type Optimizer interface {
	// Init allocates the optimizer's auxiliary DCVs, co-located with w.
	Init(p *simnet.Proc, e *core.Engine, w *dcv.Vector) error
	// Step applies the update; grad holds the summed batch gradient and
	// batchSize the number of examples behind it.
	Step(p *simnet.Proc, e *core.Engine, w, grad *dcv.Vector, iter, batchSize int) error
	// AuxVectors is how many auxiliary DCVs Init will derive, so Train can
	// size the raw matrix exactly.
	AuxVectors() int
	Name() string
}

// FusedOptimizer is implemented by optimizers whose Step can be recorded into
// a dcv.Batch. Train uses it to coalesce the model update and the gradient
// reset into one fused request per server per iteration instead of separate
// per-operator fan-outs; every built-in optimizer implements it.
type FusedOptimizer interface {
	// RecordStep records the same update Step would apply into b.
	RecordStep(e *core.Engine, b *dcv.Batch, w, grad *dcv.Vector, iter, batchSize int)
}

// Train runs mini-batch training of the configured objective on PS2: the
// execution flow of the paper's Section 3.3 / Figure 3.
func Train(p *simnet.Proc, e *core.Engine, dataset *rdd.RDD[data.Instance], dim int, cfg Config, opt Optimizer) (*Model, error) {
	if cfg.Iterations <= 0 {
		return nil, fmt.Errorf("lr: iterations must be positive")
	}
	if opt == nil {
		opt = NewSGD()
	}
	if cfg.WarmStart != nil && len(cfg.WarmStart) != dim {
		return nil, fmt.Errorf("lr: warm start has %d weights for dim %d", len(cfg.WarmStart), dim)
	}
	// Allocate the weight DCV; the optimizer derives its auxiliary vectors
	// and the gradient from it so everything is dimension co-located.
	weight, err := e.DCV.Dense(p, dim, 2+opt.AuxVectors())
	if err != nil {
		return nil, err
	}
	if cfg.WarmStart != nil {
		if err := weight.TrySet(p, e.Driver(), cfg.WarmStart); err != nil {
			return nil, err
		}
	}
	if err := opt.Init(p, e, weight); err != nil {
		return nil, err
	}
	grad, err := weight.Derive()
	if err != nil {
		return nil, err
	}
	if err := grad.TryZero(p, e.Driver()); err != nil {
		return nil, err
	}

	// Optional worker-side cache: one CachedClient over the shared raw
	// matrix, and (when combining is on) one write-combining gradient buffer
	// per executor machine, flushed by the driver at the stage barrier.
	var cache *ps.CachedClient
	var gradBufs map[*simnet.Node]*ps.PushBuffer
	if cfg.Cache != nil {
		if cfg.Replicas != nil {
			return nil, errors.New("lr: Cache and Replicas both intercept the weight pull; configure one")
		}
		cache = ps.NewCachedClient(weight.Matrix(), *cfg.Cache)
		if cfg.Cache.CombinePushes {
			gradBufs = map[*simnet.Node]*ps.PushBuffer{}
		}
	}
	// Optional hot-parameter replication: reads of the configured hot
	// columns spread over all servers instead of hammering their owners.
	var replicas *ps.HotReplicaSet
	if cfg.Replicas != nil {
		var err error
		replicas, err = ps.NewHotReplicaSet(weight.Matrix(), *cfg.Replicas)
		if err != nil {
			return nil, err
		}
	}

	trace := &core.Trace{Name: "PS2-" + opt.Name()}
	cost := e.Cluster.Cost
	for it := 0; it < cfg.Iterations; it++ {
		batch := dataset.Sample(cfg.BatchFraction, cfg.Seed+uint64(it))
		stats := rdd.RunPartitions(p, batch, 24, func(tc *rdd.TaskContext, part int, rows []data.Instance) batchStat {
			if len(rows) == 0 {
				return batchStat{}
			}
			// (1) Model pull: sparse pull of exactly the batch's features,
			// served from the executor's cache when one is configured.
			idx := DistinctIndices(rows)
			var vals []float64
			switch {
			case cache != nil:
				vals = rdd.Must(cache.TryPullRowIndices(tc.P, tc.Node, weight.Row(), idx))
			case replicas != nil:
				vals = rdd.Must(replicas.TryPullRowIndices(tc.P, tc.Node, weight.Row(), idx))
			default:
				vals = rdd.Must(weight.TryPullIndices(tc.P, tc.Node, idx))
			}
			local := make(map[int]float64, len(idx))
			for k, i := range idx {
				local[i] = vals[k]
			}
			// (2) Gradient calculation.
			g, lossSum := BatchGradient(cfg.Objective, rows, func(i int) float64 { return local[i] })
			tc.Charge(cost.GradWork(TotalNnz(rows)))
			tc.Commit()
			// (3) Gradient push via the DCV add operator.
			gi := make([]int, 0, len(g))
			for i := range g {
				gi = append(gi, i)
			}
			sort.Ints(gi)
			gv := make([]float64, len(gi))
			for k, i := range gi {
				gv[k] = g[i]
			}
			sv, err := linalg.NewSparse(gi, gv)
			if err != nil {
				panic(err)
			}
			// Value-bounded accounting: the push below targets the GRAD
			// row, but the row the cache holds is the WEIGHT row, whose
			// eventual change is the optimizer step over this gradient.
			// Credit the cache with the SGD-flavored estimate lr·|g|/batch
			// so value-bounded and adaptive policies see a per-element
			// magnitude signal; skipped entirely under the default
			// clock-bounded policy.
			if cache != nil && cache.Policy().UsesDeltas() {
				mags := make([]float64, len(gv))
				scale := cfg.LearningRate / float64(len(rows))
				for k, v := range gv {
					mags[k] = scale * v
				}
				cache.CreditPush(tc.Node, weight.Row(), gi, mags)
			}
			if gradBufs != nil {
				// Write combining: the delta merges host-side into the
				// executor's buffer; the wire cost is paid at flush.
				buf := gradBufs[tc.Node]
				if buf == nil {
					buf = cache.NewPushBuffer()
					gradBufs[tc.Node] = buf
				}
				if err := buf.Add(grad.Row(), sv); err != nil {
					panic(err)
				}
				// Auto-tuned mid-batch flush: when the buffer's pending
				// payload already dwarfs the per-request framing, ship it
				// now instead of letting it sit until the stage barrier.
				// Off unless CacheConfig.AutoFlushTarget is set.
				if buf.ShouldFlush() {
					rdd.Check(buf.TryFlush(tc.P, tc.Node))
				}
			} else {
				rdd.Check(grad.TryAdd(tc.P, tc.Node, sv))
			}
			return batchStat{Loss: lossSum, Count: len(rows)}
		})
		// Global barrier happened inside RunPartitions (Spark's foreach).
		// Flush the combined gradients — one coalesced push per executor, in
		// parallel so the flush wave costs one round trip, not one per
		// executor — before the optimizer reads the batch gradient.
		if gradBufs != nil {
			g := p.Sim().NewGroup()
			errs := make([]error, len(e.Cluster.Executors))
			for i, node := range e.Cluster.Executors {
				i, node := i, node
				if buf := gradBufs[node]; buf != nil && buf.Pending() > 0 {
					g.Go("grad-flush", func(fp *simnet.Proc) {
						errs[i] = buf.TryFlush(fp, node)
					})
				}
			}
			g.Wait(p)
			if err := errors.Join(errs...); err != nil {
				return nil, err
			}
		}
		var lossSum float64
		var count int
		for _, st := range stats {
			lossSum += st.Loss
			count += st.Count
		}
		if count == 0 {
			continue
		}
		// (4) Model update: server-side computation across co-located DCVs.
		// With fusion (the default) the optimizer step and the gradient
		// reset ride one request per server; the per-server op order (step,
		// then zero) matches the unfused sequence, so the trained model is
		// bit-identical.
		if fopt, ok := opt.(FusedOptimizer); ok && !cfg.NoFusion {
			b := dcv.NewBatch(weight)
			fopt.RecordStep(e, b, weight, grad, it+1, count)
			b.Zero(grad)
			if err := b.Run(p, e.Driver()); err != nil {
				return nil, err
			}
		} else {
			if err := opt.Step(p, e, weight, grad, it+1, count); err != nil {
				return nil, err
			}
			if err := grad.TryZero(p, e.Driver()); err != nil {
				return nil, err
			}
		}
		// The optimizer step mutated the weight row: advance the matrix's
		// model clock — replica freshness and any serving-tier reader attached
		// to the weights ride it (ps/serve.go) — and every executor's cache
		// clock, so staleness-0 entries stop serving until revalidated against
		// the new version stamps.
		weight.Matrix().TickClock()
		if cache != nil {
			cache.Tick()
		}
		trace.Add(p.Now(), lossSum/float64(count))
		if cfg.CheckpointEvery > 0 && (it+1)%cfg.CheckpointEvery == 0 {
			e.PS.Checkpoint(p, weight.Matrix())
		}
		if cfg.TargetLoss > 0 && lossSum/float64(count) <= cfg.TargetLoss {
			break
		}
	}
	return &Model{Weights: weight, Trace: trace}, nil
}

// EvalLoss computes the mean loss of a pulled weight vector over a dataset —
// used by tests and experiments for an apples-to-apples final comparison.
func EvalLoss(obj Objective, instances []data.Instance, w []float64) float64 {
	if len(instances) == 0 {
		return math.NaN()
	}
	var total float64
	for _, inst := range instances {
		z := inst.Features.DotDense(w)
		switch obj {
		case Logistic:
			total += linalg.LogLoss(z, inst.Label)
		case Hinge:
			y := 2*inst.Label - 1
			if m := y * z; m < 1 {
				total += 1 - m
			}
		}
	}
	return total / float64(len(instances))
}

// Accuracy computes classification accuracy of weights w.
func Accuracy(instances []data.Instance, w []float64) float64 {
	if len(instances) == 0 {
		return math.NaN()
	}
	correct := 0
	for _, inst := range instances {
		pred := 0.0
		if inst.Features.DotDense(w) > 0 {
			pred = 1.0
		}
		if pred == inst.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(instances))
}

// PredictProb returns the predicted positive-class probability of one
// instance under pulled weights.
func PredictProb(inst data.Instance, w []float64) float64 {
	return linalg.Sigmoid(inst.Features.DotDense(w))
}

// AUC computes the area under the ROC curve of pulled weights over a
// dataset, the metric recommendation workloads actually report.
func AUC(instances []data.Instance, w []float64) float64 {
	type scored struct {
		p float64
		y float64
	}
	s := make([]scored, len(instances))
	var pos, neg float64
	for i, inst := range instances {
		s[i] = scored{p: inst.Features.DotDense(w), y: inst.Label}
		if inst.Label > 0.5 {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return math.NaN()
	}
	sort.Slice(s, func(a, b int) bool { return s[a].p < s[b].p })
	// Rank-sum (Mann-Whitney) with tie handling by average rank.
	var rankSum float64
	i := 0
	for i < len(s) {
		j := i
		for j < len(s) && s[j].p == s[i].p {
			j++
		}
		avgRank := float64(i+j+1) / 2 // ranks are 1-based
		for k := i; k < j; k++ {
			if s[k].y > 0.5 {
				rankSum += avgRank
			}
		}
		i = j
	}
	return (rankSum - pos*(pos+1)/2) / (pos * neg)
}

// ClusterMetrics is the result of distributed evaluation.
type ClusterMetrics struct {
	Loss     float64
	Accuracy float64
	Rows     int
}

// EvalOnCluster scores a dataset against a trained DCV model without moving
// the data: every worker sparse-pulls just the weights its partition
// touches, computes loss and accuracy locally, and only scalars travel to
// the driver. This is the inference-side counterpart of the training loop.
func EvalOnCluster(p *simnet.Proc, e *core.Engine, dataset *rdd.RDD[data.Instance], obj Objective, weights *dcv.Vector) ClusterMetrics {
	cost := e.Cluster.Cost
	type partial struct {
		Loss    float64
		Correct int
		Rows    int
	}
	parts := rdd.RunPartitions(p, dataset, 24, func(tc *rdd.TaskContext, part int, rows []data.Instance) partial {
		if len(rows) == 0 {
			return partial{}
		}
		idx := DistinctIndices(rows)
		vals := rdd.Must(weights.TryPullIndices(tc.P, tc.Node, idx))
		local := make(map[int]float64, len(idx))
		for k, i := range idx {
			local[i] = vals[k]
		}
		var out partial
		for _, inst := range rows {
			var z float64
			for k, i := range inst.Features.Indices {
				z += inst.Features.Values[k] * local[i]
			}
			switch obj {
			case Logistic:
				out.Loss += linalg.LogLoss(z, inst.Label)
			case Hinge:
				y := 2*inst.Label - 1
				if m := y * z; m < 1 {
					out.Loss += 1 - m
				}
			}
			pred := 0.0
			if z > 0 {
				pred = 1
			}
			if pred == inst.Label {
				out.Correct++
			}
			out.Rows++
		}
		tc.Charge(cost.GradWork(TotalNnz(rows)))
		tc.Commit()
		return out
	})
	var total partial
	for _, pt := range parts {
		total.Loss += pt.Loss
		total.Correct += pt.Correct
		total.Rows += pt.Rows
	}
	if total.Rows == 0 {
		return ClusterMetrics{Loss: math.NaN(), Accuracy: math.NaN()}
	}
	return ClusterMetrics{
		Loss:     total.Loss / float64(total.Rows),
		Accuracy: float64(total.Correct) / float64(total.Rows),
		Rows:     total.Rows,
	}
}
