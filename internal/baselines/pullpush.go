package baselines

import (
	"math"

	"repro/internal/core"
	"repro/internal/dcv"
	"repro/internal/ml/lr"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

// PullPushAdam is the paper's "PS-Adam" (Figure 9(a)/(b)): it runs on the
// same parameter servers as PS2-Adam but without server-side computation.
// After the gradient push, the driver must pull all four model vectors, run
// the Adam update locally, and push the three mutated vectors back — full
// dense vector traffic every iteration, against PS2's scalar-only zip.
// It implements lr.Optimizer, so the training loop is byte-for-byte the one
// PS2-Adam uses; only the update step's communication differs.
type PullPushAdam struct {
	LearningRate float64
	Beta1        float64
	Beta2        float64
	Epsilon      float64

	velocity *dcv.Vector
	square   *dcv.Vector
}

// NewPullPushAdam returns PS-Adam with the paper's hyperparameters.
func NewPullPushAdam() *PullPushAdam {
	cfg := lr.DefaultConfig()
	return &PullPushAdam{LearningRate: cfg.LearningRate, Beta1: cfg.Beta1, Beta2: cfg.Beta2, Epsilon: cfg.Epsilon}
}

func (a *PullPushAdam) Name() string { return "PullPushAdam" }

func (a *PullPushAdam) AuxVectors() int { return 2 }

// Init derives the same auxiliary vectors PS2-Adam derives.
func (a *PullPushAdam) Init(p *simnet.Proc, e *core.Engine, w *dcv.Vector) error {
	var err error
	if a.velocity, err = w.Derive(); err != nil {
		return err
	}
	if err := a.velocity.TryFill(p, e.Driver(), 0); err != nil {
		return err
	}
	if a.square, err = w.Derive(); err != nil {
		return err
	}
	return a.square.TryFill(p, e.Driver(), 0)
}

// Step performs the pull/push-only realization of equation (1), matching the
// paper's description word for word: each worker "has to pull the gradient
// as well as the model onto each worker, update the model and push the model
// back". Every worker redundantly pulls all four full vectors, runs Adam
// locally, and writes the three mutated vectors back — 7 full-vector
// transfers per worker per iteration, against PS2's scalar-only zip. The
// writes are idempotent (every worker computes identical values), so the
// redundancy costs bandwidth, not correctness.
func (a *PullPushAdam) Step(p *simnet.Proc, e *core.Engine, w, grad *dcv.Vector, iter, batchSize int) error {
	t := float64(iter)
	scale := 1.0 / float64(batchSize)
	corr1 := 1 - math.Pow(a.Beta1, t)
	corr2 := 1 - math.Pow(a.Beta2, t)
	cost := e.Cluster.Cost

	g := p.Sim().NewGroup()
	for _, exec := range e.Cluster.Executors {
		exec := exec
		g.Go("ps-adam-update", func(cp *simnet.Proc) {
			wv := rdd.Must(w.TryPull(cp, exec))
			vv := rdd.Must(a.velocity.TryPull(cp, exec))
			sv := rdd.Must(a.square.TryPull(cp, exec))
			gv := rdd.Must(grad.TryPull(cp, exec))
			exec.Compute(cp, cost.ElemWork(3*len(wv)))
			for k := range wv {
				gi := gv[k] * scale
				sv[k] = a.Beta1*sv[k] + (1-a.Beta1)*gi*gi
				vv[k] = a.Beta2*vv[k] + (1-a.Beta2)*gi
				wv[k] -= a.LearningRate * (vv[k] / corr2) / (math.Sqrt(sv[k]/corr1) + a.Epsilon)
			}
			rdd.Check(w.TrySet(cp, exec, wv))
			rdd.Check(a.velocity.TrySet(cp, exec, vv))
			rdd.Check(a.square.TrySet(cp, exec, sv))
		})
	}
	g.Wait(p)
	return nil
}

var _ lr.Optimizer = (*PullPushAdam)(nil)
