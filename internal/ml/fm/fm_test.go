package fm

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/ml/lr"
	"repro/internal/ps"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

func newEngine() *core.Engine {
	opt := core.DefaultOptions()
	opt.Executors, opt.Servers = 4, 4
	return core.NewEngine(opt)
}

// parityDataset is linearly inseparable: each row activates two features and
// the label is 1 iff they come from the same parity class. LR cannot beat
// chance; an FM can, via the pairwise factor term.
func parityDataset(rows, dim int, seed uint64) []data.Instance {
	rng := linalg.NewRNG(seed)
	out := make([]data.Instance, rows)
	for r := range out {
		a := rng.Intn(dim)
		b := rng.Intn(dim)
		for b == a {
			b = rng.Intn(dim)
		}
		label := 0.0
		if a%2 == b%2 {
			label = 1.0
		}
		sv, _ := linalg.NewSparse([]int{a, b}, []float64{1, 1})
		out[r] = data.Instance{Features: sv, Label: label}
	}
	return out
}

func TestFMLearnsInteractions(t *testing.T) {
	instances := parityDataset(3000, 40, 5)
	e := newEngine()
	cfg := DefaultConfig()
	cfg.Iterations = 150
	cfg.BatchFraction = 0.5
	// Summed-batch SGD averages the gradient over the batch, so the step
	// size must scale up with the batch to escape the v=0 saddle.
	cfg.LearningRate = 30
	cfg.Factors = 8
	cfg.InitScale = 0.3

	var acc float64
	e.Run(func(p *simnet.Proc) {
		dataset := rdd.FromSlices(e.RDD, data.Partition(instances, 4)).Cache()
		model, err := Train(p, e, dataset, 40, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		w := rdd.Must(model.Weights.TryPull(p, e.Driver()))
		factors := make([][]float64, len(model.Factors))
		for f, v := range model.Factors {
			factors[f] = rdd.Must(v.TryPull(p, e.Driver()))
		}
		acc = Accuracy(instances, w, factors)
	})
	if acc < 0.8 {
		t.Fatalf("FM accuracy %v on parity interactions; should exceed 0.8", acc)
	}
}

func TestLRCannotLearnParity(t *testing.T) {
	// Baseline check for the dataset above: a linear model stays near
	// chance, proving the FM result comes from the factor term.
	instances := parityDataset(3000, 40, 5)
	e := newEngine()
	cfg := lr.DefaultConfig()
	cfg.Iterations = 60
	cfg.BatchFraction = 0.5
	var acc float64
	e.Run(func(p *simnet.Proc) {
		dataset := rdd.FromSlices(e.RDD, data.Partition(instances, 4)).Cache()
		model, err := lr.Train(p, e, dataset, 40, cfg, lr.NewSGD())
		if err != nil {
			t.Error(err)
			return
		}
		acc = lr.Accuracy(instances, rdd.Must(model.Weights.TryPull(p, e.Driver())))
	})
	if acc > 0.65 {
		t.Fatalf("LR accuracy %v on parity interactions; expected near-chance", acc)
	}
}

func TestFMOnSparseClassification(t *testing.T) {
	ds, err := data.GenerateClassify(data.ClassifyConfig{
		Rows: 1500, Dim: 800, NnzPerRow: 8, Skew: 1.0, NoiseRate: 0.02, WeightNnz: 200, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine()
	cfg := DefaultConfig()
	cfg.Iterations = 40
	cfg.BatchFraction = 0.4
	var final float64
	e.Run(func(p *simnet.Proc) {
		dataset := rdd.FromSlices(e.RDD, data.Partition(ds.Instances, 4)).Cache()
		model, err := Train(p, e, dataset, ds.Config.Dim, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		w := rdd.Must(model.Weights.TryPull(p, e.Driver()))
		factors := make([][]float64, len(model.Factors))
		for f, v := range model.Factors {
			factors[f] = rdd.Must(v.TryPull(p, e.Driver()))
		}
		final = EvalLoss(ds.Instances, w, factors)
	})
	if final >= math.Ln2 {
		t.Fatalf("FM loss %v did not improve on chance", final)
	}
}

func TestFMModelColocated(t *testing.T) {
	instances := parityDataset(100, 10, 1)
	e := newEngine()
	cfg := DefaultConfig()
	cfg.Iterations = 2
	cfg.Factors = 3
	e.Run(func(p *simnet.Proc) {
		dataset := rdd.FromSlices(e.RDD, data.Partition(instances, 4))
		model, err := Train(p, e, dataset, 10, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		for _, v := range model.Factors {
			if !model.Weights.Colocated(v) {
				t.Error("factor vector not co-located with weights")
			}
		}
	})
}

func TestFMValidation(t *testing.T) {
	e := newEngine()
	e.Run(func(p *simnet.Proc) {
		dataset := rdd.FromSlices(e.RDD, [][]data.Instance{{}})
		if _, err := Train(p, e, dataset, 10, Config{}); err == nil {
			t.Error("zero config accepted")
		}
	})
}

func TestPredictMatchesManual(t *testing.T) {
	sv, _ := linalg.NewSparse([]int{0, 2}, []float64{1, 2})
	inst := data.Instance{Features: sv, Label: 1}
	w := []float64{0.5, 0, -0.25}
	factors := [][]float64{{1, 0, 1}, {0.5, 0, -0.5}}
	// Linear: 0.5*1 + (-0.25)*2 = 0.
	// Factor 0: s = 1*1 + 1*2 = 3, s2 = 1 + 4 = 5 -> 0.5*(9-5) = 2.
	// Factor 1: s = 0.5 - 1 = -0.5, s2 = 0.25 + 1 = 1.25 -> 0.5*(0.25-1.25) = -0.5.
	want := 0.0 + 2.0 - 0.5
	if got := Predict(inst, w, factors); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Predict = %v, want %v", got, want)
	}
}

// TestTrainSurfacesServerDown: with recovery off and a server that stays
// down, the driver's first write (zeroing the weight gradient) cannot land.
// Train must return an error wrapping ps.ErrServerDown, not panic the run.
func TestTrainSurfacesServerDown(t *testing.T) {
	e := newEngine()
	e.PS.Retry = ps.RetryConfig{TimeoutSec: 0.01, BackoffSec: 0.005, MaxBackoffSec: 0.05, MaxRetries: 3}
	e.PS.KillServer(0)
	var err error
	e.Run(func(p *simnet.Proc) {
		dataset := rdd.FromSlices(e.RDD, data.Partition(parityDataset(100, 40, 5), 4)).Cache()
		_, err = Train(p, e, dataset, 40, DefaultConfig())
	})
	if !errors.Is(err, ps.ErrServerDown) {
		t.Fatalf("server 0 down, no recovery: err = %v, want ErrServerDown", err)
	}
}
