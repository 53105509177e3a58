package gbdt

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/ps"
	"repro/internal/simnet"
)

func newEngine(executors, servers int) *core.Engine {
	opt := core.DefaultOptions()
	opt.Executors = executors
	opt.Servers = servers
	return core.NewEngine(opt)
}

func smallTabular(t *testing.T, rows int) *data.TabularDataset {
	t.Helper()
	ds, err := data.GenerateTabular(data.TabularConfig{Rows: rows, Features: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestFitBinEdgesMonotone(t *testing.T) {
	rng := linalg.NewRNG(1)
	sample := make([][]float64, 500)
	for i := range sample {
		sample[i] = []float64{rng.Float64(), rng.NormFloat64()}
	}
	edges := FitBinEdges(sample, 2, 10)
	for f, e := range edges {
		if len(e) != 9 {
			t.Fatalf("feature %d has %d edges", f, len(e))
		}
		for i := 1; i < len(e); i++ {
			if e[i] < e[i-1] {
				t.Fatalf("feature %d edges not monotone: %v", f, e)
			}
		}
	}
}

func TestBinRowBounds(t *testing.T) {
	edges := [][]float64{{0.25, 0.5, 0.75}}
	cases := map[float64]uint8{0.0: 0, 0.25: 0, 0.3: 1, 0.5: 1, 0.6: 2, 0.75: 2, 0.9: 3, 100: 3}
	for v, want := range cases {
		if got := BinRow([]float64{v}, edges)[0]; got != want {
			t.Fatalf("BinRow(%v) = %d, want %d", v, got, want)
		}
	}
}

// Property: binning preserves order — if x <= y then bin(x) <= bin(y).
func TestBinRowOrderProperty(t *testing.T) {
	rng := linalg.NewRNG(2)
	sample := make([][]float64, 200)
	for i := range sample {
		sample[i] = []float64{rng.Float64() * 10}
	}
	edges := FitBinEdges(sample, 1, 16)
	f := func(aRaw, bRaw uint16) bool {
		a := float64(aRaw) / 6553.5
		b := float64(bRaw) / 6553.5
		if a > b {
			a, b = b, a
		}
		return BinRow([]float64{a}, edges)[0] <= BinRow([]float64{b}, edges)[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGainFormula(t *testing.T) {
	// Perfectly separable: all negative gradient left, positive right.
	g := gain(-10, 5, 0, 10, 1)
	if g <= 0 {
		t.Fatalf("separating split has non-positive gain %v", g)
	}
	// Useless split: left is an empty slice of the parent.
	if got := gain(0, 0, -10, 10, 1); math.Abs(got) > 1e-12 {
		t.Fatalf("empty split gain = %v, want 0", got)
	}
}

func trainBackend(t *testing.T, backend Backend, rows int) (*Model, *data.TabularDataset, float64) {
	t.Helper()
	ds := smallTabular(t, rows)
	e := newEngine(4, 4)
	cfg := DefaultConfig()
	cfg.Trees = 8
	cfg.MaxDepth = 4
	cfg.Backend = backend
	var model *Model
	end := e.Run(func(p *simnet.Proc) {
		r, edges := PrepareRDD(p, e, ds, cfg)
		m, err := Train(p, e, r, ds.Config.Features, edges, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		model = m
	})
	return model, ds, end
}

func TestTrainPS2ReducesLoss(t *testing.T) {
	model, ds, _ := trainBackend(t, BackendPS2, 2000)
	if len(model.Trees) != 8 {
		t.Fatalf("trees = %d", len(model.Trees))
	}
	first, last := model.Trace.Values[0], model.Trace.Final()
	if last >= first {
		t.Fatalf("loss did not fall: %v -> %v", first, last)
	}
	if last > 0.55 {
		t.Fatalf("final loss %v too high", last)
	}
	// Accuracy on training data.
	correct := 0
	for i, x := range ds.X {
		pred := 0.0
		if model.PredictRaw(x) > 0 {
			pred = 1
		}
		if pred == ds.Y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(ds.X)); acc < 0.75 {
		t.Fatalf("accuracy %v too low", acc)
	}
}

func TestBackendsAgreeOnModel(t *testing.T) {
	// The two backends move histograms differently but compute the same
	// math; trees and losses must agree (ties aside, the losses must match
	// to float tolerance).
	a, ds, _ := trainBackend(t, BackendPS2, 1500)
	b, _, _ := trainBackend(t, BackendAllReduce, 1500)
	if math.Abs(a.Trace.Final()-b.Trace.Final()) > 1e-9 {
		t.Fatalf("final losses diverge: PS2=%v XGB=%v", a.Trace.Final(), b.Trace.Final())
	}
	for i, x := range ds.X[:200] {
		if math.Abs(a.PredictRaw(x)-b.PredictRaw(x)) > 1e-9 {
			t.Fatalf("row %d predictions diverge: %v vs %v", i, a.PredictRaw(x), b.PredictRaw(x))
		}
	}
}

func TestRootSplitMatchesBruteForce(t *testing.T) {
	// With zero initial margins, g = 0.5 - y and h = 0.25 for every row; the
	// root split found by the distributed pipeline must equal the braindead
	// single-node scan.
	ds := smallTabular(t, 1200)
	e := newEngine(3, 5)
	cfg := DefaultConfig()
	cfg.Trees = 1
	cfg.MaxDepth = 2
	var model *Model
	var edges [][]float64
	e.Run(func(p *simnet.Proc) {
		r, ed := PrepareRDD(p, e, ds, cfg)
		edges = ed
		m, err := Train(p, e, r, ds.Config.Features, ed, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		model = m
	})
	root := model.Trees[0].Nodes[0]
	if root.Split == nil {
		t.Fatal("root did not split")
	}

	// Brute force.
	features, bins := ds.Config.Features, cfg.Bins
	gh := make([]float64, features*bins)
	hh := make([]float64, features*bins)
	var G, H float64
	for i, x := range ds.X {
		b := BinRow(x, edges)
		g := 0.5 - ds.Y[i]
		G += g
		H += 0.25
		for f := 0; f < features; f++ {
			gh[f*bins+int(b[f])] += g
			hh[f*bins+int(b[f])] += 0.25
		}
	}
	best := Split{Feature: -1, Gain: math.Inf(-1)}
	for f := 0; f < features; f++ {
		var gl, hl float64
		for b := 0; b < bins-1; b++ {
			gl += gh[f*bins+b]
			hl += hh[f*bins+b]
			if gn := gain(gl, hl, G, H, cfg.Lambda); gn > best.Gain {
				best = Split{Feature: f, BinThreshold: b, Gain: gn}
			}
		}
	}
	if root.Split.Feature != best.Feature || root.Split.BinThreshold != best.BinThreshold {
		t.Fatalf("root split (%d,%d) != brute force (%d,%d)",
			root.Split.Feature, root.Split.BinThreshold, best.Feature, best.BinThreshold)
	}
	if math.Abs(root.Split.Gain-best.Gain) > 1e-6*math.Abs(best.Gain) {
		t.Fatalf("root gain %v != brute force %v", root.Split.Gain, best.Gain)
	}
}

func TestPS2FasterThanAllReduce(t *testing.T) {
	// Fig 11's shape: with enough workers, PS histogram aggregation beats
	// ring AllReduce.
	timeFor := func(backend Backend) float64 {
		ds, err := data.GenerateTabular(data.TabularConfig{Rows: 2000, Features: 80, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		e := newEngine(8, 8)
		cfg := DefaultConfig()
		cfg.Trees = 2
		cfg.MaxDepth = 3
		cfg.Backend = backend
		return e.Run(func(p *simnet.Proc) {
			r, edges := PrepareRDD(p, e, ds, cfg)
			if _, err := Train(p, e, r, ds.Config.Features, edges, cfg); err != nil {
				t.Error(err)
			}
		})
	}
	ps2 := timeFor(BackendPS2)
	xgb := timeFor(BackendAllReduce)
	if ps2 >= xgb {
		t.Fatalf("PS2 (%vs) not faster than AllReduce (%vs)", ps2, xgb)
	}
}

func TestTrainValidation(t *testing.T) {
	e := newEngine(2, 2)
	ds := smallTabular(t, 100)
	e.Run(func(p *simnet.Proc) {
		r, edges := PrepareRDD(p, e, ds, DefaultConfig())
		if _, err := Train(p, e, r, ds.Config.Features, edges, Config{}); err == nil {
			t.Error("zero config accepted")
		}
	})
}

func TestTreePredictRouting(t *testing.T) {
	tree := Tree{Nodes: []TreeNode{
		{Split: &Split{Feature: 0, BinThreshold: 2}, Left: 1, Right: 2},
		{Value: -1, Left: -1, Right: -1},
		{Value: +1, Left: -1, Right: -1},
	}}
	if got := tree.Predict([]uint8{2}); got != -1 {
		t.Fatalf("bin 2 routed to %v, want left (-1)", got)
	}
	if got := tree.Predict([]uint8{3}); got != 1 {
		t.Fatalf("bin 3 routed to %v, want right (+1)", got)
	}
}

func TestMinChildWeightMakesLeaf(t *testing.T) {
	ds := smallTabular(t, 60)
	e := newEngine(2, 2)
	cfg := DefaultConfig()
	cfg.Trees = 1
	cfg.MaxDepth = 6
	cfg.MinChildWeight = 10 // 60 rows carry 15 hessian mass; 10+10 > 15
	var model *Model
	e.Run(func(p *simnet.Proc) {
		r, edges := PrepareRDD(p, e, ds, cfg)
		m, err := Train(p, e, r, ds.Config.Features, edges, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		model = m
	})
	if len(model.Trees[0].Nodes) != 1 {
		t.Fatalf("tree has %d nodes, want a single leaf", len(model.Trees[0].Nodes))
	}
}

func TestFeatureImportanceFindsSignal(t *testing.T) {
	// The tabular generator's target depends on features 0..4 only; the
	// trained ensemble's importance mass must concentrate there.
	model, _, _ := trainBackend(t, BackendPS2, 2500)
	imp := model.FeatureImportance()
	var signal, total float64
	for f, v := range imp {
		total += v
		if f <= 4 {
			signal += v
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("importance sums to %v", total)
	}
	if signal < 0.8 {
		t.Fatalf("only %v of importance on the true signal features", signal)
	}
	top := model.TopFeatures(3)
	for _, f := range top {
		if f > 4 {
			t.Fatalf("top features %v include a noise feature", top)
		}
	}
}

func TestStagedPredictMonotoneAccumulation(t *testing.T) {
	model, ds, _ := trainBackend(t, BackendPS2, 1000)
	staged := model.StagedPredict(ds.X[0])
	if len(staged) != len(model.Trees) {
		t.Fatalf("staged length %d", len(staged))
	}
	if math.Abs(staged[len(staged)-1]-model.PredictRaw(ds.X[0])) > 1e-12 {
		t.Fatal("final staged margin != PredictRaw")
	}
}

func TestEvaluateAndEarlyStopping(t *testing.T) {
	full, err := data.GenerateTabular(data.TabularConfig{Rows: 3000, Features: 12, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	train, test := SplitDataset(full, 0.3, 4)
	if len(train.X)+len(test.X) != 3000 {
		t.Fatalf("split lost rows: %d + %d", len(train.X), len(test.X))
	}
	if len(test.X) < 800 || len(test.X) > 1000 {
		t.Fatalf("test fraction off: %d", len(test.X))
	}
	e := newEngine(4, 4)
	cfg := DefaultConfig()
	cfg.Trees = 10
	cfg.MaxDepth = 4
	var model *Model
	e.Run(func(p *simnet.Proc) {
		r, edges := PrepareRDD(p, e, train, cfg)
		m, err := Train(p, e, r, train.Config.Features, edges, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		model = m
	})
	trainLoss, trainAcc := model.Evaluate(train.X, train.Y)
	testLoss, testAcc := model.Evaluate(test.X, test.Y)
	if trainAcc < 0.75 || testAcc < 0.7 {
		t.Fatalf("accuracy too low: train %v test %v", trainAcc, testAcc)
	}
	if testLoss < trainLoss*0.8 {
		t.Fatalf("test loss %v implausibly below train loss %v", testLoss, trainLoss)
	}
	best := model.BestIteration(test.X, test.Y)
	if best < 1 || best > len(model.Trees) {
		t.Fatalf("BestIteration = %d out of range", best)
	}
}

func TestSubsampleStillLearns(t *testing.T) {
	ds := smallTabular(t, 2500)
	e := newEngine(4, 4)
	cfg := DefaultConfig()
	cfg.Trees = 10
	cfg.MaxDepth = 4
	cfg.Subsample = 0.6
	cfg.ColsampleByTree = 0.7
	var model *Model
	e.Run(func(p *simnet.Proc) {
		r, edges := PrepareRDD(p, e, ds, cfg)
		m, err := Train(p, e, r, ds.Config.Features, edges, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		model = m
	})
	if model.Trace.Final() >= model.Trace.Values[0] {
		t.Fatalf("stochastic GBDT loss did not fall: %v -> %v", model.Trace.Values[0], model.Trace.Final())
	}
	_, acc := model.Evaluate(ds.X, ds.Y)
	if acc < 0.75 {
		t.Fatalf("stochastic GBDT accuracy %v", acc)
	}
}

func TestColsampleRestrictsSplits(t *testing.T) {
	// With an aggressive column sample, different trees must split on
	// different feature subsets (and never outside their masks). We verify
	// indirectly: a colsample run uses strictly more distinct root features
	// across trees than a deterministic full-feature run (which picks the
	// single best feature every time until margins shift).
	ds := smallTabular(t, 1500)
	train := func(colsample float64) map[int]bool {
		e := newEngine(3, 3)
		cfg := DefaultConfig()
		cfg.Trees = 8
		cfg.MaxDepth = 2
		cfg.ColsampleByTree = colsample
		var model *Model
		e.Run(func(p *simnet.Proc) {
			r, edges := PrepareRDD(p, e, ds, cfg)
			m, err := Train(p, e, r, ds.Config.Features, edges, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			model = m
		})
		roots := map[int]bool{}
		for _, tree := range model.Trees {
			if tree.Nodes[0].Split != nil {
				roots[tree.Nodes[0].Split.Feature] = true
			}
		}
		return roots
	}
	full := train(0)
	sampled := train(0.25)
	if len(sampled) <= len(full) {
		t.Fatalf("colsample did not diversify roots: full=%v sampled=%v", full, sampled)
	}
}

func TestEvalOnClusterMatchesHost(t *testing.T) {
	ds := smallTabular(t, 1500)
	e := newEngine(4, 4)
	cfg := DefaultConfig()
	cfg.Trees = 6
	cfg.MaxDepth = 3
	e.Run(func(p *simnet.Proc) {
		r, edges := PrepareRDD(p, e, ds, cfg)
		model, err := Train(p, e, r, ds.Config.Features, edges, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		metrics := EvalOnCluster(p, e, r, model)
		hostLoss, hostAcc := model.Evaluate(ds.X, ds.Y)
		if metrics.Rows != len(ds.X) {
			t.Errorf("rows = %d", metrics.Rows)
		}
		if math.Abs(metrics.Logloss-hostLoss) > 1e-9 || math.Abs(metrics.Accuracy-hostAcc) > 1e-12 {
			t.Errorf("cluster metrics (%v, %v) != host (%v, %v)", metrics.Logloss, metrics.Accuracy, hostLoss, hostAcc)
		}
	})
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	model, ds, _ := trainBackend(t, BackendPS2, 1000)
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range ds.X[:300] {
		if math.Abs(model.PredictRaw(x)-back.PredictRaw(x)) > 1e-12 {
			t.Fatal("loaded model predicts differently")
		}
	}
	if _, err := LoadModel(bytes.NewReader([]byte("not json"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadModel(bytes.NewReader([]byte(`{"version":9}`))); err == nil {
		t.Fatal("bad version accepted")
	}
}

// TestTrainSurfacesServerDown: with recovery off and a server that stays
// down, the driver's first write (filling the gradient histogram) cannot
// land. Train must return an error wrapping ps.ErrServerDown, not panic the
// run.
func TestTrainSurfacesServerDown(t *testing.T) {
	ds := smallTabular(t, 200)
	e := newEngine(4, 4)
	e.PS.Retry = ps.RetryConfig{TimeoutSec: 0.01, BackoffSec: 0.005, MaxBackoffSec: 0.05, MaxRetries: 3}
	e.PS.KillServer(0)
	cfg := DefaultConfig()
	cfg.Trees = 1
	var err error
	e.Run(func(p *simnet.Proc) {
		r, edges := PrepareRDD(p, e, ds, cfg)
		_, err = Train(p, e, r, ds.Config.Features, edges, cfg)
	})
	if !errors.Is(err, ps.ErrServerDown) {
		t.Fatalf("server 0 down, no recovery: err = %v, want ErrServerDown", err)
	}
}
