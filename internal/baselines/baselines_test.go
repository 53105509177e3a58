package baselines

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/ml/gbdt"
	"repro/internal/ml/lda"
	"repro/internal/ml/lr"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

func newEngine(executors, servers int) *core.Engine {
	opt := core.DefaultOptions()
	opt.Executors = executors
	opt.Servers = servers
	return core.NewEngine(opt)
}

func classifyDataset(t *testing.T) *data.ClassifyDataset {
	t.Helper()
	ds, err := data.GenerateClassify(data.ClassifyConfig{
		Rows: 2000, Dim: 500, NnzPerRow: 8, Skew: 1.0, NoiseRate: 0.02, WeightNnz: 100, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func loadRDD(e *core.Engine, ds *data.ClassifyDataset) *rdd.RDD[data.Instance] {
	return rdd.FromSlices(e.RDD, data.Partition(ds.Instances, e.RDD.NumExecutors())).Cache()
}

func TestMLlibLRConverges(t *testing.T) {
	ds := classifyDataset(t)
	e := newEngine(4, 0)
	cfg := lr.DefaultConfig()
	cfg.Iterations = 60
	cfg.BatchFraction = 0.3
	var w []float64
	var trace *core.Trace
	e.Run(func(p *simnet.Proc) {
		tr, weights, err := TrainLRMLlib(p, e, loadRDD(e, ds), ds.Config.Dim, cfg, false)
		if err != nil {
			t.Error(err)
			return
		}
		trace, w = tr, weights
	})
	if trace.Final() >= math.Ln2 {
		t.Fatalf("MLlib LR did not improve: %v", trace.Final())
	}
	if acc := lr.Accuracy(ds.Instances, w); acc < 0.7 {
		t.Fatalf("MLlib accuracy %v", acc)
	}
}

func TestMLlibLROOM(t *testing.T) {
	e := newEngine(4, 0)
	cfg := lr.DefaultConfig()
	e.Run(func(p *simnet.Proc) {
		dsRDD := rdd.FromSlices(e.RDD, [][]data.Instance{{}})
		_, _, err := TrainLRMLlib(p, e, dsRDD, 20_000_000, cfg, true)
		if !errors.Is(err, ErrOOM) {
			t.Errorf("err = %v, want ErrOOM", err)
		}
	})
}

func TestMLlibSlowerThanPS2AtLargeDim(t *testing.T) {
	// The heart of the paper: at large model dimensions, driver aggregation
	// loses badly to the parameter-server path.
	ds, err := data.GenerateClassify(data.ClassifyConfig{
		Rows: 800, Dim: 400_000, NnzPerRow: 10, Skew: 1.1, WeightNnz: 1000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := lr.DefaultConfig()
	cfg.Iterations = 3
	cfg.BatchFraction = 0.5

	e1 := newEngine(8, 8)
	mllibTime := e1.Run(func(p *simnet.Proc) {
		if _, _, err := TrainLRMLlib(p, e1, loadRDD(e1, ds), ds.Config.Dim, cfg, false); err != nil {
			t.Error(err)
		}
	})
	e2 := newEngine(8, 8)
	ps2Time := e2.Run(func(p *simnet.Proc) {
		if _, err := lr.Train(p, e2, loadRDD(e2, ds), ds.Config.Dim, cfg, lr.NewSGD()); err != nil {
			t.Error(err)
		}
	})
	if ps2Time*5 > mllibTime {
		t.Fatalf("PS2 (%vs) not ≫ faster than MLlib (%vs) at dim 400K", ps2Time, mllibTime)
	}
}

func TestPetuumLRConvergesSlowerThanPS2(t *testing.T) {
	ds := classifyDataset(t)
	cfg := lr.DefaultConfig()
	cfg.Iterations = 30
	cfg.BatchFraction = 0.3

	e1 := newEngine(4, 4)
	var petuumTrace *core.Trace
	e1.Run(func(p *simnet.Proc) {
		tr, _, err := TrainLRPetuum(p, e1, loadRDD(e1, ds), ds.Config.Dim, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		petuumTrace = tr
	})
	e2 := newEngine(4, 4)
	var ps2Trace *core.Trace
	e2.Run(func(p *simnet.Proc) {
		m, err := lr.Train(p, e2, loadRDD(e2, ds), ds.Config.Dim, cfg, lr.NewSGD())
		if err != nil {
			t.Error(err)
			return
		}
		ps2Trace = m.Trace
	})
	if petuumTrace.Final() >= math.Ln2 {
		t.Fatalf("Petuum did not improve: %v", petuumTrace.Final())
	}
	// Same iteration count, so compare wall-clock at the last sample.
	pT := petuumTrace.Times[petuumTrace.Len()-1]
	sT := ps2Trace.Times[ps2Trace.Len()-1]
	if sT >= pT {
		t.Fatalf("PS2 (%vs) not faster than Petuum (%vs) for the same iterations", sT, pT)
	}
}

func TestDistMLConvergesOnEasyData(t *testing.T) {
	ds := classifyDataset(t)
	e := newEngine(4, 4)
	cfg := lr.DefaultConfig()
	cfg.Iterations = 40
	cfg.BatchFraction = 0.3
	cfg.LearningRate = 0.1 // tame step: converges on well-conditioned data
	var trace *core.Trace
	e.Run(func(p *simnet.Proc) {
		tr, _, err := TrainLRDistML(p, e, loadRDD(e, ds), ds.Config.Dim, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		trace = tr
	})
	if trace.Final() >= math.Ln2 {
		t.Fatalf("DistML did not improve on easy data: %v", trace.Final())
	}
}

func TestDistMLWorseThanPS2OnSkewedData(t *testing.T) {
	// Fig 10(a): on KDDB-like skewed data with the shared hyperparameters,
	// DistML's stale constant-step updates leave it far behind PS2.
	ds, err := data.GenerateClassify(data.ClassifyConfig{
		Rows: 3000, Dim: 2000, NnzPerRow: 30, Skew: 1.3, NoiseRate: 0.05, WeightNnz: 300, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := lr.DefaultConfig() // aggressive paper learning rate 0.618
	cfg.Iterations = 40
	cfg.BatchFraction = 0.3

	// At the paper's 20-worker scale, DistML's per-worker steps against a
	// stale snapshot amplify the effective learning rate ~12x and it
	// diverges, matching Figure 10(a)'s "cannot converge although we
	// carefully tune" observation.
	e1 := newEngine(20, 4)
	var distml *core.Trace
	e1.Run(func(p *simnet.Proc) {
		tr, _, err := TrainLRDistML(p, e1, loadRDD(e1, ds), ds.Config.Dim, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		distml = tr
	})
	e2 := newEngine(20, 4)
	var ps2 *core.Trace
	e2.Run(func(p *simnet.Proc) {
		m, err := lr.Train(p, e2, loadRDD(e2, ds), ds.Config.Dim, cfg, lr.NewSGD())
		if err != nil {
			t.Error(err)
			return
		}
		ps2 = m.Trace
	})
	if distml.Best() <= ps2.Final()*1.05 {
		t.Fatalf("DistML (best %v) unexpectedly matched PS2 (final %v) on skewed data", distml.Best(), ps2.Final())
	}
}

func TestPullPushAdamMatchesZipAdam(t *testing.T) {
	// PS-Adam and PS2-Adam compute the same update; only the wire traffic
	// differs. Same data, same seeds: identical weights, but PS-Adam slower.
	ds := classifyDataset(t)
	cfg := lr.DefaultConfig()
	cfg.Iterations = 8
	cfg.BatchFraction = 0.5

	run := func(opt lr.Optimizer) ([]float64, float64) {
		e := newEngine(4, 4)
		var w []float64
		end := e.Run(func(p *simnet.Proc) {
			m, err := lr.Train(p, e, loadRDD(e, ds), ds.Config.Dim, cfg, opt)
			if err != nil {
				t.Error(err)
				return
			}
			w = rdd.Must(m.Weights.TryPull(p, e.Driver()))
		})
		return w, end
	}
	zipW, zipTime := run(lr.NewAdam())
	ppW, ppTime := run(NewPullPushAdam())
	for i := range zipW {
		if math.Abs(zipW[i]-ppW[i]) > 1e-9 {
			t.Fatalf("weights diverge at %d: %v vs %v", i, zipW[i], ppW[i])
		}
	}
	if zipTime >= ppTime {
		t.Fatalf("zip Adam (%vs) not faster than pull/push Adam (%vs)", zipTime, ppTime)
	}
}

func TestLDABaselineOrdering(t *testing.T) {
	// Fig 12(a)'s shape: PS2 < Petuum < Glint in time for the same number of
	// Gibbs iterations.
	corpus, err := data.GenerateCorpus(data.CorpusConfig{
		Docs: 600, Vocab: 2000, MeanDocLen: 60, TrueTopics: 10, Concentrate: 0.05, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	iters := 4
	topics := 20

	timePS2 := func() float64 {
		e := newEngine(4, 4)
		cfg := lda.DefaultConfig()
		cfg.Topics = topics
		cfg.Iterations = iters
		return e.Run(func(p *simnet.Proc) {
			docs := rdd.FromSlices(e.RDD, data.PartitionDocs(corpus.Docs, 4)).Cache()
			if _, err := lda.Train(p, e, docs, corpus.Config.Vocab, cfg); err != nil {
				t.Error(err)
			}
		})
	}
	timePetuum := func() float64 {
		e := newEngine(4, 4)
		return e.Run(func(p *simnet.Proc) {
			docs := rdd.FromSlices(e.RDD, data.PartitionDocs(corpus.Docs, 4)).Cache()
			if _, err := TrainLDAPetuum(p, e, docs, corpus.Config.Vocab, topics, iters, 0.5, 0.01, 23); err != nil {
				t.Error(err)
			}
		})
	}
	timeGlint := func() float64 {
		e := newEngine(4, 4)
		return e.Run(func(p *simnet.Proc) {
			docs := rdd.FromSlices(e.RDD, data.PartitionDocs(corpus.Docs, 4)).Cache()
			if _, err := TrainLDAGlint(p, e, docs, corpus.Config.Vocab, topics, iters, 0.5, 0.01, 23); err != nil {
				t.Error(err)
			}
		})
	}
	ps2, petuum, glint := timePS2(), timePetuum(), timeGlint()
	if !(ps2 < petuum && petuum < glint) {
		t.Fatalf("ordering violated: PS2=%v Petuum=%v Glint=%v", ps2, petuum, glint)
	}
}

func TestMLlibLDAConvergesAndOOMs(t *testing.T) {
	corpus, err := data.GenerateCorpus(data.CorpusConfig{
		Docs: 300, Vocab: 600, MeanDocLen: 40, TrueTopics: 6, Concentrate: 0.05, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(3, 0)
	e.Run(func(p *simnet.Proc) {
		docs := rdd.FromSlices(e.RDD, data.PartitionDocs(corpus.Docs, 3)).Cache()
		tr, err := TrainLDAMLlib(p, e, docs, corpus.Config.Vocab, 6, 5, 0.5, 0.01, 23)
		if err != nil {
			t.Error(err)
			return
		}
		if tr.Final() <= tr.Values[0] {
			t.Errorf("MLlib LDA likelihood did not rise: %v -> %v", tr.Values[0], tr.Final())
		}
		// Huge topic count must OOM.
		if _, err := TrainLDAMLlib(p, e, docs, 600, 100_000, 5, 0.5, 0.01, 23); !errors.Is(err, ErrOOM) {
			t.Errorf("giant LDA did not OOM: %v", err)
		}
	})
}

func TestGBDTMLlibOOMOnGenderScale(t *testing.T) {
	ds, err := data.GenerateTabular(data.TabularConfig{Rows: 40000, Features: 330, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(4, 4)
	e.Run(func(p *simnet.Proc) {
		if _, err := TrainGBDTMLlib(p, e, ds, gbdt.DefaultConfig()); !errors.Is(err, ErrOOM) {
			t.Errorf("Gender-scale MLlib GBDT did not OOM: %v", err)
		}
	})
}

func TestGBDTMLlibWorksSmall(t *testing.T) {
	ds, err := data.GenerateTabular(data.TabularConfig{Rows: 800, Features: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(3, 3)
	cfg := gbdt.DefaultConfig()
	cfg.Trees = 4
	e.Run(func(p *simnet.Proc) {
		m, err := TrainGBDTMLlib(p, e, ds, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		if m.Trace.Final() >= m.Trace.Values[0] {
			t.Errorf("MLlib GBDT loss did not fall")
		}
	})
}

func TestCapabilityMatrixMatchesTable3(t *testing.T) {
	m := CapabilityMatrix()
	if len(m) != 6 {
		t.Fatalf("systems = %d, want 6", len(m))
	}
	byName := map[string]Capability{}
	for _, c := range m {
		byName[c.System] = c
	}
	ps2 := byName["PS2"]
	if !ps2.LR || !ps2.DeepWalk || !ps2.GBDT || !ps2.LDA {
		t.Fatal("PS2 must support all four workloads")
	}
	if byName["XGBoost"].LDA || !byName["XGBoost"].GBDT {
		t.Fatal("XGBoost row wrong")
	}
	if byName["Glint"].LR || !byName["Glint"].LDA {
		t.Fatal("Glint row wrong")
	}
	for _, c := range m {
		if c.System != "PS2" && c.DeepWalk {
			t.Fatalf("%s should not support DeepWalk", c.System)
		}
	}
}

func TestMLlibTreeFasterThanPlain(t *testing.T) {
	ds, err := data.GenerateClassify(data.ClassifyConfig{
		Rows: 1000, Dim: 100000, NnzPerRow: 10, Skew: 1.1, WeightNnz: 2000, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := lr.DefaultConfig()
	cfg.Iterations = 4
	cfg.BatchFraction = 0.5
	timeFor := func(tree bool) (float64, float64) {
		e := newEngine(16, 0)
		var final float64
		end := e.Run(func(p *simnet.Proc) {
			var tr *core.Trace
			var err error
			if tree {
				tr, _, err = TrainLRMLlibTree(p, e, loadRDD(e, ds), ds.Config.Dim, cfg)
			} else {
				tr, _, err = TrainLRMLlib(p, e, loadRDD(e, ds), ds.Config.Dim, cfg, false)
			}
			if err != nil {
				t.Error(err)
				return
			}
			final = tr.Final()
		})
		return end, final
	}
	plainT, plainLoss := timeFor(false)
	treeT, treeLoss := timeFor(true)
	if treeT >= plainT {
		t.Fatalf("treeAggregate (%vs) not faster than plain aggregation (%vs)", treeT, plainT)
	}
	if math.Abs(plainLoss-treeLoss) > 1e-9 {
		t.Fatalf("aggregation strategy changed the math: %v vs %v", plainLoss, treeLoss)
	}
}

func TestMLlibStarConvergesWithoutDriverTraffic(t *testing.T) {
	ds := classifyDataset(t)
	cfg := lr.DefaultConfig()
	cfg.Iterations = 25
	cfg.BatchFraction = 0.4
	e := newEngine(8, 0)
	var trace *core.Trace
	e.Run(func(p *simnet.Proc) {
		tr, _, err := TrainLRMLlibStar(p, e, loadRDD(e, ds), ds.Config.Dim, cfg, 4)
		if err != nil {
			t.Error(err)
			return
		}
		trace = tr
	})
	if trace.Final() >= math.Ln2 {
		t.Fatalf("MLlib* did not improve: %v", trace.Final())
	}
	// The training rounds must not route model data through the driver: its
	// ingress should see only task status envelopes (~1KB per task).
	maxStatus := float64(cfg.Iterations+2) * 8 * 2048
	if e.Cluster.Driver.BytesRecv > maxStatus {
		t.Fatalf("driver received %v bytes; MLlib* must keep models off the driver", e.Cluster.Driver.BytesRecv)
	}
}
