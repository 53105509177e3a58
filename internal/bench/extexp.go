package bench

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/ml/embedding"
	"repro/internal/ml/fm"
	"repro/internal/ml/lr"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

func init() {
	register("ext-treeagg", "Extension: how far tree aggregation alone fixes MLlib", runExtTreeAgg)
	register("ext-mllibstar", "Extension: MLlib* (model averaging + AllReduce, paper ref [34]) vs PS2", runExtMLlibStar)
	register("ext-ssp", "Extension: bounded staleness (SSP) vs BSP under a straggler", runExtSSP)
	register("ext-fm", "Extension: Factorization Machine on PS2 (interaction task LR cannot solve)", runExtFM)
	register("ext-node2vec", "Extension: node2vec biased walks vs DeepWalk walks (link prediction)", runExtNode2vec)
}

// runExtTreeAgg compares plain MLlib, MLlib with treeAggregate, and PS2 on
// the same LR workload. Tree aggregation removes the gradient-collection
// in-cast (log2(P) pairwise rounds instead of P serialized arrivals at the
// driver) but keeps the dense broadcast and the driver-side update, so it
// recovers only part of the gap — evidence for the paper's choice to replace
// the driver with parameter servers rather than just fix the aggregation.
func runExtTreeAgg(o Opts) *Result {
	ds := kddbData(o)
	cfg := lr.DefaultConfig()
	cfg.Iterations = lrIterations(o)
	cfg.BatchFraction = 0.1

	type system struct {
		name string
		run  func(p *simnet.Proc, e *core.Engine) (*core.Trace, error)
	}
	systems := []system{
		{"MLlib", func(p *simnet.Proc, e *core.Engine) (*core.Trace, error) {
			tr, _, err := baselines.TrainLRMLlib(p, e, instancesRDD(e, ds), ds.Config.Dim, cfg, false)
			return tr, err
		}},
		{"MLlib+treeAgg", func(p *simnet.Proc, e *core.Engine) (*core.Trace, error) {
			tr, _, err := baselines.TrainLRMLlibTree(p, e, instancesRDD(e, ds), ds.Config.Dim, cfg)
			return tr, err
		}},
		{"PS2", func(p *simnet.Proc, e *core.Engine) (*core.Trace, error) {
			m, err := lr.Train(p, e, instancesRDD(e, ds), ds.Config.Dim, cfg, lr.NewSGD())
			if err != nil {
				return nil, err
			}
			return m.Trace, nil
		}},
	}
	r := &Result{ID: "ext-treeagg",
		Title:  "LR on KDDB-like: plain MLlib vs treeAggregate vs PS2 (same iterations)",
		Header: []string{"system", "time (s)", "final loss", "vs PS2"}}
	times := make([]float64, len(systems))
	var traces []*core.Trace
	for i, sys := range systems {
		e := paperEngine(20, 20)
		var tr *core.Trace
		end := e.Run(func(p *simnet.Proc) {
			t, err := sys.run(p, e)
			if err != nil {
				panic(err)
			}
			tr = t
		})
		tr.Name = sys.name
		times[i] = end
		traces = append(traces, tr)
	}
	for i, sys := range systems {
		r.AddRow(sys.name, times[i], traces[i].Final(), fmtSpeed(times[i]/times[len(systems)-1]))
	}
	r.Traces = traces
	r.Note("tree aggregation fixes the collection in-cast but keeps the broadcast leg and the single driver in the loop")
	return r
}

// runExtMLlibStar compares MLlib* — local SGD with periodic ring-AllReduce
// model averaging — against plain MLlib and PS2. MLlib* removes the driver
// entirely but ships full dense replicas around the ring each round and pays
// a statistical-efficiency price for averaging.
func runExtMLlibStar(o Opts) *Result {
	ds := kddbData(o)
	cfg := lr.DefaultConfig()
	cfg.Iterations = lrIterations(o)
	cfg.BatchFraction = 0.1

	var mllib, star, ps2 *core.Trace
	var mllibT, starT, ps2T float64

	e1 := paperEngine(20, 20)
	mllibT = e1.Run(func(p *simnet.Proc) {
		tr, _, err := baselines.TrainLRMLlib(p, e1, instancesRDD(e1, ds), ds.Config.Dim, cfg, false)
		if err != nil {
			panic(err)
		}
		mllib = tr
	})
	e2 := paperEngine(20, 20)
	starT = e2.Run(func(p *simnet.Proc) {
		tr, _, err := baselines.TrainLRMLlibStar(p, e2, instancesRDD(e2, ds), ds.Config.Dim, cfg, 4)
		if err != nil {
			panic(err)
		}
		star = tr
	})
	e3 := paperEngine(20, 20)
	ps2T = e3.Run(func(p *simnet.Proc) {
		m, err := lr.Train(p, e3, instancesRDD(e3, ds), ds.Config.Dim, cfg, lr.NewSGD())
		if err != nil {
			panic(err)
		}
		ps2 = m.Trace
	})

	r := &Result{ID: "ext-mllibstar",
		Title:  "LR on KDDB-like: MLlib vs MLlib* (model averaging) vs PS2 (same rounds)",
		Header: []string{"system", "time (s)", "final loss", "vs PS2"}}
	r.AddRow("MLlib", mllibT, mllib.Final(), fmtSpeed(mllibT/ps2T))
	r.AddRow("MLlib*", starT, star.Final(), fmtSpeed(starT/ps2T))
	r.AddRow("PS2", ps2T, ps2.Final(), fmtSpeed(1.0))
	r.Traces = []*core.Trace{mllib, star, ps2}
	r.Note("MLlib* removes the driver but moves full dense replicas every round; PS2 moves only the touched features")
	return r
}

// runExtSSP quantifies bounded staleness under a straggler: one executor's
// compute is slowed 50x and every variant gets the same wall-clock budget.
// Under BSP (staleness 0) each round gates on the straggler, so the healthy
// workers sit idle and few updates land; with slack they keep pushing
// updates within the bound. The metric is updates applied and full-data loss
// at the budget — the Petuum argument, measured on the PS2 substrate.
func runExtSSP(o Opts) *Result {
	ds := kddbData(o)
	workers := 20
	if o.Quick {
		workers = 8
	}
	budget := 0.5 // seconds of simulated time

	r := &Result{ID: "ext-ssp",
		Title:  "SSP vs BSP with one executor slowed 50x, fixed 0.5s budget (LR on KDDB-like)",
		Header: []string{"staleness", "updates applied", "loss at budget"}}
	for _, staleness := range []int{0, 1, 3, 8} {
		e := paperEngine(workers, workers)
		e.Cluster.Executors[0].SlowDown(50)
		cfg := lr.AsyncConfig{Config: lr.DefaultConfig(), Staleness: staleness}
		cfg.Iterations = 1 << 20 // effectively unbounded; the budget stops us
		cfg.BatchFraction = 0.1
		var model *lr.AsyncModel
		e.Sim.Spawn("driver", func(p *simnet.Proc) {
			m, err := lr.TrainAsync(p, e, dataPartition(ds, workers), ds.Config.Dim, cfg)
			if err != nil {
				panic(err)
			}
			model = m
		})
		e.Sim.RunUntil(budget)
		w := hostRowOf(model)
		r.AddRow(staleness, model.UpdatesApplied(), lr.EvalLoss(lr.Logistic, ds.Instances, w))
	}
	r.Note("BSP idles every healthy worker behind the straggler; bounded staleness converts that idle time into updates")
	return r
}

// hostRowOf assembles an async model's single weight row from shard memory
// after the simulation stopped (reads only; no virtual time involved).
func hostRowOf(m *lr.AsyncModel) []float64 {
	mat := m.Weights
	out := make([]float64, mat.Dim)
	for s := 0; s < mat.Part.NumServers(); s++ {
		sh := mat.ShardOf(s)
		sh.Scatter(sh.Rows[0], out)
	}
	return out
}

func dataPartition(ds *data.ClassifyDataset, n int) [][]data.Instance {
	return data.Partition(ds.Instances, n)
}

// runExtFM trains the Factorization Machine — the other classification model
// the paper's introduction names for Tencent's recommendation workloads — on
// a feature-interaction task a linear model provably cannot solve, showing
// the multi-vector DCV layout (w plus K factor rows, all co-located)
// extends beyond the paper's four workloads.
func runExtFM(o Opts) *Result {
	dim := 60
	rows := 4000
	if o.Quick {
		rows = 2000
	}
	instances := parityInstances(rows, dim, 5)

	r := &Result{ID: "ext-fm",
		Title:  "Feature-interaction task (parity pairs): FM vs LR on PS2",
		Header: []string{"model", "time (s)", "accuracy"}}

	eFM := paperEngine(8, 8)
	fmCfg := fm.DefaultConfig()
	fmCfg.Iterations = 150
	fmCfg.BatchFraction = 0.5
	fmCfg.LearningRate = 30
	fmCfg.InitScale = 0.3
	var fmAcc float64
	fmTime := eFM.Run(func(p *simnet.Proc) {
		dataset := rdd.FromSlices(eFM.RDD, data.Partition(instances, 8)).Cache()
		model, err := fm.Train(p, eFM, dataset, dim, fmCfg)
		if err != nil {
			panic(err)
		}
		w := rdd.Must(model.Weights.TryPull(p, eFM.Driver()))
		factors := make([][]float64, len(model.Factors))
		for f, v := range model.Factors {
			factors[f] = rdd.Must(v.TryPull(p, eFM.Driver()))
		}
		fmAcc = fm.Accuracy(instances, w, factors)
	})

	eLR := paperEngine(8, 8)
	lrCfg := lr.DefaultConfig()
	lrCfg.Iterations = 150
	lrCfg.BatchFraction = 0.5
	var lrAcc float64
	lrTime := eLR.Run(func(p *simnet.Proc) {
		dataset := rdd.FromSlices(eLR.RDD, data.Partition(instances, 8)).Cache()
		model, err := lr.Train(p, eLR, dataset, dim, lrCfg, lr.NewSGD())
		if err != nil {
			panic(err)
		}
		lrAcc = lr.Accuracy(instances, rdd.Must(model.Weights.TryPull(p, eLR.Driver())))
	})

	r.AddRow("FM (K=8)", fmTime, fmAcc)
	r.AddRow("LR", lrTime, lrAcc)
	r.Note("the labels depend only on pairwise feature interactions; LR stays near chance, the FM's factor term separates them")
	return r
}

// parityInstances builds the linearly inseparable pairwise-interaction task
// used by ext-fm and the fm package tests.
func parityInstances(rows, dim int, seed uint64) []data.Instance {
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
		sv, err := linalg.NewSparse([]int{a, b}, []float64{1, 1})
		if err != nil {
			panic(err)
		}
		out[r] = data.Instance{Features: sv, Label: label}
	}
	return out
}

// runExtNode2vec compares uniform DeepWalk walks against node2vec's biased
// second-order walks (the paper's reference [12]) on the same graph, scoring
// both embeddings on link prediction.
func runExtNode2vec(o Opts) *Result {
	gcfg := data.Graph1Like()
	if o.Quick {
		gcfg.Vertices = 1200
	}
	g, err := data.GenerateGraph(gcfg)
	if err != nil {
		panic(err)
	}
	var edges []data.Pair
	for u, nbrs := range g.Adj {
		for _, v := range nbrs {
			if int32(u) < v {
				edges = append(edges, data.Pair{U: int32(u), V: v})
			}
		}
		if len(edges) >= 400 {
			break
		}
	}

	cfg := embedding.DefaultConfig()
	cfg.K = 64
	cfg.Iterations = 25
	cfg.BatchSize = 512
	cfg.LearningRate = 0.3
	if o.Quick {
		cfg.Iterations = 8
	}
	workers := 8

	run := func(name string, pairs []data.Pair) (float64, float64) {
		e := paperEngine(workers, 4)
		var auc float64
		end := e.Run(func(p *simnet.Proc) {
			prdd := rdd.FromSlices(e.RDD, data.PartitionPairs(pairs, workers)).Cache()
			m, err := embedding.Train(p, e, prdd, g.Vertices(), cfg)
			if err != nil {
				panic(err)
			}
			auc = m.LinkPredictionAUC(g, edges, 7)
		})
		return auc, end
	}

	uniform := data.RandomWalks(g, data.DefaultWalkConfig())
	bcfg := data.DefaultBiasedWalkConfig()
	biased := data.BiasedRandomWalks(g, bcfg)

	r := &Result{ID: "ext-node2vec",
		Title:  fmt.Sprintf("DeepWalk vs node2vec walks (p=%g q=%g) on a %d-vertex graph, link-prediction AUC", bcfg.ReturnP, bcfg.InOutQ, g.Vertices()),
		Header: []string{"walk strategy", "pairs", "link AUC", "time (s)"}}
	aucU, tU := run("uniform", uniform)
	aucB, tB := run("node2vec", biased)
	r.AddRow("DeepWalk (uniform)", len(uniform), aucU, tU)
	r.AddRow("node2vec (biased)", len(biased), aucB, tB)
	r.Note("both walk generators feed the same PS2 skip-gram trainer; the bias only changes the pair distribution")
	return r
}
