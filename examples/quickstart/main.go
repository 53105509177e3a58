// Quickstart: train logistic regression with Adam on PS2, the paper's
// Figure 3 flow — four dimension co-located DCVs (weight, velocity, square,
// gradient), sparse pulls of each mini-batch's features, a DCV add for the
// gradient push, and one server-side zip for the Adam update.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	ps2 "repro"
	"repro/internal/data"
	"repro/internal/ml/lr"
)

func main() {
	// Synthetic sparse classification data standing in for the paper's
	// recommendation workloads (see internal/data for the knobs).
	ds, err := data.GenerateClassify(data.ClassifyConfig{
		Rows: 5000, Dim: 20000, NnzPerRow: 20, Skew: 1.1, NoiseRate: 0.03, WeightNnz: 2000, Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}

	// A simulated cluster: 20 Spark executors + 20 parameter servers, the
	// paper's standard shape.
	engine := ps2.NewEngine(ps2.DefaultOptions())

	cfg := lr.DefaultConfig()
	cfg.Iterations = 30
	cfg.BatchFraction = 0.2
	cfg.LearningRate = 0.1
	opt := lr.NewAdam()
	opt.LearningRate = cfg.LearningRate

	var trace *ps2.Trace
	var weights []float64
	end := engine.Run(func(p *ps2.Proc) {
		dataset := ps2.LoadInstances(engine, ds.Instances)
		model, err := ps2.TrainLogistic(p, engine, dataset, ds.Config.Dim, cfg, opt)
		if err != nil {
			log.Fatal(err)
		}
		trace = model.Trace
		if weights, err = model.Weights.TryPull(p, engine.Driver()); err != nil {
			log.Fatal(err)
		}
	})

	fmt.Printf("trained %d iterations of LR+Adam in %.2fs of simulated cluster time\n", cfg.Iterations, end)
	d := trace.Downsample(6)
	for i := 0; i < d.Len(); i++ {
		fmt.Printf("  t=%6.3fs  batch loss=%.4f\n", d.Times[i], d.Values[i])
	}
	fmt.Printf("final full-dataset loss: %.4f (random guessing: 0.6931)\n",
		lr.EvalLoss(lr.Logistic, ds.Instances, weights))
	fmt.Printf("training accuracy:       %.1f%%\n", 100*lr.Accuracy(ds.Instances, weights))
}
