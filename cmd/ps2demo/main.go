// Command ps2demo trains a classifier on a LIBSVM-format file using the PS2
// public API, printing the convergence curve and final metrics. Without
// -data it generates a synthetic dataset first (and can save it with -save).
//
//	ps2demo -data train.libsvm -optimizer adam -iterations 50
//	ps2demo -save synthetic.libsvm
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	ps2 "repro"
	"repro/internal/data"
	"repro/internal/ml/lr"
)

func main() {
	var (
		path       = flag.String("data", "", "LIBSVM training file (synthetic data when empty)")
		save       = flag.String("save", "", "write the (possibly synthetic) dataset to this LIBSVM file")
		optName    = flag.String("optimizer", "adam", "sgd | adam | adagrad | rmsprop")
		iterations = flag.Int("iterations", 40, "training iterations")
		batch      = flag.Float64("batch", 0.2, "mini-batch fraction")
		eta        = flag.Float64("eta", 0.1, "learning rate")
		executors  = flag.Int("executors", 20, "simulated Spark executors")
		servers    = flag.Int("servers", 20, "simulated parameter servers")
		svm        = flag.Bool("svm", false, "train a linear SVM (hinge loss) instead of LR")
		saveModel  = flag.String("savemodel", "", "write the trained weights (sparse JSON) to this file")
	)
	flag.Parse()

	var instances []data.Instance
	var dim int
	if *path != "" {
		f, err := os.Open(*path)
		if err != nil {
			log.Fatal(err)
		}
		instances, dim, err = data.ReadLIBSVM(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loaded %s: %d rows, %d features\n", *path, len(instances), dim)
	} else {
		ds, err := data.GenerateClassify(data.ClassifyConfig{
			Rows: 8000, Dim: 50000, NnzPerRow: 25, Skew: 1.1, NoiseRate: 0.03, WeightNnz: 4000, Seed: 7,
		})
		if err != nil {
			log.Fatal(err)
		}
		instances, dim = ds.Instances, ds.Config.Dim
		fmt.Printf("generated synthetic dataset: %d rows, %d features\n", len(instances), dim)
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			log.Fatal(err)
		}
		if err := data.WriteLIBSVM(f, instances); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Printf("wrote dataset to %s\n", *save)
	}

	cfg := lr.DefaultConfig()
	cfg.Iterations = *iterations
	cfg.BatchFraction = *batch
	cfg.LearningRate = *eta
	if *svm {
		cfg.Objective = lr.Hinge
	}
	var opt lr.Optimizer
	switch *optName {
	case "sgd":
		s := lr.NewSGD()
		s.LearningRate = *eta
		opt = s
	case "adam":
		a := lr.NewAdam()
		a.LearningRate = *eta
		opt = a
	case "adagrad":
		a := lr.NewAdagrad()
		a.LearningRate = *eta
		opt = a
	case "rmsprop":
		r := lr.NewRMSProp()
		r.LearningRate = *eta
		opt = r
	default:
		log.Fatalf("unknown optimizer %q", *optName)
	}

	engineOpt := ps2.DefaultOptions()
	engineOpt.Executors = *executors
	engineOpt.Servers = *servers
	engine := ps2.NewEngine(engineOpt)

	var trace *ps2.Trace
	var weights []float64
	end := engine.Run(func(p *ps2.Proc) {
		dataset := ps2.LoadInstances(engine, instances)
		model, err := ps2.TrainLogistic(p, engine, dataset, dim, cfg, opt)
		if err != nil {
			log.Fatal(err)
		}
		trace = model.Trace
		if weights, err = model.Weights.TryPull(p, engine.Driver()); err != nil {
			log.Fatal(err)
		}
	})

	fmt.Printf("trained %d iterations (%s) on %d executors / %d servers in %.2fs simulated\n",
		cfg.Iterations, opt.Name(), *executors, *servers, end)
	d := trace.Downsample(8)
	for i := 0; i < d.Len(); i++ {
		fmt.Printf("  t=%7.3fs  batch loss=%.4f\n", d.Times[i], d.Values[i])
	}
	fmt.Printf("final loss %.4f, accuracy %.1f%%\n",
		lr.EvalLoss(cfg.Objective, instances, weights), 100*lr.Accuracy(instances, weights))
	if *saveModel != "" {
		f, err := os.Create(*saveModel)
		if err != nil {
			log.Fatal(err)
		}
		if err := lr.SaveWeights(f, weights); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote model to %s\n", *saveModel)
	}
}
