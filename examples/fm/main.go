// Factorization Machine on PS2 — the other classification model the paper's
// introduction names for Tencent's recommendation workloads. The FM's model
// is one weight vector plus K latent factor vectors, all rows of a single
// co-located raw matrix, trained with sparse pulls and server-side axpy
// updates. The demo task is deliberately linearly inseparable (labels depend
// only on a pairwise feature interaction) so the contrast with LR is stark.
//
//	go run ./examples/fm
package main

import (
	"fmt"
	"log"

	ps2 "repro"
	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/ml/fm"
	"repro/internal/ml/lr"
)

func main() {
	const dim = 60
	instances := parityInstances(4000, dim, 5)
	fmt.Printf("task: %d rows, 2 active features each; label = 1 iff both features share parity\n", len(instances))

	// LR first: provably stuck near chance.
	{
		opt := ps2.DefaultOptions()
		opt.Executors, opt.Servers = 8, 8
		engine := ps2.NewEngine(opt)
		cfg := lr.DefaultConfig()
		cfg.Iterations = 150
		cfg.BatchFraction = 0.5
		var acc float64
		engine.Run(func(p *ps2.Proc) {
			model, err := ps2.TrainLogistic(p, engine, ps2.LoadInstances(engine, instances), dim, cfg, lr.NewSGD())
			if err != nil {
				log.Fatal(err)
			}
			w, err := model.Weights.TryPull(p, engine.Driver())
			if err != nil {
				log.Fatal(err)
			}
			acc = lr.Accuracy(instances, w)
		})
		fmt.Printf("logistic regression: accuracy %.1f%% (chance ~50%%: no linear separator exists)\n", 100*acc)
	}

	// FM: the factor term models <v_a, v_b>.
	{
		opt := ps2.DefaultOptions()
		opt.Executors, opt.Servers = 8, 8
		engine := ps2.NewEngine(opt)
		cfg := fm.DefaultConfig()
		cfg.Iterations = 150
		cfg.BatchFraction = 0.5
		cfg.LearningRate = 30
		cfg.InitScale = 0.3
		var acc float64
		var firstLoss, lastLoss float64
		end := engine.Run(func(p *ps2.Proc) {
			model, err := fm.Train(p, engine, ps2.LoadInstances(engine, instances), dim, cfg)
			if err != nil {
				log.Fatal(err)
			}
			firstLoss, lastLoss = model.Trace.Values[0], model.Trace.Final()
			w, err := model.Weights.TryPull(p, engine.Driver())
			if err != nil {
				log.Fatal(err)
			}
			factors := make([][]float64, len(model.Factors))
			for f, v := range model.Factors {
				if factors[f], err = v.TryPull(p, engine.Driver()); err != nil {
					log.Fatal(err)
				}
			}
			acc = fm.Accuracy(instances, w, factors)
		})
		fmt.Printf("factorization machine (K=%d): accuracy %.1f%%, loss %.3f -> %.3f, %.2fs simulated\n",
			cfg.Factors, 100*acc, firstLoss, lastLoss, end)
	}
}

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
			log.Fatal(err)
		}
		out[r] = data.Instance{Features: sv, Label: label}
	}
	return out
}
