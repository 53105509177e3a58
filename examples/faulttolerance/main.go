// Fault tolerance on PS2 (paper Section 5.3): the example exercises all
// three recoverable failure classes — task failures retried by the dataflow
// scheduler with exactly-once pushes, an executor machine lost mid-training
// and rescheduled through RDD lineage, and a parameter-server crash detected
// by the master's heartbeat monitor and recovered from a checkpoint — and
// shows that training still converges to clean-run quality. The crashes are
// scheduled by a FaultPlan; the training code contains no fault handling.
//
//	go run ./examples/faulttolerance
package main

import (
	"fmt"
	"log"
	"math"

	ps2 "repro"
	"repro/internal/data"
	"repro/internal/ml/lr"
)

func main() {
	ds, err := data.GenerateClassify(data.ClassifyConfig{
		Rows: 3000, Dim: 5000, NnzPerRow: 12, Skew: 1.0, NoiseRate: 0.02, WeightNnz: 500, Seed: 6,
	})
	if err != nil {
		log.Fatal(err)
	}
	cfg := lr.DefaultConfig()
	cfg.Iterations = 20
	cfg.BatchFraction = 0.4
	cfg.CheckpointEvery = 2

	// The quick jobs here finish in well under a virtual second, so the
	// detector and RPC clocks are scaled down to match (the defaults assume
	// paper-scale multi-minute runs).
	newEngine := func(failProb float64, faults *ps2.FaultPlan) *ps2.Engine {
		opt := ps2.DefaultOptions()
		opt.Executors, opt.Servers = 8, 8
		opt.TaskFailProb = failProb
		opt.Faults = faults
		opt.Detector = ps2.DetectorConfig{IntervalSec: 0.05, Misses: 3, AutoRecover: true, HeartbeatBytes: 64}
		opt.RPC = ps2.RetryConfig{TimeoutSec: 0.01, BackoffSec: 0.005, MaxBackoffSec: 0.05, MaxRetries: 200}
		return ps2.NewEngine(opt)
	}

	train := func(failProb float64, faults *ps2.FaultPlan) ([]float64, float64, *ps2.Engine) {
		engine := newEngine(failProb, faults)
		var w []float64
		end := engine.Run(func(p *ps2.Proc) {
			dataset := ps2.LoadInstances(engine, ds.Instances)
			model, err := ps2.TrainLogistic(p, engine, dataset, ds.Config.Dim, cfg, lr.NewSGD())
			if err != nil {
				log.Fatal(err)
			}
			if w, err = model.Weights.TryPull(p, engine.Driver()); err != nil {
				log.Fatal(err)
			}
		})
		return w, end, engine
	}
	maxDiff := func(a, b []float64) float64 {
		d := 0.0
		for i := range a {
			if v := math.Abs(a[i] - b[i]); v > d {
				d = v
			}
		}
		return d
	}

	fmt.Println("-- task failures (paper Fig 13(c)) --")
	clean, cleanTime, _ := train(0, nil)
	cleanLoss := lr.EvalLoss(lr.Logistic, ds.Instances, clean)
	for _, prob := range []float64{0.01, 0.1} {
		w, elapsed, engine := train(prob, nil)
		fmt.Printf("p=%.2f: %3d task failures, %.2fs vs %.2fs clean (%.2fx), max weight diff %.1e\n",
			prob, engine.RDD.TaskFailures, elapsed, cleanTime, elapsed/cleanTime, maxDiff(w, clean))
	}

	fmt.Println("-- self-healing: scheduled server + executor crashes, message loss, no manual handling --")
	{
		// Calibrate against a loss-only run (identical timeline up to the
		// first crash), then schedule both crashes mid-training.
		_, lossyEnd, _ := train(0, &ps2.FaultPlan{LossProb: 0.02})
		w, elapsed, engine := train(0, &ps2.FaultPlan{
			LossProb:        0.02,
			ServerCrashes:   []ps2.CrashEvent{{AtSec: 0.4 * lossyEnd, Index: 2}},
			ExecutorCrashes: []ps2.CrashEvent{{AtSec: 0.6 * lossyEnd, Index: 5}},
		})
		loss := lr.EvalLoss(lr.Logistic, ds.Instances, w)
		rep := engine.Snapshot().Recovery
		fmt.Printf("clean loss %.4f, chaos loss %.4f (%+.2f%%), run stretched %.2fs -> %.2fs\n",
			cleanLoss, loss, 100*(loss-cleanLoss)/cleanLoss, cleanTime, elapsed)
		fmt.Printf("server crash detected in %.3fs, recovered in %.2gs replaying %.1f KB from the checkpoint store\n",
			rep.MeanDetectLatency(), rep.MeanRecoverySec(), rep.RestoreBytes/1e3)
		fmt.Printf("delta checkpoints wrote %.1f KB where full snapshots would write %.1f KB\n",
			rep.CheckpointBytesWritten/1e3, rep.CheckpointBytesFull/1e3)
		fmt.Printf("executor crash killed %d in-flight attempts; partitions rescheduled onto the %d survivors\n",
			engine.RDD.ExecutorFailures, engine.RDD.NumExecutors()-1)
	}

	fmt.Println("-- manual API: KillServer / RecoverServer (checkpoint round trip) --")
	{
		// The pre-detector surface still exists for tests and experiments
		// that want to drive recovery by hand.
		engine := newEngine(0, nil)
		engine.Run(func(p *ps2.Proc) {
			dataset := ps2.LoadInstances(engine, ds.Instances)
			model, err := ps2.TrainLogistic(p, engine, dataset, ds.Config.Dim, cfg, lr.NewSGD())
			if err != nil {
				log.Fatal(err)
			}
			mat := model.Weights.Matrix()
			engine.PS.Checkpoint(p, mat)
			loss := func() float64 {
				w, err := model.Weights.TryPull(p, engine.Driver())
				if err != nil {
					log.Fatal(err)
				}
				return lr.EvalLoss(lr.Logistic, ds.Instances, w)
			}
			lossBefore := loss()
			engine.PS.KillServer(2)
			engine.PS.RecoverServer(p, 2)
			lossAfter := loss()
			fmt.Printf("loss before crash %.4f, after checkpoint recovery %.4f (model state survived server 2's crash)\n",
				lossBefore, lossAfter)
		})
	}
}
