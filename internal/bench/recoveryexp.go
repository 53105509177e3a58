package bench

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/ml/lr"
	"repro/internal/ps"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

func init() {
	register("ext-recovery", "Extension: recovery time and loss vs checkpoint interval (paper §5.3, Fig 13 family)", runExtRecovery)
	register("ext-chaos", "Extension: self-healing under a fault plan — crashes + message loss, zero manual handling", runExtChaos)
}

// recoveryData is the LR workload the recovery experiments train: small
// enough that many engine runs stay cheap, dense enough that every server
// holds meaningful state to restore.
func recoveryData(o Opts) *data.ClassifyDataset {
	cfg := data.ClassifyConfig{
		Rows: 6000, Dim: 10000, NnzPerRow: 12, Skew: 1.0, NoiseRate: 0.02, WeightNnz: 1000, Seed: 11,
	}
	if o.Quick {
		cfg.Rows, cfg.Dim, cfg.WeightNnz = 2000, 3000, 300
	}
	ds, err := data.GenerateClassify(cfg)
	if err != nil {
		panic(err)
	}
	return ds
}

// faultEngine builds an engine with the fault plan installed and the
// detector/RPC clocks matched to the sub-second virtual runtime of these
// jobs (the defaults assume paper-scale multi-minute runs).
func faultEngine(faults *core.FaultPlan, full bool) *core.Engine {
	opt := core.DefaultOptions()
	opt.Executors, opt.Servers = 8, 8
	opt.Faults = faults
	opt.FullCheckpoints = full
	opt.Detector = ps.DetectorConfig{IntervalSec: 0.05, Misses: 3, AutoRecover: true, HeartbeatBytes: 64}
	opt.RPC = ps.RetryConfig{TimeoutSec: 0.01, BackoffSec: 0.005, MaxBackoffSec: 0.05, MaxRetries: 200}
	return core.NewEngine(opt)
}

// runExtRecovery sweeps the checkpoint interval under an identical one-server
// crash and reports the recovery pipeline's metrics: detection latency,
// restore time and traffic, delta-checkpoint wire cost versus full snapshots,
// and the loss penalty of the state lost since the last checkpoint. Frequent
// checkpoints pay more wire upfront and lose less on a crash — the trade the
// paper's §5.3 describes.
func runExtRecovery(o Opts) *Result {
	ds := recoveryData(o)
	cfg := lr.DefaultConfig()
	cfg.Iterations = lrIterations(o)
	cfg.BatchFraction = 0.3

	type outcome struct {
		loss float64
		end  simnet.Time
		e    *core.Engine
	}
	train := func(c lr.Config, faults *core.FaultPlan, full bool) outcome {
		e := faultEngine(faults, full)
		var loss float64
		end := e.Run(func(p *simnet.Proc) {
			model, err := lr.Train(p, e, instancesRDD(e, ds), ds.Config.Dim, c, lr.NewSGD())
			if err != nil {
				panic(err)
			}
			loss = lr.EvalLoss(lr.Logistic, ds.Instances, rdd.Must(model.Weights.TryPull(p, e.Driver())))
		})
		return outcome{loss: loss, end: end, e: e}
	}

	clean := train(cfg, nil, false)
	r := &Result{ID: "ext-recovery",
		Title: fmt.Sprintf("LR, %d iterations, one server crash mid-training, checkpoint interval sweep", cfg.Iterations),
		Header: []string{"ckpt every", "detect (s)", "recover (s)", "restore MB",
			"ckpt wire MB", "full-snap MB", "loss delta"}}

	const lossProb = 0.02
	for _, every := range []int{1, 2, 4, 8} {
		c := cfg
		c.CheckpointEvery = every
		// Calibration run (loss only): its timeline matches the crash run's
		// up to the crash instant, so a crash at half its duration is
		// guaranteed to land mid-training.
		calib := train(c, &core.FaultPlan{LossProb: lossProb}, false)
		crashed := train(c, &core.FaultPlan{
			LossProb:      lossProb,
			ServerCrashes: []core.CrashEvent{{AtSec: 0.5 * float64(calib.end), Index: 3}},
		}, false)
		rep := crashed.e.Snapshot().Recovery
		r.AddRow(fmt.Sprintf("%d iters", every),
			rep.MeanDetectLatency(), rep.MeanRecoverySec(), rep.RestoreBytes/1e6,
			rep.CheckpointBytesWritten/1e6, rep.CheckpointBytesFull/1e6,
			fmt.Sprintf("%+.2f%%", 100*(crashed.loss-clean.loss)/clean.loss))
	}

	// Ablation arm: the same crash with delta checkpointing disabled.
	c := cfg
	c.CheckpointEvery = 2
	calib := train(c, &core.FaultPlan{LossProb: lossProb}, true)
	fullRun := train(c, &core.FaultPlan{
		LossProb:      lossProb,
		ServerCrashes: []core.CrashEvent{{AtSec: 0.5 * float64(calib.end), Index: 3}},
	}, true)
	deltaRun := train(c, &core.FaultPlan{LossProb: lossProb}, false)
	fullRep := fullRun.e.Snapshot().Recovery
	deltaRep := deltaRun.e.Snapshot().Recovery
	r.Note("clean-run loss %.4f in %.2fs; crash injected at 50%% of the run, detector interval 0.05s × 3 misses", clean.loss, clean.end)
	r.Note("delta checkpoints ship %.2f MB where full snapshots ship %.2f MB (every 2 iters): %.1fx less wire",
		deltaRep.CheckpointBytesWritten/1e6, fullRep.CheckpointBytesWritten/1e6,
		fullRep.CheckpointBytesWritten/math.Max(deltaRep.CheckpointBytesWritten, 1))
	return r
}

// runExtChaos is the chaos soak as an experiment: one PS-server crash and one
// executor crash mid-training plus ambient message loss, with nothing in the
// job handling faults — the heartbeat detector recovers the server from its
// checkpoint and the dataflow scheduler reassigns the dead executor's
// partitions. Reported against the clean run and a loss-only run.
func runExtChaos(o Opts) *Result {
	ds := recoveryData(o)
	cfg := lr.DefaultConfig()
	cfg.Iterations = lrIterations(o)
	cfg.BatchFraction = 0.3
	cfg.CheckpointEvery = 2

	train := func(faults *core.FaultPlan) (float64, simnet.Time, *core.Engine) {
		e := faultEngine(faults, false)
		var loss float64
		end := e.Run(func(p *simnet.Proc) {
			model, err := lr.Train(p, e, instancesRDD(e, ds), ds.Config.Dim, cfg, lr.NewSGD())
			if err != nil {
				panic(err)
			}
			loss = lr.EvalLoss(lr.Logistic, ds.Instances, rdd.Must(model.Weights.TryPull(p, e.Driver())))
		})
		return loss, end, e
	}

	const lossProb = 0.02
	cleanLoss, cleanEnd, _ := train(nil)
	lossyLoss, lossyEnd, lossyE := train(&core.FaultPlan{LossProb: lossProb})
	chaosLoss, chaosEnd, chaosE := train(&core.FaultPlan{
		LossProb:        lossProb,
		ServerCrashes:   []core.CrashEvent{{AtSec: 0.4 * float64(lossyEnd), Index: 2}},
		ExecutorCrashes: []core.CrashEvent{{AtSec: 0.6 * float64(lossyEnd), Index: 5}},
	})

	r := &Result{ID: "ext-chaos",
		Title:  fmt.Sprintf("LR, %d iterations: clean vs 2%% message loss vs loss + server & executor crashes", cfg.Iterations),
		Header: []string{"run", "time (s)", "final loss", "loss vs clean"}}
	r.AddRow("clean", float64(cleanEnd), cleanLoss, "—")
	r.AddRow("2% loss", float64(lossyEnd), lossyLoss,
		fmt.Sprintf("%+.2f%%", 100*(lossyLoss-cleanLoss)/cleanLoss))
	r.AddRow("loss+crashes", float64(chaosEnd), chaosLoss,
		fmt.Sprintf("%+.2f%%", 100*(chaosLoss-cleanLoss)/cleanLoss))

	rep := chaosE.Snapshot().Recovery
	r.Note("server crash detected in %.3fs, recovered in %.4fs replaying %.2f MB from the checkpoint store",
		rep.MeanDetectLatency(), rep.MeanRecoverySec(), rep.RestoreBytes/1e6)
	r.Note("%d messages dropped in the lossy run, %d in the chaos run; executor crash rescheduled its partitions onto the %d survivors",
		lossyE.Sim.Chaos().MessagesLost, chaosE.Sim.Chaos().MessagesLost, chaosE.RDD.NumExecutors()-1)
	r.Note("no KillServer/RecoverServer in the job: detection and recovery are entirely the monitor's")
	return r
}
