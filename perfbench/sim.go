package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	ps2 "repro"
	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/ml/embedding"
	"repro/internal/ml/lr"
	"repro/internal/ps"
	"repro/internal/rdd"
)

// A simulated workload is set up (inputs generated from the seed, engine
// booted, dataset loaded) and then runs rounds of the same fixed work on
// that engine until the timed phase is over. A workload may draw several
// input sets from its seed; the rounds then rotate over them. Each round
// trains a fresh model and releases it afterwards, so memory does not grow
// with the number of rounds. Rounds start at different virtual times, so float rounding of event
// times can move the last digits of a round's loss and virtual time.

// simSpec describes one simulated workload.
type simSpec struct {
	options func() ps2.Options
	// inputs is the number of input sets drawn from the seed (0 means 1).
	// final_loss is the median over the sets, which steadies it where one
	// set's loss swings widely from seed to seed.
	inputs int
	// setup generates the inputs from the seed on the host and returns the
	// function that loads them into a booted engine, which in turn returns
	// the round function.
	setup func(seed uint64) (func(p *ps2.Proc, e *ps2.Engine) roundFunc, error)
}

type roundFunc func(s *roundEnv) (roundResult, error)

// roundResult is what one round reports.
type roundResult struct {
	samples   float64       // training instances or pairs in the round
	trainHost time.Duration // host time of the training segment
	virtual   float64       // simulated seconds of the training segment
	loss      float64       // full-dataset loss of the trained model
	lossBound float64       // the workload's convergence bound
	input     int           // which of the workload's input sets it ran on
	sweep     *sweepResult  // serve-mixed only
}

// roundEnv is a round's handle on the engine. Timed segments charge their
// host time, virtual time and engine counters to the pass.
// inputSeed is the seed of a workload's d-th input set; the first is the
// workload seed itself.
func inputSeed(seed uint64, d int) uint64 {
	if d == 0 {
		return seed
	}
	return derive(seed, 100+uint64(d))
}

type roundEnv struct {
	p      *ps2.Proc
	e      *ps2.Engine
	sp     *spans
	parent spanID
	acc    map[string]float64 // counter deltas summed over timed segments
	host   time.Duration      // host time summed over timed segments
}

// timed runs fn as a timed segment and returns its host and virtual time.
func (s *roundEnv) timed(name string, fn func()) (time.Duration, float64) {
	before := snapCounters(s.e.Snapshot())
	id := s.sp.begin(name, s.parent)
	t0, v0 := time.Now(), s.p.Now()
	fn()
	host, virt := time.Since(t0), s.p.Now()-v0
	s.sp.end(id)
	for k, v := range snapCounters(s.e.Snapshot()) {
		s.acc[k] += v - before[k]
	}
	s.host += host
	return host, virt
}

// snapCounters flattens the engine counters the per-layer metrics use.
func snapCounters(s ps2.Snapshot) map[string]float64 {
	c := map[string]float64{
		"simnet.events":             float64(s.Events),
		"ps.rpc_calls":              float64(s.Net.RPCCalls),
		"ps.rpc_attempts":           float64(s.Net.RPCAttempts),
		"ps.transport_mb":           s.Net.TransportMB,
		"ps.server_core_s":          s.Phases.ServerCoreSec,
		"ml.exec_core_s":            s.Phases.ExecutorCoreSec,
		"dcv.fused_batches":         float64(s.Fusion.Batches),
		"dcv.fused_ops":             float64(s.Fusion.FusedOps),
		"par.calls":                 float64(s.Par.Calls),
		"par.parallel":              float64(s.Par.Parallel),
		"cache.hits":                float64(s.Cache.Hits),
		"cache.misses":              float64(s.Cache.Misses),
		"cache.pulled_mb":           s.Cache.PulledMB,
		"cache.baseline_mb":         s.Cache.BaselineMB,
		"cache.combined_pushes":     float64(s.Cache.CombinedPushes),
		"cache.flushed_mb":          s.Cache.FlushedMB,
		"consistency.served_cached": float64(s.Consistency.ServedCached),
		"consistency.revalidated":   float64(s.Consistency.Revalidated),
		"consistency.hard_pulled":   float64(s.Consistency.HardPulled),
		"serve.reads":               float64(s.Serve.Reads),
		"admission.admitted":        float64(s.Serve.Admitted),
		"admission.delayed":         float64(s.Serve.Delayed),
		"admission.queue_delay_s":   s.Serve.QueueDelaySec,
		"admission.shed_serve":      float64(s.Serve.ShedServe),
		"admission.shed_train":      float64(s.Serve.ShedTrain),
		"trace.comm_s":              s.Phases.CommSec,
		"trace.wait_s":              s.Phases.WaitSec,
	}
	for i, ops := range s.Load.Ops {
		c[fmt.Sprintf("load.%d", i)] = ops
	}
	return c
}

// simPass is one pass over a simulated workload: setups, then timed rounds.
type simPass struct {
	setup     []float64 // seconds per setup
	rounds    []roundResult
	acc       map[string]float64
	host      time.Duration // host time of the timed segments
	allocMB   float64
	gcCycles  float64
	maxQueue  float64
	profile   []byte // gzipped CPU profile of the timed phase (traced passes)
	failed    int    // rounds whose training returned an error
	firstErr  error
	hostSpans *spans
}

// runSimPass sets up at least setups times and until budget is spent (at
// most maxSetups), keeping the last engine, and then runs rounds until
// seconds have passed and at least minRounds are done. A traced pass turns on
// the engine's span tracer, records host spans and profiles CPU.
func runSimPass(spec simSpec, seed uint64, setups int, budget time.Duration, seconds float64, minRounds int, traced bool) (*simPass, error) {
	pass := &simPass{acc: map[string]float64{}}
	if traced {
		pass.hostSpans = newSpans()
	}
	sp := pass.hostSpans
	inputs := max(spec.inputs, 1)
	minRounds = max(minRounds, inputs) // every input set runs at least once
	var spent time.Duration
	for k, done := 0, false; !done; k++ {
		setupSpan := sp.begin("setup", 0)
		t0 := time.Now()
		gen := sp.begin("setup.generate", setupSpan)
		loads := make([]func(*ps2.Proc, *ps2.Engine) roundFunc, inputs)
		for d := range loads {
			load, err := spec.setup(inputSeed(seed, d))
			if err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			loads[d] = load
		}
		sp.end(gen)
		boot := sp.begin("setup.boot", setupSpan)
		opts := spec.options()
		opts.Trace = traced
		e := ps2.NewEngine(opts)
		sp.end(boot)
		var runErr error
		e.Run(func(p *ps2.Proc) {
			ld := sp.begin("setup.load", setupSpan)
			rounds := make([]roundFunc, inputs)
			for d, load := range loads {
				rounds[d] = load(p, e)
			}
			sp.end(ld)
			d := time.Since(t0)
			sp.end(setupSpan)
			pass.setup = append(pass.setup, d.Seconds())
			spent += d
			if k+1 < maxSetups && (k+1 < setups || spent < budget) {
				return
			}
			done = true
			runErr = pass.timedPhase(p, e, rounds, seconds, minRounds, traced)
		})
		if runErr != nil {
			return nil, runErr
		}
		// Collect the discarded engine and inputs before the next setup, so
		// they do not pile up in peak_rss_mb.
		runtime.GC()
	}
	if len(pass.rounds) == 0 {
		return nil, fmt.Errorf("no round completed: %v", pass.firstErr)
	}
	return pass, nil
}

// timedPhase runs rounds, rotating over the input sets, until seconds have
// passed and at least minRounds are done.
func (pass *simPass) timedPhase(p *ps2.Proc, e *ps2.Engine, rounds []roundFunc, seconds float64, minRounds int, traced bool) error {
	// Start from a collected heap so garbage from set-up is not charged to
	// the timed phase.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
	}
	s := &roundEnv{p: p, e: e, sp: pass.hostSpans, acc: pass.acc}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for r := 0; ; r++ {
		// Each round starts from a collected heap, so no round pays for
		// garbage its predecessor left.
		runtime.GC()
		s.parent = s.sp.begin("round", 0)
		res, err := rounds[r%len(rounds)](s)
		res.input = r % len(rounds)
		s.sp.end(s.parent)
		if err != nil {
			pass.failed++
			if pass.firstErr == nil {
				pass.firstErr = err
			}
		} else {
			pass.rounds = append(pass.rounds, res)
		}
		if r+1 >= minRounds && time.Now().After(deadline) {
			break
		}
	}
	if traced {
		pprof.StopCPUProfile()
		pass.profile = prof.Bytes()
	}
	runtime.ReadMemStats(&m1)
	pass.host = s.host
	pass.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	pass.gcCycles = float64(m1.NumGC - m0.NumGC)
	pass.maxQueue = float64(e.Snapshot().Serve.MaxQueueDepth)
	return nil
}

// derive spreads one workload seed into independent stream seeds (never 0).
func derive(seed uint64, stream uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + 0x632be59bd9b4e019
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// ---------------------------------------------------------------------------
// lr-sync: synchronous sparse LR with Adam on the paper's 20×20 cluster.

const (
	lrSyncIterations = 30
	lrSyncFraction   = 0.05
	lrSyncRate       = 0.1
	lrSyncLossBound  = 0.4
)

var lrSync = simSpec{
	options: ps2.DefaultOptions, // 20 executors × 20 servers
	setup: func(seed uint64) (func(*ps2.Proc, *ps2.Engine) roundFunc, error) {
		ds, err := data.GenerateClassify(data.ClassifyConfig{
			Rows: 20000, Dim: 100000, NnzPerRow: 20, Skew: 1.1,
			NoiseRate: 0.03, WeightNnz: 20000, Seed: derive(seed, 1),
		})
		if err != nil {
			return nil, err
		}
		return func(p *ps2.Proc, e *ps2.Engine) roundFunc {
			dataset := ps2.LoadInstances(e, ds.Instances)
			rdd.Count(p, dataset)
			return func(s *roundEnv) (roundResult, error) {
				cfg := lr.DefaultConfig()
				cfg.Iterations = lrSyncIterations
				cfg.BatchFraction = lrSyncFraction
				cfg.LearningRate = lrSyncRate
				cfg.Seed = derive(seed, 2)
				opt := lr.NewAdam()
				opt.LearningRate = lrSyncRate
				var model *lr.Model
				var err error
				host, virt := s.timed("train", func() {
					model, err = ps2.TrainLogistic(s.p, s.e, dataset, ds.Config.Dim, cfg, opt)
				})
				if err != nil {
					return roundResult{}, fmt.Errorf("TrainLogistic: %w", err)
				}
				w := model.Weights.Pull(s.p, s.e.Driver())
				s.e.PS.ReleaseMatrix(s.p, model.Weights.Matrix())
				return roundResult{
					samples:   float64(lrSyncIterations) * lrSyncFraction * float64(len(ds.Instances)),
					trainHost: host, virtual: virt,
					loss:      lr.EvalLoss(lr.Logistic, ds.Instances, w),
					lossBound: lrSyncLossBound,
				}, nil
			}
		}, nil
	},
}

// ---------------------------------------------------------------------------
// deepwalk-fused: DeepWalk in ModeDCV on a Graph1-like graph, 8 × 4.

const (
	dwExecutors  = 8
	dwIterations = 24
	dwBatch      = 64
	dwK          = 64
	dwRate       = 0.3
	// dwLossBound sits below the untrained loss of 6·ln 2 ≈ 4.16 (one
	// positive and five negative terms per pair at near-zero embeddings).
	dwLossBound = 4.0
)

var deepwalkFused = simSpec{
	options: func() ps2.Options {
		o := ps2.DefaultOptions()
		o.Executors, o.Servers = dwExecutors, 4
		return o
	},
	setup: func(seed uint64) (func(*ps2.Proc, *ps2.Engine) roundFunc, error) {
		gcfg := data.Graph1Like()
		gcfg.Seed = derive(seed, 1)
		g, err := data.GenerateGraph(gcfg)
		if err != nil {
			return nil, err
		}
		walks := data.DefaultWalkConfig()
		walks.Seed = derive(seed, 2)
		pairs := data.RandomWalks(g, walks)
		return func(p *ps2.Proc, e *ps2.Engine) roundFunc {
			prdd := rdd.FromSlices(e.RDD, data.PartitionPairs(pairs, dwExecutors)).Cache()
			rdd.Count(p, prdd)
			return func(s *roundEnv) (roundResult, error) {
				cfg := embedding.DefaultConfig()
				cfg.Mode = embedding.ModeDCV
				cfg.K, cfg.BatchSize, cfg.LearningRate = dwK, dwBatch, dwRate
				cfg.Iterations = dwIterations
				cfg.Seed = derive(seed, 3)
				var model *embedding.Model
				var err error
				host, virt := s.timed("train", func() {
					model, err = ps2.TrainDeepWalk(s.p, s.e, prdd, g.Vertices(), cfg)
				})
				if err != nil {
					return roundResult{}, fmt.Errorf("TrainDeepWalk: %w", err)
				}
				rows := make([]int, 2*model.V)
				for i := range rows {
					rows[i] = i
				}
				table := model.Mat.PullRows(s.p, s.e.Driver(), rows)
				s.e.PS.ReleaseMatrix(s.p, model.Mat)
				loss, err := pairLoss(table, model.V, pairs, cfg.Negatives, derive(seed, 4))
				if err != nil {
					return roundResult{}, err
				}
				return roundResult{
					samples:   float64(dwIterations * dwBatch * dwExecutors),
					trainHost: host, virtual: virt,
					loss: loss, lossBound: dwLossBound,
				}, nil
			}
		}, nil
	},
}

// pairLoss is the skip-gram objective the trainer minimizes, over every pair
// of the dataset: the positive term plus negative terms whose contexts are
// drawn from the unigram^0.75 noise distribution of the pairs' contexts, from
// a fixed stream, so the same table always scores the same.
func pairLoss(table [][]float64, v int, pairs []data.Pair, negatives int, seed uint64) (float64, error) {
	counts := make([]float64, v)
	for _, pr := range pairs {
		counts[pr.V]++
	}
	for i := range counts {
		counts[i] = math.Pow(counts[i]+1, 0.75)
	}
	noise, err := linalg.NewAliasSampler(counts)
	if err != nil {
		return 0, err
	}
	rng := linalg.NewRNG(seed)
	var sum float64
	for _, pr := range pairs {
		in := table[pr.U]
		sum += linalg.LogLoss(linalg.Dot(in, table[v+int(pr.V)]), 1)
		for n := 0; n < negatives; n++ {
			sum += linalg.LogLoss(linalg.Dot(in, table[v+noise.Sample(rng)]), 0)
		}
	}
	return sum / float64(len(pairs)), nil
}

// ---------------------------------------------------------------------------
// serve-mixed: LR through the worker cache, then an open-loop Zipf read
// stream beside a push stream, swept over fixed arrival rates.

const (
	smExecutors  = 8
	smIterations = 20
	smFraction   = 0.25
	smRate       = 2.0
	smLossBound  = 0.62
	smHotCols    = 64
	smReadNnz    = 12
	smSkew       = 1.2
	// smReadsPerRate gives the p99 at least ten samples beyond it.
	smReadsPerRate = 1000
	// smLatencyLimitMS is the p99 limit read_max_rate is judged against.
	smLatencyLimitMS = 10.0
)

// smRates are the swept arrival rates (reads per virtual second); the
// middle one is where read_p50_ms and read_p99_ms are reported.
var smRates = []float64{500, 1000, 2000}

// smAdmission is the per-server admission budget of the serve phase: below
// the combined offered load at the top rate, favoring the serving class.
var smAdmission = ps2.AdmissionConfig{RatePerSec: 1600, Burst: 32, MaxQueue: 48, LowQueue: 4, Favor: ps.ClassServe}

// sweepResult is one round's serve phase.
type sweepResult struct {
	host             time.Duration
	sent, served     int
	shed, badErrors  int
	pushErrors       int
	lats             [][]float64 // per rate, ms from due time; +Inf for shed reads
	replicaReads     float64
	replicaLocalHits float64
}

var serveMixed = simSpec{
	options: func() ps2.Options {
		o := ps2.DefaultOptions()
		o.Executors, o.Servers = smExecutors, 8
		return o
	},
	// The generator puts most of the signal on a few hot features, so one
	// dataset's loss swings from seed to seed (over 40 seeds most trained to
	// 0.50–0.57, but some to 0.37–0.46); the median over five sets does not.
	inputs: 5,
	setup: func(seed uint64) (func(*ps2.Proc, *ps2.Engine) roundFunc, error) {
		ds, err := data.GenerateClassify(data.ClassifyConfig{
			Rows: 4000, Dim: 6000, NnzPerRow: 20, Skew: 1.1,
			NoiseRate: 0.02, WeightNnz: 6000, SortedFeatures: true, Seed: derive(seed, 1),
		})
		if err != nil {
			return nil, err
		}
		freq := make([]float64, ds.Config.Dim)
		for _, inst := range ds.Instances {
			for _, idx := range inst.Features.Indices {
				freq[idx]++
			}
		}
		hot := ps2.TopKCols(freq, smHotCols)
		return func(p *ps2.Proc, e *ps2.Engine) roundFunc {
			dataset := ps2.LoadInstances(e, ds.Instances)
			rdd.Count(p, dataset)
			return func(s *roundEnv) (roundResult, error) {
				cfg := lr.DefaultConfig()
				cfg.Iterations = smIterations
				cfg.BatchFraction = smFraction
				cfg.LearningRate = smRate
				cfg.Seed = derive(seed, 2)
				opt := lr.NewSGD()
				opt.LearningRate = smRate
				cache := &ps2.CacheConfig{Policy: ps2.ValueBoundedPolicy(1), CombinePushes: true}
				var model *lr.Model
				var err error
				host, virt := s.timed("train", func() {
					model, err = ps2.TrainLogistic(s.p, s.e, dataset, ds.Config.Dim, cfg, opt,
						ps2.TrainOptions{Cache: cache})
				})
				if err != nil {
					return roundResult{}, fmt.Errorf("TrainLogistic: %w", err)
				}
				res := roundResult{
					samples:   float64(smIterations) * smFraction * float64(len(ds.Instances)),
					trainHost: host, virtual: virt,
					loss:      lr.EvalLoss(lr.Logistic, ds.Instances, model.Weights.Pull(s.p, s.e.Driver())),
					lossBound: smLossBound,
				}
				sw, err := serveSweep(s, model.Weights.Matrix(), model.Weights.Row(), hot, ds.Config.Dim, seed)
				s.e.PS.ReleaseMatrix(s.p, model.Weights.Matrix())
				if err != nil {
					return roundResult{}, err
				}
				res.sweep = sw
				return res, nil
			}
		}, nil
	},
}

// serveSweep streams reads at each fixed rate while a push stream ticks the
// model clock, under admission control that favors serving.
func serveSweep(s *roundEnv, mat *ps2.Matrix, row int, hot []int, dim int, seed uint64) (*sweepResult, error) {
	reader, err := ps2.Serve(mat, ps2.ServeOptions{Replicas: &ps2.ReplicaConfig{HotCols: hot}})
	if err != nil {
		return nil, fmt.Errorf("Serve: %w", err)
	}
	opts := ps2.ReadOptions{Policy: ps2.ValueBoundedPolicy(0.01)}
	sw := &sweepResult{}
	rep0 := reader.Replicas().Stats()
	var sweepErr error
	sw.host, _ = s.timed("serve", func() {
		for ri, rate := range smRates {
			rateSpan := s.sp.begin(fmt.Sprintf("serve.rate.%g", rate), s.parent)
			adm, err := ps.NewAdmissionControl(smAdmission)
			if err != nil {
				sweepErr = err
				return
			}
			s.e.PS.SetAdmission(adm)
			lats := streamReads(s, reader, opts, row, dim, rate, derive(seed, 10+uint64(ri)), rateSpan, mat, sw)
			s.e.PS.SetAdmission(nil)
			s.sp.end(rateSpan)
			sw.lats = append(sw.lats, lats)
		}
	})
	if sweepErr != nil {
		return nil, sweepErr
	}
	rep1 := reader.Replicas().Stats()
	sw.replicaReads = float64(rep1.Reads - rep0.Reads)
	sw.replicaLocalHits = float64(rep1.LocalHits - rep0.LocalHits)
	return sw, nil
}

// streamReads sends smReadsPerRate reads on an open-loop schedule (one
// every 1/rate virtual seconds, whatever earlier reads are doing) beside a
// push stream, and returns each read's latency from its due time.
func streamReads(s *roundEnv, reader *ps2.ModelReader, opts ps2.ReadOptions, row, dim int, rate float64,
	seed uint64, parent spanID, mat *ps2.Matrix, sw *sweepResult) []float64 {
	sim := s.p.Sim()
	execs := s.e.Cluster.Executors
	lats := make([]float64, smReadsPerRate)
	done := false
	g := sim.NewGroup()
	g.Go("push-stream", func(sp *ps2.Proc) {
		rng := linalg.NewRNG(derive(seed, 1))
		for !done {
			pg := sp.Sim().NewGroup()
			for b := 0; b < 24; b++ {
				cols := zipfIndices(rng, dim, 3, smSkew)
				vals := make([]float64, len(cols))
				for i := range vals {
					vals[i] = 1e-4
				}
				sv, err := linalg.NewSparse(cols, vals)
				if err != nil {
					sw.pushErrors++
					continue
				}
				from := execs[b%len(execs)]
				pg.Go("push", func(cp *ps2.Proc) {
					// A shed push is what admission promises under load.
					if err := mat.TryPushAdd(cp, from, row, sv); err != nil && !errors.Is(err, ps2.ErrOverload) {
						sw.pushErrors++
					}
				})
			}
			pg.Wait(sp)
			mat.TickClock()
			sp.Sleep(0.004)
		}
	})
	g.Go("read-stream", func(gp *ps2.Proc) {
		rng := linalg.NewRNG(seed)
		gap := 1 / rate
		start := gp.Now()
		procs := make([]*ps2.Proc, 0, smReadsPerRate)
		for i := 0; i < smReadsPerRate; i++ {
			idx := zipfIndices(rng, dim, smReadNnz, smSkew)
			from := execs[i%len(execs)]
			due := start + float64(i)*gap
			procs = append(procs, sim.Spawn("read", func(cp *ps2.Proc) {
				id := s.sp.begin("serve.read", parent)
				_, err := reader.Read(cp, from, row, idx, opts)
				s.sp.end(id)
				switch {
				case err == nil:
					sw.served++
					lats[i] = (cp.Now() - due) * 1e3
				case errors.Is(err, ps2.ErrOverload):
					sw.shed++
					lats[i] = math.Inf(1)
				default:
					sw.badErrors++
					lats[i] = math.Inf(1)
				}
			}))
			sw.sent++
			gp.Sleep(gap)
		}
		for _, rp := range procs {
			rp.Done().Wait(gp)
		}
		done = true
	})
	g.Wait(s.p)
	return lats
}

// zipfIndices draws n distinct Zipf-skewed column ids, sorted: one read's
// feature set over a frequency-sorted dictionary.
func zipfIndices(rng *linalg.RNG, dim, n int, skew float64) []int {
	seen := make(map[int]bool, n)
	out := make([]int, 0, n)
	for len(out) < n {
		c := rng.Zipf(dim, skew)
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Ints(out)
	return out
}
