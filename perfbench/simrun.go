package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	ps2 "repro"
)

// A timed run sets up at least minSetups times and until setupBudget is
// spent, at most maxSetups times; setup_s is the median. Cheap setups thus
// get many samples and expensive ones a few.
const (
	minSetups   = 5
	maxSetups   = 200
	setupBudget = time.Second
)

// simWorkload runs a simulated workload: a timed pass, or with tracing an
// untraced and a traced pass of half the time each. The untraced pass gives
// the counters and host-time ratios, the traced one the CPU attribution,
// the engine's phase breakdown and the tracing overhead.
func simWorkload(spec simSpec) func(runConfig) (*outcome, error) {
	return func(rc runConfig) (*outcome, error) {
		o := &outcome{values: map[string]float64{}}
		if !rc.trace {
			pass, err := runSimPass(spec, rc.seed, minSetups, setupBudget, rc.seconds, 3, false)
			if err != nil {
				return nil, err
			}
			check(o, pass)
			o.values["samples_per_s"] = samplesPerSec(pass)
			o.values["setup_s"] = median(pass.setup)
			o.values["final_loss"] = finalLoss(pass)
			o.values["peak_rss_mb"] = peakRSSMB()
			return o, nil
		}
		plain, err := runSimPass(spec, rc.seed, 1, 0, rc.seconds/2, 2, false)
		if err != nil {
			return nil, err
		}
		traced, err := runSimPass(spec, rc.seed, 1, 0, rc.seconds/2, 2, true)
		if err != nil {
			return nil, err
		}
		check(o, plain)
		check(o, traced)
		samples, err := parseProfile(traced.profile)
		if err != nil {
			return nil, err
		}
		simLayers(o, plain, traced, shares(samples))
		probeSimnet(o)
		o.values["trace.overhead_frac"] = 1 - samplesPerSec(traced)/samplesPerSec(plain)
		o.values["failed_frac"] = ratio(float64(o.failed+shedReads(plain)+shedReads(traced)), float64(o.attempted))
		for _, m := range perLayer {
			if strings.HasPrefix(m.name, "wire.") {
				o.values[m.name] = 0 // no sockets in a simulated workload
			}
		}
		return o, writeTrace(rc, traced.hostSpans, traced.profile)
	}
}

// check applies the workload's output checks to every round of a pass.
func check(o *outcome, pass *simPass) {
	o.attempted += len(pass.rounds) + pass.failed
	o.failed += pass.failed
	if pass.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: round failed: %v\n", pass.firstErr)
	}
	for i, r := range pass.rounds {
		if math.IsNaN(r.loss) || math.IsInf(r.loss, 0) || r.loss >= r.lossBound {
			o.failed++
			fmt.Fprintf(os.Stderr, "perfbench: round %d: final loss %v not below the convergence bound %v\n", i, r.loss, r.lossBound)
		}
		if sw := r.sweep; sw != nil {
			o.attempted += sw.sent
			bad := sw.badErrors + sw.pushErrors
			if sw.served+sw.shed+sw.badErrors != sw.sent {
				bad++
			}
			if bad > 0 {
				o.failed += bad
				fmt.Fprintf(os.Stderr, "perfbench: round %d: %d reads sent, %d served, %d shed, %d other errors; %d push errors\n",
					i, sw.sent, sw.served, sw.shed, sw.badErrors, sw.pushErrors)
			}
		}
	}
}

// shedReads counts the reads admission control shed in a pass.
func shedReads(pass *simPass) int {
	n := 0
	for _, r := range pass.rounds {
		if r.sweep != nil {
			n += r.sweep.shed
		}
	}
	return n
}

// samplesPerSec is the median over rounds of training samples per host
// second of the training segment.
func samplesPerSec(pass *simPass) float64 {
	var xs []float64
	for _, r := range pass.rounds {
		xs = append(xs, r.samples/r.trainHost.Seconds())
	}
	return median(xs)
}

// finalLoss is the median over input sets of each set's median round loss.
func finalLoss(pass *simPass) float64 {
	var byInput [][]float64
	for _, r := range pass.rounds {
		for len(byInput) <= r.input {
			byInput = append(byInput, nil)
		}
		byInput[r.input] = append(byInput[r.input], r.loss)
	}
	var xs []float64
	for _, ls := range byInput {
		if len(ls) > 0 {
			xs = append(xs, median(ls))
		}
	}
	return median(xs)
}

// simLayers fills the per-layer metrics of a simulated workload. Counts are
// per round; host ratios come from the untraced pass.
func simLayers(o *outcome, plain, traced *simPass, share map[string]float64) {
	v := o.values
	acc := plain.acc
	n := float64(len(plain.rounds) + plain.failed)
	for _, k := range []string{
		"simnet.events", "ml.exec_core_s", "ps.rpc_calls", "ps.rpc_attempts", "ps.transport_mb",
		"ps.server_core_s", "dcv.fused_batches", "dcv.fused_ops", "par.calls",
		"cache.pulled_mb", "cache.combined_pushes", "cache.flushed_mb",
		"consistency.served_cached", "consistency.revalidated", "consistency.hard_pulled",
		"serve.reads", "admission.admitted", "admission.delayed", "admission.queue_delay_s",
		"admission.shed_serve", "admission.shed_train",
	} {
		v[k] = acc[k] / n
	}
	hostNS := float64(plain.host.Nanoseconds())
	v["virtual_s"] = plain.rounds[0].virtual
	v["simnet.ns_per_event"] = ratio(hostNS, acc["simnet.events"])
	v["ps.ns_per_rpc"] = ratio(hostNS, acc["ps.rpc_calls"])
	var ops []float64
	for i := 0; ; i++ {
		x, ok := acc[fmt.Sprintf("load.%d", i)]
		if !ok {
			break
		}
		ops = append(ops, x)
	}
	v["ps.ops_imbalance"] = imbalance(ops)
	v["par.parallel_frac"] = ratio(acc["par.parallel"], acc["par.calls"])
	v["cache.hit_frac"] = ratio(acc["cache.hits"], acc["cache.hits"]+acc["cache.misses"])
	v["cache.saved_frac"] = 0
	if acc["cache.baseline_mb"] > 0 {
		v["cache.saved_frac"] = 1 - acc["cache.pulled_mb"]/acc["cache.baseline_mb"]
	}
	v["go.alloc_mb"] = plain.allocMB / n
	v["go.gc_cycles"] = plain.gcCycles / n
	v["admission.max_queue"] = plain.maxQueue

	cpuShares(v, share)

	tn := float64(len(traced.rounds) + traced.failed)
	v["trace.comm_s"] = traced.acc["trace.comm_s"] / tn
	v["trace.wait_s"] = traced.acc["trace.wait_s"] / tn
	readNS, reads := traced.hostSpans.total("serve.read")
	v["serve.us_per_read"] = ratio(float64(readNS.Nanoseconds())/1e3, float64(reads))

	serveLayers(v, plain)
}

// cpuShares fills the CPU-share metrics from the profile attribution. The
// wire package has no share of its own: it runs inside ps2serve and
// ps2worker, whose CPU is reported from their rusage.
func cpuShares(v map[string]float64, share map[string]float64) {
	for _, layer := range []string{"simnet", "rdd", "ml", "ps", "dcv", "linalg", "consistency"} {
		v[layer+".cpu_share"] = share[layer]
	}
	v["go.gc_cpu_share"] = share[bucketGC]
	v["go.sched_cpu_share"] = share[bucketSched]
	v["other.cpu_share"] = share[bucketOther]
}

// serveLayers fills the read metrics; on workloads without a serve phase
// they read 0.
func serveLayers(v map[string]float64, pass *simPass) {
	for _, k := range []string{"read_p50_ms", "read_p99_ms", "read_samples", "read_max_rate", "reads_per_s", "replica.local_frac"} {
		v[k] = 0
	}
	var perSec []float64
	var repReads, repLocal float64
	for _, r := range pass.rounds {
		if sw := r.sweep; sw != nil {
			perSec = append(perSec, float64(sw.served)/sw.host.Seconds())
			repReads += sw.replicaReads
			repLocal += sw.replicaLocalHits
		}
	}
	if len(perSec) == 0 {
		return
	}
	sw := pass.rounds[0].sweep
	mid := sw.lats[len(smRates)/2]
	var served []float64
	for _, l := range mid {
		if !math.IsInf(l, 1) {
			served = append(served, l)
		}
	}
	if len(served) > 0 {
		v["read_p50_ms"] = orderStat(served, 0.50)
		v["read_p99_ms"] = orderStat(served, 0.99)
	}
	v["read_samples"] = float64(len(served))
	v["read_max_rate"] = maxRate(smRates, sw.lats, smLatencyLimitMS)
	v["reads_per_s"] = median(perSec)
	v["replica.local_frac"] = ratio(repLocal, repReads)
}

// maxRate returns the highest rate whose p99 latency, counting shed reads as
// missing the limit, is within limitMS and whose backlog did not grow: the
// median latency of the stream's last quarter is at most twice that of its
// first quarter. 0 when no rate qualifies.
func maxRate(rates []float64, lats [][]float64, limitMS float64) float64 {
	best := 0.0
	for i, rate := range rates {
		l := lats[i]
		q := len(l) / 4
		growing := q > 0 && median(l[len(l)-q:]) > 2*median(l[:q])
		if orderStat(l, 0.99) <= limitMS && !growing && rate > best {
			best = rate
		}
	}
	return best
}

func imbalance(xs []float64) float64 {
	var sum, hi float64
	for _, x := range xs {
		sum += x
		hi = math.Max(hi, x)
	}
	return ratio(hi, sum/float64(len(xs)))
}

// probeSimnet times the simulation kernel alone: 64 processes each sleeping
// in a loop, so every event is one process handoff.
func probeSimnet(o *outcome) {
	const procs, sleeps = 64, 2000
	opts := ps2.DefaultOptions()
	opts.Executors, opts.Servers = 1, 1
	e := ps2.NewEngine(opts)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ev0 := e.Snapshot().Events
	t0 := time.Now()
	for i := 0; i < procs; i++ {
		e.Sim.Spawn("probe", func(p *ps2.Proc) {
			for j := 0; j < sleeps; j++ {
				p.Sleep(1e-3)
			}
		})
	}
	e.Sim.Run()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	events := float64(e.Snapshot().Events - ev0)
	o.values["simnet.probe_ns_per_event"] = ratio(float64(d.Nanoseconds()), events)
	o.values["simnet.probe_allocs_per_event"] = ratio(float64(m1.Mallocs-m0.Mallocs), events)
}

// writeTrace writes the traced pass's host spans (Chrome trace format) and
// CPU profile under rc.out, when set.
func writeTrace(rc runConfig, sp *spans, profile []byte) error {
	if rc.out == "" {
		return nil
	}
	if err := os.MkdirAll(rc.out, 0o755); err != nil {
		return err
	}
	base := filepath.Join(rc.out, fmt.Sprintf("%s-seed%d", rc.name, rc.seed))
	if err := sp.writeChrome(base + "-spans.json"); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(base+"-cpu.pprof", profile, 0o644); err != nil {
		return fmt.Errorf("write profile: %w", err)
	}
	return nil
}
