package main

import (
	"fmt"
	"regexp"
)

// metric declares one reported number. The table below is the benchmark's
// single declaration of its metrics; BENCHMARK.json carries the same names,
// units, directions and bounds (the self-test keeps the two in step), and
// README.md quotes the layer and moves columns.
type metric struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: allowed worsening, as a share of the parent's median
	layer  string  // per-layer only: the module(s) the number belongs to
	moves  string  // per-layer only: the end-to-end metric and workload it should move
}

// endToEnd is printed by every run with -trace 0. Each metric is defined on
// every workload and is never zero there.
var endToEnd = []metric{
	{name: "samples_per_s", unit: "1/s", better: "higher", bound: 0.24},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "final_loss", unit: "nats", better: "lower", bound: 0.24},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.2},
}

// perLayer is printed by every run with -trace 1. A layer a workload does not
// load reads 0: that zero is the prediction being checked.
var perLayer = []metric{
	// Workload-level numbers that exist on only some workloads, so they
	// cannot be end-to-end metrics (those must be non-zero everywhere).
	{name: "virtual_s", unit: "s", better: "lower", layer: "simnet cost model",
		moves: "nothing on the host clock; a change here is a cost-model change (lr-sync, deepwalk-fused, serve-mixed)"},
	{name: "read_p50_ms", unit: "ms", better: "lower", layer: "serve",
		moves: "serve-mixed reads at the middle rate; 0 elsewhere"},
	{name: "read_p99_ms", unit: "ms", better: "lower", layer: "serve",
		moves: "serve-mixed reads at the middle rate; 0 elsewhere"},
	{name: "read_samples", unit: "count", better: "higher", layer: "serve",
		moves: "sample count behind read_p50_ms and read_p99_ms"},
	{name: "read_max_rate", unit: "1/s", better: "higher", layer: "serve, admission",
		moves: "serve-mixed: highest swept rate meeting the p99 limit without a growing backlog"},
	{name: "reads_per_s", unit: "1/s", better: "higher", layer: "serve",
		moves: "serve-mixed: served reads per host second of the sweep"},
	{name: "failed_frac", unit: "fraction", better: "lower", layer: "all",
		moves: "serve-mixed (shed reads); 0 on a healthy run elsewhere"},
	{name: "trace.overhead_frac", unit: "fraction", better: "lower", layer: "benchmark tracing",
		moves: "1 - traced/untraced samples_per_s in this run"},

	{name: "simnet.events", unit: "count", better: "lower", layer: "simnet",
		moves: "samples_per_s on deepwalk-fused and lr-sync; 0 on wire-lr"},
	{name: "simnet.ns_per_event", unit: "ns", better: "lower", layer: "simnet",
		moves: "samples_per_s on deepwalk-fused and lr-sync"},
	{name: "simnet.cpu_share", unit: "fraction", better: "lower", layer: "simnet",
		moves: "samples_per_s on deepwalk-fused and lr-sync"},
	{name: "simnet.probe_ns_per_event", unit: "ns", better: "lower", layer: "simnet",
		moves: "samples_per_s on deepwalk-fused and lr-sync; no change on wire-lr"},
	{name: "simnet.probe_allocs_per_event", unit: "count", better: "lower", layer: "simnet",
		moves: "samples_per_s on deepwalk-fused and lr-sync; peak_rss_mb"},

	{name: "rdd.cpu_share", unit: "fraction", better: "lower", layer: "rdd",
		moves: "samples_per_s on lr-sync"},

	{name: "ml.cpu_share", unit: "fraction", better: "lower", layer: "ml",
		moves: "samples_per_s on lr-sync; little effect on deepwalk-fused"},
	{name: "ml.exec_core_s", unit: "s", better: "lower", layer: "ml",
		moves: "virtual_s on lr-sync (virtual executor core seconds per round)"},

	{name: "ps.rpc_calls", unit: "count", better: "lower", layer: "ps",
		moves: "samples_per_s on deepwalk-fused, then lr-sync; virtual_s"},
	{name: "ps.rpc_attempts", unit: "count", better: "lower", layer: "ps",
		moves: "samples_per_s on deepwalk-fused, then lr-sync"},
	{name: "ps.ns_per_rpc", unit: "ns", better: "lower", layer: "ps",
		moves: "samples_per_s on deepwalk-fused, then lr-sync"},
	{name: "ps.transport_mb", unit: "MB", better: "lower", layer: "ps",
		moves: "virtual_s on all simulated workloads"},
	{name: "ps.cpu_share", unit: "fraction", better: "lower", layer: "ps",
		moves: "samples_per_s on deepwalk-fused, then lr-sync"},
	{name: "ps.server_core_s", unit: "s", better: "lower", layer: "ps",
		moves: "virtual_s on deepwalk-fused (virtual server core seconds per round)"},
	{name: "ps.ops_imbalance", unit: "ratio", better: "lower", layer: "ps",
		moves: "virtual_s (busiest server's ops over the mean)"},

	{name: "dcv.fused_batches", unit: "count", better: "lower", layer: "dcv",
		moves: "samples_per_s and virtual_s on deepwalk-fused"},
	{name: "dcv.fused_ops", unit: "count", better: "higher", layer: "dcv",
		moves: "samples_per_s and virtual_s on deepwalk-fused"},
	{name: "dcv.cpu_share", unit: "fraction", better: "lower", layer: "dcv",
		moves: "samples_per_s and virtual_s on deepwalk-fused"},

	{name: "linalg.cpu_share", unit: "fraction", better: "lower", layer: "linalg, par, arena",
		moves: "samples_per_s on deepwalk-fused"},
	{name: "par.calls", unit: "count", better: "lower", layer: "par",
		moves: "samples_per_s once a vector reaches par.MinParallel; 0 on all four workloads at their sizes"},
	{name: "par.parallel_frac", unit: "fraction", better: "higher", layer: "par",
		moves: "samples_per_s once a vector reaches par.MinParallel; 0 on all four workloads at their sizes"},
	{name: "go.alloc_mb", unit: "MB", better: "lower", layer: "linalg, par, arena",
		moves: "peak_rss_mb everywhere; samples_per_s on deepwalk-fused"},
	{name: "go.gc_cycles", unit: "count", better: "lower", layer: "linalg, par, arena",
		moves: "peak_rss_mb everywhere; samples_per_s on deepwalk-fused"},
	{name: "go.gc_cpu_share", unit: "fraction", better: "lower", layer: "go runtime GC",
		moves: "samples_per_s everywhere"},

	{name: "cache.hit_frac", unit: "fraction", better: "higher", layer: "cache",
		moves: "samples_per_s and virtual_s on serve-mixed; 0 on lr-sync"},
	{name: "cache.pulled_mb", unit: "MB", better: "lower", layer: "cache",
		moves: "virtual_s on serve-mixed; 0 on lr-sync"},
	{name: "cache.saved_frac", unit: "fraction", better: "higher", layer: "cache",
		moves: "virtual_s on serve-mixed; 0 on lr-sync"},
	{name: "cache.combined_pushes", unit: "count", better: "higher", layer: "cache",
		moves: "virtual_s on serve-mixed; 0 on lr-sync"},
	{name: "cache.flushed_mb", unit: "MB", better: "lower", layer: "cache",
		moves: "virtual_s on serve-mixed; 0 on lr-sync"},
	{name: "consistency.served_cached", unit: "count", better: "higher", layer: "consistency",
		moves: "samples_per_s and read_p99_ms on serve-mixed; 0 on lr-sync"},
	{name: "consistency.revalidated", unit: "count", better: "lower", layer: "consistency",
		moves: "read_p99_ms on serve-mixed; 0 on lr-sync"},
	{name: "consistency.hard_pulled", unit: "count", better: "lower", layer: "consistency",
		moves: "read_p99_ms on serve-mixed; 0 on lr-sync"},
	{name: "consistency.cpu_share", unit: "fraction", better: "lower", layer: "consistency",
		moves: "samples_per_s on serve-mixed; 0 on lr-sync"},

	{name: "serve.reads", unit: "count", better: "higher", layer: "serve",
		moves: "reads_per_s and failed_frac on serve-mixed"},
	{name: "serve.us_per_read", unit: "us", better: "lower", layer: "serve",
		moves: "reads_per_s on serve-mixed"},
	{name: "replica.local_frac", unit: "fraction", better: "higher", layer: "replica",
		moves: "read_p99_ms and read_max_rate on serve-mixed"},
	{name: "admission.admitted", unit: "count", better: "higher", layer: "admission",
		moves: "failed_frac on serve-mixed"},
	{name: "admission.delayed", unit: "count", better: "lower", layer: "admission",
		moves: "read_p99_ms on serve-mixed"},
	{name: "admission.queue_delay_s", unit: "s", better: "lower", layer: "admission",
		moves: "read_p99_ms on serve-mixed"},
	{name: "admission.max_queue", unit: "count", better: "lower", layer: "admission",
		moves: "read_p99_ms and read_max_rate on serve-mixed"},
	{name: "admission.shed_serve", unit: "count", better: "lower", layer: "admission",
		moves: "failed_frac and read_max_rate on serve-mixed"},
	{name: "admission.shed_train", unit: "count", better: "lower", layer: "admission",
		moves: "the push stream beside the reads on serve-mixed"},

	{name: "wire.calls", unit: "count", better: "lower", layer: "wire",
		moves: "samples_per_s on wire-lr; 0 elsewhere"},
	{name: "wire.attempts", unit: "count", better: "lower", layer: "wire",
		moves: "samples_per_s on wire-lr; 0 elsewhere"},
	{name: "wire.timeouts", unit: "count", better: "lower", layer: "wire",
		moves: "samples_per_s on wire-lr; 0 elsewhere"},
	{name: "wire.mb", unit: "MB", better: "lower", layer: "wire",
		moves: "samples_per_s on wire-lr; 0 elsewhere"},
	{name: "wire.us_per_call", unit: "us", better: "lower", layer: "wire",
		moves: "samples_per_s on wire-lr; 0 elsewhere"},
	{name: "wire.dedup_replays", unit: "count", better: "lower", layer: "wire",
		moves: "samples_per_s on wire-lr; 0 elsewhere"},
	{name: "wire.server_cpu_s", unit: "s", better: "lower", layer: "wire",
		moves: "samples_per_s and peak_rss_mb on wire-lr; 0 elsewhere"},
	{name: "wire.worker_cpu_s", unit: "s", better: "lower", layer: "wire",
		moves: "samples_per_s on wire-lr; 0 elsewhere"},

	{name: "go.sched_cpu_share", unit: "fraction", better: "lower", layer: "go runtime scheduler",
		moves: "samples_per_s on the simulated workloads"},
	{name: "other.cpu_share", unit: "fraction", better: "lower", layer: "everything else",
		moves: "the remainder, so that the shares sum to 1"},

	{name: "trace.comm_s", unit: "s", better: "lower", layer: "traced phases",
		moves: "virtual_s"},
	{name: "trace.wait_s", unit: "s", better: "lower", layer: "traced phases",
		moves: "virtual_s"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkMetrics validates the declarations against the result format's rules.
func checkMetrics() error {
	seen := map[string]bool{}
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.name) {
				return fmt.Errorf("metric name %q is not valid", m.name)
			}
			if !unitRE.MatchString(m.unit) {
				return fmt.Errorf("metric %s: unit %q is not valid", m.name, m.unit)
			}
			if m.better != "higher" && m.better != "lower" {
				return fmt.Errorf("metric %s: better must be higher or lower, got %q", m.name, m.better)
			}
			if seen[m.name] {
				return fmt.Errorf("metric %s is declared twice", m.name)
			}
			seen[m.name] = true
		}
	}
	for _, m := range endToEnd {
		if m.bound <= 0 || m.bound > 0.25 {
			return fmt.Errorf("metric %s: bound %g outside (0, 0.25]", m.name, m.bound)
		}
	}
	for _, m := range perLayer {
		if m.layer == "" || m.moves == "" {
			return fmt.Errorf("metric %s: a per-layer metric needs its layer and what it moves", m.name)
		}
	}
	return nil
}
