// Command perfbench is the repository's host-time benchmark. It runs one
// named workload against the system, checks the outputs, and prints one JSON
// object as the last line of standard output: the end-to-end metrics, or
// with -trace 1 the per-layer metrics of a separate traced run. README.md
// explains the workloads, the metrics and what each layer metric should
// move; run.py builds this program and the ps2serve/ps2worker binaries from
// source and then runs it.
//
//	perfbench -workload lr-sync -seed 1 -seconds 10 -trace 0 -bin <dir> -out <dir>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"syscall"
)

type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	bin     string // directory holding ps2serve and ps2worker
	out     string // directory for the traced run's spans and CPU profile
	name    string
}

// outcome is a run's checked result: the operations attempted, those whose
// check failed, and the metric values.
type outcome struct {
	attempted, failed int
	values            map[string]float64
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"lr-sync":        simWorkload(lrSync),
	"deepwalk-fused": simWorkload(deepwalkFused),
	"serve-mixed":    simWorkload(serveMixed),
	"wire-lr":        wireLR,
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: lr-sync, deepwalk-fused, serve-mixed or wire-lr")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	bin := fs.String("bin", "", "directory holding the ps2serve and ps2worker binaries (wire-lr)")
	out := fs.String("out", "", "directory for the traced run's spans and CPU profile (empty: not written)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := checkMetrics(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	w, ok := workloads[*workload]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %v), -trace 0|1 and -seconds > 0\n", workloadNames())
		return 2
	}
	o, err := w(runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, bin: *bin, out: *out, name: *workload})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	line, err := o.result(*trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	fmt.Println(line)
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result renders the outcome as the benchmark's result line. Every declared
// metric of the chosen list must have a finite value.
func (o *outcome) result(traced bool) (string, error) {
	list := endToEnd
	if traced {
		list = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range list {
		v, ok := o.values[m.name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is not finite: %v", m.name, v)
		}
		metrics[m.name] = value{v, m.unit}
	}
	if o.attempted < 1 {
		return "", fmt.Errorf("no operation was attempted")
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, metrics})
	return string(b), err
}

// peakRSSMB is this process's peak resident set size (Linux reports ru_maxrss
// in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}
