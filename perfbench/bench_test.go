package main

// Self-tests for the pieces of the benchmark a silent bug would corrupt:
// the metric declarations against BENCHMARK.json, the percentile order
// statistic, the CPU-profile decoding and layer attribution, the parsing of
// ps2worker's report, and the teardown of ps2serve processes.

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/linalg"
)

func TestMetricDeclarationsMatchBenchmarkJSON(t *testing.T) {
	if err := checkMetrics(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	var names []string
	for _, w := range doc.Workloads {
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames())
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program declares %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		j := doc.EndToEnd[i]
		if j.Name != m.name || j.Unit != m.unit || j.Better != m.better || j.Bound != m.bound {
			t.Errorf("end_to_end[%d] = %+v, declared %+v", i, j, m)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program declares %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		j := doc.PerLayer[i]
		if j.Name != m.name || j.Unit != m.unit || j.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, declared %+v", i, j, m)
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range perLayer {
		row := "| `" + m.name + "` | " + m.unit + " | " + m.layer + " | " + m.moves + " |"
		if !strings.Contains(string(readme), row) {
			t.Errorf("README.md lacks the row %s", row)
		}
	}
	var setup float64
	for _, m := range endToEnd {
		if m.name == "setup_s" {
			setup = m.bound
		}
	}
	for _, m := range endToEnd {
		if m.name != "setup_s" && m.bound >= setup {
			t.Errorf("setup_s must have the largest bound; %s has %g >= %g", m.name, m.bound, setup)
		}
	}
}

func TestMetricNameRules(t *testing.T) {
	for name, ok := range map[string]bool{
		"samples_per_s": true, "ps.ns_per_rpc": true, "9lives": true, "a-b.c_d": true,
		"": false, "_x": false, ".x": false, "has space": false, "per/sec": false,
		strings.Repeat("x", 64): true, strings.Repeat("x", 65): false,
	} {
		if nameRE.MatchString(name) != ok {
			t.Errorf("name %q valid = %v, want %v", name, !ok, ok)
		}
	}
	for unit, ok := range map[string]bool{"ms": true, "1/s": true, "%": true, "count": true, "MB": true, "a b": false, "": false} {
		if unitRE.MatchString(unit) != ok {
			t.Errorf("unit %q valid = %v, want %v", unit, !ok, ok)
		}
	}
}

func TestOrderStatistic(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- { // unsorted input
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {0.01, 1}, {1, 100}, {0, 1}} {
		if got := orderStat(xs, c.q); got != c.want {
			t.Errorf("orderStat(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("orderStat sorted its input in place")
	}
	// 2 of 100 reads never completed: the p99 is one of them.
	xs[0], xs[1] = math.Inf(1), math.Inf(1)
	if got := orderStat(xs, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 2%% missing = %g, want +Inf", got)
	}
	if got := orderStat([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample p99 = %g", got)
	}
	if !math.IsNaN(orderStat(nil, 0.5)) {
		t.Error("orderStat of no samples is not NaN")
	}
	if median([]float64{3, 1, 2}) != 2 || median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Error("median is wrong")
	}
}

func TestMaxRate(t *testing.T) {
	flat := func(n int, v float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = v
		}
		return xs
	}
	growing := make([]float64, 100)
	for i := range growing {
		growing[i] = 0.1 * float64(i+1) // p99 9.9 ms, but the queue keeps growing
	}
	shed := flat(100, 1)
	shed[3], shed[50] = math.Inf(1), math.Inf(1)
	rates := []float64{100, 200, 300}
	for _, c := range []struct {
		lats [][]float64
		want float64
	}{
		{[][]float64{flat(100, 1), flat(100, 2), flat(100, 30)}, 200},
		{[][]float64{flat(100, 1), growing, flat(100, 1)}, 300}, // not monotone: highest passing rate
		{[][]float64{flat(100, 1), growing, flat(100, 30)}, 100},
		{[][]float64{shed, flat(100, 30), flat(100, 30)}, 0},
	} {
		if got := maxRate(rates, c.lats, 10); got != c.want {
			t.Errorf("maxRate = %g, want %g", got, c.want)
		}
	}
}

func TestAttribution(t *testing.T) {
	for _, c := range []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"runtime.mapassign_fast64", "repro/internal/ml/lr.DistinctIndices", "repro/internal/ml/lr.Train.func1", "repro/internal/rdd.runAttempt[...]"}, "ml"},
		{[]string{"repro/internal/linalg.Dot", "repro/internal/ps.(*Shard).apply", "repro/internal/par.Range.func1"}, "linalg"},
		{[]string{"repro/internal/par.(*pool).worker", "runtime.goexit"}, "linalg"},
		{[]string{"repro/internal/ps.(*Shard).touchAll", "repro/internal/dcv.(*Batch).Run"}, "ps"},
		{[]string{"runtime.chanrecv", "repro/internal/simnet.(*Proc).yield", "repro/internal/simnet.(*Proc).Sleep"}, "simnet"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, bucketSched},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.gcBgMarkWorker"}, bucketGC},
		{[]string{"runtime.scanobject", "runtime.gcAssistAlloc1", "runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/ps.(*Matrix).PullRows"}, bucketGC},
		{[]string{"repro/internal/consistency.(*ValueBounded).Admit", "repro/internal/ps.(*CachedClient).PullRowIndices"}, "consistency"},
		{[]string{"repro/internal/obs.(*Tracer).Begin", "repro/internal/ps.(*Matrix).call"}, bucketOther},
		{[]string{"repro.TrainLogistic", "main.run"}, bucketOther},
		{[]string{"sort.Ints", "main.zipfIndices"}, bucketOther},
		{[]string{"repro/internal/wire.(*Client).Call"}, bucketOther},
	} {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
	got := shares([]profSample{{[]string{"repro/internal/ps.f"}, 30}, {[]string{"runtime.futex"}, 10}})
	if got["ps"] != 0.75 || got[bucketSched] != 0.25 {
		t.Errorf("shares = %v", got)
	}
}

// TestProfileDecoding profiles a loop that spends its time in linalg.Dot and
// checks that the decoded profile charges most of it to the linalg layer.
func TestProfileDecoding(t *testing.T) {
	if raceEnabled {
		// The profiler cannot unwind the race runtime's C frames, so most
		// samples arrive without the Go caller that would name the layer.
		t.Skip("CPU profile stacks are truncated under the race detector")
	}
	a, b := make([]float64, 4096), make([]float64, 4096)
	for i := range a {
		a[i], b[i] = float64(i), 1/float64(i+1)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	var sink float64
	for start := time.Now(); time.Since(start) < 400*time.Millisecond; {
		sink += linalg.Dot(a, b)
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples decoded")
	}
	if s := shares(samples)["linalg"]; s < 0.5 {
		t.Errorf("linalg share %.2f of a Dot loop (sink %g)", s, sink)
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}

func TestParseWorkerReport(t *testing.T) {
	out := `iter   0  loss 0.693147
iter 399  loss 0.301234
final full-dataset loss 0.367282 over 2 servers in 0.424s wall
rpc: 2404 calls (2404 attempts, 0 timeouts), 10.83 MB moved, 5666 calls/s, 25.52 MB/s
simnet reference: trajectories agree to 1e-09 (virtual wall 0.223s, 2402 RPCs)
`
	var w workerRun
	if err := w.parse(strings.NewReader(out), true); err != nil {
		t.Fatal(err)
	}
	if w.loss != "0.367282" || w.wall != 0.424 || w.calls != 2404 || w.attempts != 2404 || w.timeouts != 0 || w.mb != 10.83 || w.virtual != 0.223 {
		t.Errorf("parsed %+v", w)
	}
	var w2 workerRun
	if err := w2.parse(strings.NewReader(strings.SplitN(out, "simnet", 2)[0]), true); err == nil {
		t.Error("a report without the simnet comparison passed a comparison run")
	}
}

// buildServe builds ps2serve and ps2worker from source into a temporary
// directory.
func buildServe(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "repro/cmd/ps2serve", "repro/cmd/ps2worker")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build ps2serve: %v\n%s", err, out)
	}
	return dir
}

func TestServerTeardown(t *testing.T) {
	bin := buildServe(t)
	srvs, err := startServers(bin, 2)
	if err != nil {
		t.Fatal(err)
	}
	// A short training job, as in wire-lr: once a server has answered, it
	// handles SIGTERM and prints its summary on the way out.
	addrs := []string{srvs[0].addr, srvs[1].addr}
	job := exec.Command(filepath.Join(bin, "ps2worker"), "-servers", strings.Join(addrs, ","),
		"-iters", "2", "-batch", "16", "-rows", "200", "-dim", "100")
	if out, err := job.CombinedOutput(); err != nil {
		stopAll(srvs)
		t.Fatalf("ps2worker against %v: %v\n%s", addrs, err, out)
	}
	tails := stopAll(srvs)
	for i, s := range srvs {
		if s.cmd.ProcessState == nil {
			t.Fatalf("server %d was not waited for", i)
		}
		if !strings.Contains(strings.Join(tails[i], "\n"), "ps2serve served") {
			t.Errorf("server %d exited without its summary: %q", i, tails[i])
		}
		if c, err := net.DialTimeout("tcp", s.addr, time.Second); err == nil {
			c.Close()
			t.Errorf("server %d still accepts connections at %s after teardown", i, s.addr)
		}
	}
}

// TestServerTeardownOnStartFailure starts two servers where the second one
// prints no address: startServers must fail and tear the first one down.
func TestServerTeardownOnStartFailure(t *testing.T) {
	real := buildServe(t)
	dir := t.TempDir()
	pidFile := filepath.Join(dir, "first.pid")
	script := "#!/bin/sh\n" +
		"if [ -e " + pidFile + " ]; then echo 'no banner here'; exec sleep 30; fi\n" +
		"echo $$ > " + pidFile + "\n" +
		"exec " + filepath.Join(real, "ps2serve") + " \"$@\"\n"
	if err := os.WriteFile(filepath.Join(dir, "ps2serve"), []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := startServers(dir, 2)
	if err == nil {
		t.Fatal("startServers succeeded although the second server printed no address")
	}
	if time.Since(start) > bannerTimeout {
		t.Errorf("teardown took %v", time.Since(start))
	}
	raw, err := os.ReadFile(pidFile)
	if err != nil {
		t.Fatal(err)
	}
	var pid int
	for _, c := range strings.TrimSpace(string(raw)) {
		pid = pid*10 + int(c-'0')
	}
	if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
		t.Errorf("first server (pid %d) is still running after the failed start: %v", pid, err)
	}
}
