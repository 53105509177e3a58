package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// wire-lr: multi-process LR over real sockets. Every ps2worker invocation
// gets two fresh ps2serve processes (a reused server keeps the previous
// invocation's weights), which are always torn down afterwards. The jobs
// rotate over wireDatasets datasets drawn from the seed, and final_loss is
// the median of their losses: ps2worker's generator puts most of the signal
// on a few hot features, so the loss of a single dataset swings widely from
// seed to seed.

const (
	wireServers   = 2
	wireIters     = 400
	wireBatch     = 256
	wireRows      = 20000
	wireDim       = 20000
	wireLossBound = 0.6
	wireDatasets  = 3
	// bannerTimeout bounds how long a server may take to print its address.
	bannerTimeout = 20 * time.Second
	// stopTimeout bounds a graceful shutdown before the server is killed.
	stopTimeout = 5 * time.Second
)

// server is one running ps2serve process.
type server struct {
	cmd   *exec.Cmd
	addr  string
	lines chan string   // stdout lines after the banner; closed at EOF
	done  chan struct{} // closed once the process has been waited for
}

// startServer launches ps2serve on a free loopback port and returns once it
// has printed the address it listens on.
func startServer(bin string) (*server, error) {
	cmd := exec.Command(filepath.Join(bin, "ps2serve"), "-addr", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = childAttr()
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start ps2serve: %w", err)
	}
	s := &server{cmd: cmd, lines: make(chan string), done: make(chan struct{})}
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			s.lines <- sc.Text()
		}
		close(s.lines)
		_ = cmd.Wait() // the exit status is read from ProcessState
		close(s.done)
	}()
	const banner = "ps2serve listening on "
	select {
	case line, ok := <-s.lines:
		if ok && strings.HasPrefix(line, banner) {
			s.addr = strings.TrimSpace(strings.TrimPrefix(line, banner))
			return s, nil
		}
		s.stop()
		return nil, fmt.Errorf("ps2serve printed %q, not its address", line)
	case <-time.After(bannerTimeout):
		s.stop()
		return nil, errors.New("ps2serve printed no address")
	}
}

// stop shuts the server down (SIGTERM, then SIGKILL after stopTimeout),
// waits for it to exit, and returns the lines it printed after the banner.
func (s *server) stop() []string {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	var lines []string
	timeout := time.After(stopTimeout)
	killed := false
	for {
		select {
		case line, ok := <-s.lines:
			if !ok {
				<-s.done
				return lines
			}
			lines = append(lines, line)
		case <-timeout:
			if killed {
				// Killed, yet its stdout stays open: something else holds
				// the pipe. The server itself is gone.
				return lines
			}
			_ = s.cmd.Process.Kill()
			killed = true
			timeout = time.After(stopTimeout)
		}
	}
}

// usage returns an exited process's peak RSS in MB and CPU seconds.
func usage(st *os.ProcessState) (rssMB, cpuS float64) {
	if st == nil {
		return 0, 0
	}
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) * 1024 / 1e6
	}
	return rssMB, (st.UserTime() + st.SystemTime()).Seconds()
}

// startServers starts n fresh servers; on error every one already started
// is torn down.
func startServers(bin string, n int) ([]*server, error) {
	var srvs []*server
	for i := 0; i < n; i++ {
		s, err := startServer(bin)
		if err != nil {
			stopAll(srvs)
			return nil, err
		}
		srvs = append(srvs, s)
	}
	return srvs, nil
}

func stopAll(srvs []*server) [][]string {
	out := make([][]string, len(srvs))
	for i, s := range srvs {
		out[i] = s.stop()
	}
	return out
}

// workerRun is one ps2worker invocation's parsed report.
type workerRun struct {
	dataset    int     // which of the seed's datasets the job trained on
	loss       string  // final full-dataset loss as printed
	wall       float64 // seconds of training, as the worker timed it
	calls      float64
	attempts   float64
	timeouts   float64
	mb         float64
	virtual    float64 // simnet replay's virtual seconds (-compare-simnet)
	cpuS       float64 // worker process CPU seconds
	serverRSS  float64 // largest server peak RSS, MB
	serverCPU  float64 // CPU seconds summed over the servers
	dedup      float64 // replays the servers answered from their dedup cache
	setup      time.Duration
	checkError error
}

// runWorker starts fresh servers, runs one ps2worker job on the given
// dataset against them and tears them down, whatever happens.
func runWorker(rc runConfig, dataset int, compare bool, sp *spans, parent spanID) (*workerRun, error) {
	t0 := time.Now()
	setupSpan := sp.begin("setup.servers", parent)
	srvs, err := startServers(rc.bin, wireServers)
	sp.end(setupSpan)
	if err != nil {
		return nil, err
	}
	w := &workerRun{dataset: dataset, setup: time.Since(t0)}
	addrs := make([]string, len(srvs))
	for i, s := range srvs {
		addrs[i] = s.addr
	}
	args := []string{
		"-servers", strings.Join(addrs, ","),
		"-iters", strconv.Itoa(wireIters), "-batch", strconv.Itoa(wireBatch),
		"-rows", strconv.Itoa(wireRows), "-dim", strconv.Itoa(wireDim),
		"-seed", strconv.FormatUint(derive(rc.seed, 1+uint64(dataset)), 10),
		"-assert-loss", strconv.FormatFloat(wireLossBound, 'g', -1, 64),
	}
	if compare {
		args = append(args, "-compare-simnet")
	}
	cmd := exec.Command(filepath.Join(rc.bin, "ps2worker"), args...)
	cmd.SysProcAttr = childAttr()
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	id := sp.begin("ps2worker", parent)
	runErr := cmd.Run()
	sp.end(id)
	_, w.cpuS = usage(cmd.ProcessState)
	tail := stopAll(srvs)
	for i, s := range srvs {
		rss, cpu := usage(s.cmd.ProcessState)
		w.serverCPU += cpu
		if rss > w.serverRSS {
			w.serverRSS = rss
		}
		for _, line := range tail[i] {
			var reqs, dedup float64
			if _, err := fmt.Sscanf(line, "ps2serve served %g requests (%g dedup replays)", &reqs, &dedup); err == nil {
				w.dedup += dedup
			}
		}
	}
	if runErr != nil {
		w.checkError = fmt.Errorf("ps2worker: %v: %s", runErr, strings.TrimSpace(stderr.String()))
		return w, nil
	}
	if err := w.parse(&stdout, compare); err != nil {
		w.checkError = err
	}
	return w, nil
}

// parse reads the worker's summary lines.
func (w *workerRun) parse(r io.Reader, compare bool) error {
	var haveLoss, haveRPC, haveSim bool
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		var n int
		switch {
		case strings.HasPrefix(line, "final full-dataset loss "):
			if _, err := fmt.Sscanf(line, "final full-dataset loss %s over %d servers in %gs wall", &w.loss, &n, &w.wall); err != nil {
				return fmt.Errorf("ps2worker summary %q: %w", line, err)
			}
			haveLoss = true
		case strings.HasPrefix(line, "rpc: "):
			if _, err := fmt.Sscanf(line, "rpc: %g calls (%g attempts, %g timeouts), %g MB moved",
				&w.calls, &w.attempts, &w.timeouts, &w.mb); err != nil {
				return fmt.Errorf("ps2worker rpc line %q: %w", line, err)
			}
			haveRPC = true
		case strings.HasPrefix(line, "simnet reference: "):
			i := strings.Index(line, "(virtual wall ")
			if i < 0 {
				return fmt.Errorf("ps2worker simnet line %q", line)
			}
			if _, err := fmt.Sscanf(line[i:], "(virtual wall %gs", &w.virtual); err != nil {
				return fmt.Errorf("ps2worker simnet line %q: %w", line, err)
			}
			haveSim = true
		}
	}
	if !haveLoss || !haveRPC || (compare && !haveSim) || w.wall <= 0 {
		return errors.New("ps2worker printed an incomplete summary")
	}
	return nil
}

// wireLR runs the timed rounds, each one worker job on fresh servers, and
// then one job with the simnet comparison, outside the timed phase. With
// tracing it runs an untraced and a traced half and reports the layers.
func wireLR(rc runConfig) (*outcome, error) {
	if rc.bin == "" {
		return nil, errors.New("wire-lr needs -bin, the directory holding ps2serve and ps2worker")
	}
	o := &outcome{values: map[string]float64{}}
	if !rc.trace {
		runs, err := wireRounds(rc, rc.seconds, 3, nil)
		if err != nil {
			return nil, err
		}
		loss, _, err := wireReference(rc, o, runs)
		if err != nil {
			return nil, err
		}
		var setup, rss []float64
		for _, w := range runs {
			setup = append(setup, w.setup.Seconds())
			rss = append(rss, w.serverRSS)
		}
		o.values["samples_per_s"] = wireSamplesPerSec(runs)
		o.values["setup_s"] = median(setup)
		o.values["final_loss"] = loss
		o.values["peak_rss_mb"] = median(rss)
		return o, nil
	}
	plain, err := wireRounds(rc, rc.seconds/2, 2, nil)
	if err != nil {
		return nil, err
	}
	sp := newSpans()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	traced, err := wireRounds(rc, rc.seconds/2, 2, sp)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	_, virtual, err := wireReference(rc, o, append(plain, traced...))
	if err != nil {
		return nil, err
	}
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	v := o.values
	for _, m := range perLayer {
		v[m.name] = 0 // no engine in this process: the simulated layers see no traffic
	}
	cpuShares(v, shares(samples))
	probeSimnet(o)
	v["virtual_s"] = virtual
	v["trace.overhead_frac"] = 1 - wireSamplesPerSec(traced)/wireSamplesPerSec(plain)
	var wall float64
	for _, w := range plain {
		v["wire.calls"] += w.calls
		v["wire.attempts"] += w.attempts
		v["wire.timeouts"] += w.timeouts
		v["wire.mb"] += w.mb
		v["wire.dedup_replays"] += w.dedup
		v["wire.server_cpu_s"] += w.serverCPU
		v["wire.worker_cpu_s"] += w.cpuS
		wall += w.wall
	}
	v["wire.us_per_call"] = ratio(wall*1e6, v["wire.calls"])
	for _, k := range []string{"wire.calls", "wire.attempts", "wire.timeouts", "wire.mb", "wire.dedup_replays", "wire.server_cpu_s", "wire.worker_cpu_s"} {
		v[k] /= float64(len(plain)) // per job
	}
	v["failed_frac"] = ratio(float64(o.failed), float64(o.attempted))
	return o, writeTrace(rc, sp, prof.Bytes())
}

// wireRounds runs worker jobs, rotating over the datasets, until seconds
// have passed and at least minRounds are done.
func wireRounds(rc runConfig, seconds float64, minRounds int, sp *spans) ([]*workerRun, error) {
	var runs []*workerRun
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(runs) < minRounds || time.Now().Before(deadline) {
		round := sp.begin("round", 0)
		w, err := runWorker(rc, len(runs)%wireDatasets, false, sp, round)
		sp.end(round)
		if err != nil {
			return nil, err
		}
		runs = append(runs, w)
	}
	return runs, nil
}

// wireReference runs the job on every dataset once more with
// -compare-simnet, outside the timed phase, and checks every timed job
// against its dataset's reference: each must have passed the loss bound and
// printed the reference's final loss exactly. It returns the median final
// loss over the datasets and the median virtual seconds of the replays.
func wireReference(rc runConfig, o *outcome, runs []*workerRun) (loss, virtual float64, err error) {
	var losses, virtuals []float64
	for d := 0; d < wireDatasets; d++ {
		ref, err := runWorker(rc, d, true, nil, 0)
		if err != nil {
			return 0, 0, err
		}
		o.attempted++
		if ref.checkError != nil {
			o.failed++
			fmt.Fprintf(os.Stderr, "perfbench: dataset %d: simnet comparison: %v\n", d, ref.checkError)
			continue
		}
		l, err := strconv.ParseFloat(ref.loss, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("ps2worker final loss %q: %w", ref.loss, err)
		}
		losses = append(losses, l)
		virtuals = append(virtuals, ref.virtual)
		for i, w := range runs {
			if w.dataset == d && w.checkError == nil && w.loss != ref.loss {
				o.failed++
				fmt.Fprintf(os.Stderr, "perfbench: round %d: final loss %s differs from the reference %s\n", i, w.loss, ref.loss)
			}
		}
	}
	o.attempted += len(runs)
	for i, w := range runs {
		if w.checkError != nil {
			o.failed++
			fmt.Fprintf(os.Stderr, "perfbench: round %d: %v\n", i, w.checkError)
		}
	}
	if len(losses) == 0 {
		return 0, 0, errors.New("no reference job passed its checks")
	}
	return median(losses), median(virtuals), nil
}

// wireSamplesPerSec is the median over jobs of training samples per second
// of the worker's own training wall time.
func wireSamplesPerSec(runs []*workerRun) float64 {
	var xs []float64
	for _, w := range runs {
		if w.checkError == nil {
			xs = append(xs, wireIters*wireBatch/w.wall)
		}
	}
	return median(xs)
}
