package main

import (
	"bufio"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// TestSigtermRightAfterBanner: the banner promises a running server, so a
// SIGTERM sent the moment it appears must shut down cleanly — exit status 0
// and the summary line — rather than kill the process with the default
// signal action.
func TestSigtermRightAfterBanner(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := filepath.Join(t.TempDir(), "ps2serve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// The window between banner and handler is microseconds wide; a few
	// rounds make a regression fail every time rather than sometimes.
	for i := 0; i < 10; i++ {
		cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(stdout)
		banner, err := r.ReadString('\n')
		if err != nil || !strings.HasPrefix(banner, "ps2serve listening on ") {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			t.Fatalf("banner %q, err %v", banner, err)
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		rest, _ := io.ReadAll(r)
		if err := cmd.Wait(); err != nil {
			t.Fatalf("round %d: SIGTERM right after the banner: %v (want exit status 0)", i, err)
		}
		if !strings.HasPrefix(string(rest), "ps2serve served ") {
			t.Fatalf("round %d: no summary after SIGTERM, got %q", i, rest)
		}
	}
}
