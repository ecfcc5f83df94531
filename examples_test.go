package escape

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// goTool locates the go command (the same toolchain running the tests).
func goTool(t *testing.T) string {
	t.Helper()
	path, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go tool not on PATH: %v", err)
	}
	return path
}

// TestExamplesBuild compiles every examples/* program so the examples can
// no longer rot silently when APIs move underneath them.
func TestExamplesBuild(t *testing.T) {
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	gobin := goTool(t)
	tmp := t.TempDir()
	n := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		n++
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command(gobin, "build", "-o", filepath.Join(tmp, name), "./examples/"+name)
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("go build ./examples/%s: %v\n%s", name, err, out)
			}
		})
	}
	if n == 0 {
		t.Fatal("no example programs found under examples/")
	}
}

// TestQuickstartEndToEnd runs the quickstart example as a real
// subprocess: infrastructure up, chain deployed, ping through it,
// monitoring read, teardown.
func TestQuickstartEndToEnd(t *testing.T) {
	gobin := goTool(t)
	cmd := exec.Command(gobin, "run", "./examples/quickstart")
	done := make(chan struct{})
	var out []byte
	var err error
	go func() {
		out, err = cmd.CombinedOutput()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Minute):
		_ = cmd.Process.Kill()
		<-done
		t.Fatalf("quickstart did not finish in time\n%s", out)
	}
	if err != nil {
		t.Fatalf("quickstart failed: %v\n%s", err, out)
	}
	for _, want := range []string{
		"infrastructure up",
		"deployed \"quickstart\"",
		"ping through the chain",
		"service torn down, resources released",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("quickstart output missing %q:\n%s", want, out)
		}
	}
}

// TestScaleExampleEndToEnd runs the scale example (small parameters):
// high-concurrency optimistic admission on a fat-tree view, throughput
// and path-cache counters, exact view restore.
func TestScaleExampleEndToEnd(t *testing.T) {
	gobin := goTool(t)
	cmd := exec.Command(gobin, "run", "./examples/scale", "-k", "4", "-conc", "8", "-n", "64")
	done := make(chan struct{})
	var out []byte
	var err error
	go func() {
		out, err = cmd.CombinedOutput()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Minute):
		_ = cmd.Process.Kill()
		<-done
		t.Fatalf("scale example did not finish in time\n%s", out)
	}
	if err != nil {
		t.Fatalf("scale example failed: %v\n%s", err, out)
	}
	for _, want := range []string{
		"admitted 64 chains",
		"admission stats:",
		"path cache:",
		"view restored exactly after release",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("scale output missing %q:\n%s", want, out)
		}
	}
}
