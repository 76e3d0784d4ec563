package main

import (
	"context"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildCLIs builds fsdep and fsdepd from the enclosing repository, and
// peakrss.
func buildCLIs(t *testing.T) string {
	t.Helper()
	bin := t.TempDir() + string(filepath.Separator)
	for _, b := range []struct{ dir, pkgs string }{{"..", "./cmd/fsdep ./cmd/fsdepd"}, {".", "./peakrss"}} {
		cmd := exec.Command("go", append([]string{"build", "-o", bin}, strings.Fields(b.pkgs)...)...)
		cmd.Dir = b.dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", b.pkgs, err, out)
		}
	}
	return bin
}

func smokeConfig(t *testing.T, bin, workload string, traced bool) config {
	return config{
		workload: workload, seed: 1, duration: time.Second, trace: traced,
		bin: bin, work: t.TempDir(), outDir: t.TempDir(),
		rungs: []float64{100, 200}, setups: 2,
	}
}

// TestSmoke runs every workload for about a second, untraced and
// traced, on a two-rung ladder, and checks that each run emits exactly
// the metrics BENCHMARK.json names, in their units, with no failed
// operation.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLIs and spawns processes")
	}
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	bin := buildCLIs(t)
	for _, w := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			rep, err := run(context.Background(), smokeConfig(t, bin, w.Name, traced))
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.Name, traced, err)
			}
			if err := sp.check(rep.Metrics, traced); err != nil {
				t.Errorf("%s (traced %v): %v", w.Name, traced, err)
			}
			if !rep.Correct || rep.Attempted == 0 || errorRate(rep) != 0 {
				t.Errorf("%s (traced %v): correct %v, %d of %d operations failed",
					w.Name, traced, rep.Correct, rep.Failed, rep.Attempted)
			}
		}
	}
}

// TestAbandonedRequestsFail stops the generator before it sends
// anything: every request it abandons must count as attempted and
// failed, so a daemon that stalls past a rung's drain time cannot pass.
func TestAbandonedRequestsFail(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := loadgen(ctx, "", nil, newMix(1, 4), 100, 100*time.Millisecond, nil)
	if r.attempted == 0 || r.abandoned != r.attempted || r.failed() != r.attempted || r.meetsSLO() {
		t.Fatalf("attempted %d, abandoned %d, failed %d, meets SLO %v; want every request abandoned and failed",
			r.attempted, r.abandoned, r.failed(), r.meetsSLO())
	}
}

// TestOracleCatchesWrongOutput feeds a corrupted reference: every
// operation must then count as failed, or the output check is vacuous.
func TestOracleCatchesWrongOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLIs and spawns processes")
	}
	cfg := smokeConfig(t, buildCLIs(t), "cold", false)
	cfg.duration = 300 * time.Millisecond
	cfg.corrupt = true
	rep, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Attempted == 0 || errorRate(rep) != 1 {
		t.Fatalf("corrupted reference: correct %v, error rate %v over %d operations, want incorrect at 1",
			rep.Correct, errorRate(rep), rep.Attempted)
	}
}
