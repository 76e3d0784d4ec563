// Command fsdepbench is fsdep's process-level benchmark. It times the
// built fsdep CLI cold, disk-warm and remote-warm, and a live fsdepd
// under an open-loop request mix; checks every output against a
// reference; and prints each metric by name with its unit. A traced
// run (--trace 1) replays the same operation in-process and breaks its
// time down by layer.
//
// Usage (through bench/run.sh, which builds the binaries first):
//
//	fsdepbench --workload cold|warm|remote|daemon --seed N --seconds S --trace 0|1 [-out FILE]
//	fsdepbench agree A.jsonl B.jsonl
//	fsdepbench calibrate [--seconds S]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics of
// BENCHMARK.json untraced, its per-layer metrics traced. Lines before
// it list extra numbers, such as the daemon's rate ladder. With -out
// the run also appends its record, extras included, as one JSON line;
// agree compares two such files.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 {
		switch args[0] {
		case "agree":
			os.Exit(agreeMain(args[1:]))
		case "calibrate":
			os.Exit(calibrateMain(args[1:]))
		}
	}
	os.Exit(runMain(args))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is one run's outcome: the result line plus numbers that are
// printed and recorded but not bounded.
type outcome struct {
	result
	extra map[string]metric
}

func newOutcome() *outcome {
	return &outcome{
		result: result{Correct: true, Metrics: map[string]metric{}},
		extra:  map[string]metric{},
	}
}

// set records a metric; a value that could not be measured (no
// successful operation) reads 0 so the line stays valid JSON, and the
// run is then marked incorrect by its failures.
func (r *outcome) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *outcome) note(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.extra[name] = metric{Value: v, Unit: unit}
}

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	duration time.Duration
	trace    bool
	// bin holds the built fsdep and fsdepd.
	bin string
	// work is this run's own scratch directory, removed at the end.
	work string
	// outDir receives the traced run's span file.
	outDir string
	// rungs are the daemon ladder's request rates (per second).
	rungs []float64
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// corrupt flips a byte of the CLI workloads' reference after set-up,
	// so every operation must fail: the check that the output oracle is
	// not vacuous.
	corrupt bool
}

func (c config) fsdep() string   { return filepath.Join(c.bin, "fsdep") }
func (c config) fsdepd() string  { return filepath.Join(c.bin, "fsdepd") }
func (c config) peakrss() string { return filepath.Join(c.bin, "peakrss") }

// specFile is the benchmark definition, in the repository root the
// harness runs from.
const specFile = "BENCHMARK.json"

// buildDir is where bench/run.sh puts binaries and scratch files:
// $CARGO_TARGET_DIR, or .bench_build in the working directory.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// defaultSetups is how many times each run sets up. Single daemon
// set-ups varied by a third within one run, so a run reports the median
// of many.
const defaultSetups = 45

func runMain(args []string) int {
	fl := flag.NewFlagSet("fsdepbench", flag.ContinueOnError)
	workload := fl.String("workload", "", "workload to run: cold, warm, remote or daemon")
	seed := fl.Uint64("seed", 1, "input seed")
	seconds := fl.Float64("seconds", 10, "measured duration in seconds")
	trace := fl.Int("trace", 0, "1: traced in-process run reporting per-layer metrics")
	out := fl.String("out", "", "append this run's full record as one JSON line to `file`")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsdepbench: %v\n", err)
		return 1
	}
	if !sp.hasWorkload(*workload) {
		fmt.Fprintf(os.Stderr, "fsdepbench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "fsdepbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		bin:      filepath.Join(buildDir(), "bin"),
		work:     filepath.Join(buildDir(), "work", fmt.Sprintf("%s-%d", *workload, os.Getpid())),
		outDir:   filepath.Join("bench", "out"),
		rungs:    ladder,
		setups:   defaultSetups,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsdepbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := sp.check(rep.Metrics, cfg.trace); err != nil {
		fmt.Fprintf(os.Stderr, "fsdepbench: %v\n", err)
		return 1
	}
	printExtras(rep)
	if *out != "" {
		if err := appendRecord(*out, cfg, rep); err != nil {
			fmt.Fprintf(os.Stderr, "fsdepbench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsdepbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// run executes one workload in its own scratch directory.
func run(ctx context.Context, cfg config) (*outcome, error) {
	for _, b := range []string{cfg.fsdep(), cfg.fsdepd(), cfg.peakrss()} {
		if _, err := os.Stat(b); err != nil {
			return nil, fmt.Errorf("binary missing (build with bench/run.sh): %w", err)
		}
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	flushDisk()
	defer func() {
		os.RemoveAll(cfg.work)
		flushDisk()
	}()
	if cfg.trace {
		return traceRun(ctx, cfg)
	}
	switch cfg.workload {
	case "cold", "warm", "remote":
		return cliRunWorkload(ctx, cfg)
	case "daemon":
		return daemonRunWorkload(ctx, cfg)
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

func printExtras(rep *outcome) {
	names := make([]string, 0, len(rep.extra))
	for n := range rep.extra {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.extra[n]
		fmt.Printf("%-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
}

// record is one line of an -out file.
type record struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Trace    bool              `json:"trace"`
	Result   result            `json:"result"`
	Extra    map[string]metric `json:"extra"`
}

func appendRecord(path string, cfg config, rep *outcome) error {
	line, err := json.Marshal(record{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		Result: rep.result, Extra: rep.extra,
	})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spec is the part of BENCHMARK.json the harness reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

func (sp *spec) hasWorkload(name string) bool {
	for _, w := range sp.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// check insists that a run emitted exactly the metrics BENCHMARK.json
// names for its mode, each in its declared unit.
func (sp *spec) check(got map[string]metric, traced bool) error {
	want := sp.EndToEnd
	if traced {
		want = sp.PerLayer
	}
	var errs []error
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("metric %s not emitted", m.Name))
		case g.Unit != m.Unit:
			errs = append(errs, fmt.Errorf("metric %s in %s, BENCHMARK.json says %s", m.Name, g.Unit, m.Unit))
		}
	}
	if len(got) != len(want) {
		errs = append(errs, fmt.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(got), len(want)))
	}
	return errors.Join(errs...)
}
