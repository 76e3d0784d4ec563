package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"fsdep/bench/stats"
)

// overallLine is the paper's headline; every reference must carry it.
const overallLine = "Overall: 64 unique multi-level dependencies extracted, 5 false positives (7.8%)"

// reference runs fsdep with caching disabled: the output every other
// path must reproduce byte for byte.
func reference(ctx context.Context, cfg config) ([]byte, error) {
	r, err := runCLI(ctx, cfg, "-cache-dir", "")
	if err != nil {
		return nil, err
	}
	if r.exit != 0 || !bytes.Contains(r.stdout, []byte(overallLine)) {
		return nil, fmt.Errorf("reference run (exit %d) lacks %q: %s", r.exit, overallLine, r.stderr)
	}
	return r.stdout, nil
}

// cliFixture is what a CLI workload's operations run against.
type cliFixture struct {
	ref     []byte
	args    []string // fsdep arguments of every operation (warm, remote)
	storeKB float64
	daemon  *daemon
	// coldRoot holds the cold operations' cache directories, a fresh
	// empty one per operation.
	coldRoot string
}

func (fx *cliFixture) close() { fx.daemon.stop() }

// expectWarm asserts, once per set-up, that the operation really is a
// warm start: its -stats show zero taint-engine runs and its output
// matches the reference.
func expectWarm(ctx context.Context, cfg config, ref []byte, args ...string) error {
	r, err := runCLI(ctx, cfg, append(args, "-stats")...)
	if err != nil {
		return err
	}
	if r.exit != 0 || !bytes.Equal(r.stdout, ref) || !bytes.Contains(r.stderr, []byte("engine runs: 0\n")) {
		return fmt.Errorf("%v is not a warm start (exit %d): %s", args, r.exit, r.stderr)
	}
	return nil
}

// firstRun runs fsdep into the empty cache directory dir, checks its
// output against the reference, and returns the size of the records it
// persisted, in KB.
func firstRun(ctx context.Context, cfg config, ref []byte, dir string) (float64, error) {
	r, err := runCLI(ctx, cfg, "-cache-dir", dir)
	if err != nil {
		return 0, err
	}
	if r.exit != 0 || len(r.stderr) > 0 || !bytes.Equal(r.stdout, ref) {
		return 0, fmt.Errorf("first run into %s differs from the reference (exit %d): %s", dir, r.exit, r.stderr)
	}
	_, size, err := storeRecords(dir)
	return float64(size) / 1024, err
}

// setupCLI builds the fixture of set-up number n, checked against the
// reference output: the reference itself, a primed cache directory, or
// a warm fsdepd.
func setupCLI(ctx context.Context, cfg config, ref []byte, n int) (*cliFixture, error) {
	fx := &cliFixture{ref: ref}
	var err error
	switch cfg.workload {
	case "cold":
		// A cold operation needs only an empty cache directory and the
		// output to check it against, so the set-up derives that output
		// again, with caching off.
		again, err := reference(ctx, cfg)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(again, ref) {
			return nil, fmt.Errorf("set-up %d: fsdep -cache-dir \"\" printed another output than the reference", n)
		}
		fx.coldRoot = filepath.Join(cfg.work, fmt.Sprintf("cold-%d", n))
		if err := os.MkdirAll(fx.coldRoot, 0o755); err != nil {
			return nil, err
		}
	case "warm":
		dir := filepath.Join(cfg.work, fmt.Sprintf("warm-%d", n))
		if fx.storeKB, err = firstRun(ctx, cfg, ref, dir); err != nil {
			return nil, err
		}
		if err := expectWarm(ctx, cfg, ref, "-cache-dir", dir); err != nil {
			return nil, err
		}
		fx.args = []string{"-cache-dir", dir}
	case "remote":
		d, err := startDaemon(ctx, cfg, fmt.Sprintf("remote-%d", n))
		if err != nil {
			return nil, err
		}
		fx.daemon = d
		fx.args = []string{"-cache-dir", "", "-store-url", d.url}
		if err := expectWarm(ctx, cfg, ref, fx.args...); err != nil {
			d.stop()
			return nil, err
		}
		_, size, err := storeRecords(d.store)
		if err != nil {
			d.stop()
			return nil, err
		}
		fx.storeKB = float64(size) / 1024
	}
	return fx, nil
}

// opArgs returns the fsdep arguments of operation i, and what to run
// after its clock stops: for a cold operation, the check and removal
// of its cache directory.
func (fx *cliFixture) opArgs(i int) ([]string, func() error) {
	if fx.coldRoot == "" {
		return fx.args, func() error { return nil }
	}
	dir := filepath.Join(fx.coldRoot, strconv.Itoa(i))
	return []string{"-cache-dir", dir}, func() error { return fx.persisted(dir) }
}

// persisted checks the records a cold operation wrote into dir, which
// must come to as many bytes as every other cold operation's. It then
// deletes dir and flushes the disk, so the next operation's fsyncs do
// not write back this one's deletion.
func (fx *cliFixture) persisted(dir string) error {
	_, size, err := storeRecords(dir)
	os.RemoveAll(dir)
	flushDisk()
	kb := float64(size) / 1024
	switch {
	case err != nil:
		return err
	case kb == 0 || (fx.storeKB != 0 && kb != fx.storeKB):
		return fmt.Errorf("a cold run persisted %.3f KB, an earlier one %.3f KB", kb, fx.storeKB)
	}
	fx.storeKB = kb
	return nil
}

// setupTimer times a workload's set-up. The first set-up's fixture is
// the one the run measures. The others are made at intervals through
// the run and thrown away: set-ups made back to back all met the host
// in the same state, and their median moved by a third between two
// sets of runs.
type setupTimer[F interface{ close() }] struct {
	setup func(n int) (F, error)
	total int // set-ups per run
	secs  []float64
}

func (t *setupTimer[F]) run() (F, error) {
	start := time.Now()
	fx, err := t.setup(len(t.secs))
	if err != nil {
		return fx, fmt.Errorf("set-up: %w", err)
	}
	t.secs = append(t.secs, time.Since(start).Seconds())
	return fx, nil
}

// extra makes, times and throws away one more set-up.
func (t *setupTimer[F]) extra() error {
	fx, err := t.run()
	if err != nil {
		return err
	}
	fx.close()
	// A stopped fsdepd's last writes must not be paid for in the fsyncs
	// of what follows.
	flushDisk()
	return nil
}

// extrasDue reports whether, at the given share of the run, fewer
// set-ups have been made than an even spread calls for.
func (t *setupTimer[F]) extrasDue(done float64) bool {
	return len(t.secs) < t.total && float64(len(t.secs)) < done*float64(t.total)
}

func (t *setupTimer[F]) median() float64 { return stats.Median(t.secs) }

// rssProbes is how many operations of a CLI workload measure peak
// memory.
const rssProbes = 15

// cliRunWorkload runs one CLI workload: closed loop, one client, each
// operation a fresh fsdep process.
func cliRunWorkload(ctx context.Context, cfg config) (*outcome, error) {
	ref, err := reference(ctx, cfg)
	if err != nil {
		return nil, err
	}
	st := &setupTimer[*cliFixture]{total: cfg.setups, setup: func(n int) (*cliFixture, error) { return setupCLI(ctx, cfg, ref, n) }}
	fx, err := st.run()
	if err != nil {
		return nil, err
	}
	defer fx.close()
	if cfg.corrupt {
		fx.ref = append([]byte(nil), fx.ref...)
		fx.ref[0] ^= 1
	}

	rep := newOutcome()
	// failed counts an operation as attempted, checks it against the
	// reference, and reports whether it failed.
	failed := func(r cliRun, err error) bool {
		rep.Attempted++
		if err == nil && (r.exit != 0 || len(r.stderr) > 0 || !bytes.Equal(r.stdout, fx.ref)) {
			err = fmt.Errorf("exit %d, stderr %q, stdout matches reference: %v", r.exit, r.stderr, bytes.Equal(r.stdout, fx.ref))
		}
		if err == nil {
			return false
		}
		rep.Failed++
		if rep.Failed <= 3 {
			fmt.Fprintf(os.Stderr, "fsdepbench: %s operation failed: %v\n", cfg.workload, err)
		}
		return true
	}
	var wall, cpu, rss []float64
	start := time.Now()
	for time.Since(start) < cfg.duration {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if st.extrasDue(float64(time.Since(start)) / float64(cfg.duration)) {
			if err := st.extra(); err != nil {
				return nil, err
			}
			continue
		}
		args, done := fx.opArgs(rep.Attempted)
		r, err := runCLI(ctx, cfg, args...)
		if derr := done(); err == nil {
			err = derr
		}
		if !failed(r, err) {
			wall = append(wall, ms(r.wall))
			cpu = append(cpu, ms(r.cpu))
		}
	}
	// Peak memory comes from extra operations run under peakrss, whose
	// start-up would distort the timed ones.
	for i := 0; i < rssProbes; i++ {
		args, done := fx.opArgs(rep.Attempted)
		r, kb, err := peakRSS(ctx, cfg, args...)
		if derr := done(); err == nil {
			err = derr
		}
		if !failed(r, err) {
			rss = append(rss, float64(kb)/1024)
		}
	}
	rep.Correct = rep.Failed == 0

	rep.set("setup_s", st.median(), "s")
	rep.set("op_p50_ms", stats.Percentile(wall, 50), "ms")
	rep.set("cpu_ms_per_op", stats.Median(cpu), "ms")
	rep.set("rss_mb", stats.Median(rss), "MB")
	rep.set("store_kb", fx.storeKB, "KB")
	rep.set("ok_ratio", 1-errorRate(rep), "ratio")

	tail := stats.TailPercentile(len(wall))
	rep.note("op_samples", float64(len(wall)), "count")
	rep.note("op_tail_percentile", tail, "pct")
	rep.note("op_tail_ms", stats.Percentile(wall, tail), "ms")
	rep.note("op_p90_ms", stats.Percentile(wall, 90), "ms")
	return rep, nil
}

// errorRate is the share of attempted operations that got no correct
// answer: failed, shed, abandoned or wrong. ok_ratio reports its
// complement, which is never 0 on a healthy run.
func errorRate(rep *outcome) float64 {
	if rep.Attempted == 0 {
		return 0
	}
	return float64(rep.Failed) / float64(rep.Attempted)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
