package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cliRun is one timed invocation, measured from outside: wall clock
// from fork to reaped exit, and the child's CPU time from its rusage.
// Its ru_maxrss is not kept; see peakRSS.
type cliRun struct {
	wall   time.Duration
	cpu    time.Duration // user + system
	exit   int
	stdout []byte
	stderr []byte
}

// childEnv keeps the environment of spawned binaries minimal, so no
// FSDEP_* setting of the caller changes what is measured, and points
// HOME into the run's scratch directory.
func childEnv(cfg config) []string {
	return []string{"PATH=" + os.Getenv("PATH"), "HOME=" + cfg.work}
}

func command(ctx context.Context, cfg config, bin string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Env = childEnv(cfg)
	// A child must not outlive the harness, even when the harness is
	// killed before it can stop it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

func runCLI(ctx context.Context, cfg config, args ...string) (cliRun, error) {
	return spawn(ctx, cfg, cfg.fsdep(), args...)
}

// peakRSS runs fsdep under peakrss and returns the run with fsdep's own
// peak resident set size in KB. The harness's own rusage of a child
// includes the harness's resident set (see bench/peakrss).
func peakRSS(ctx context.Context, cfg config, args ...string) (cliRun, int64, error) {
	out := filepath.Join(cfg.work, "peakrss")
	if err := os.Remove(out); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return cliRun{}, 0, err
	}
	r, err := spawn(ctx, cfg, cfg.peakrss(), append([]string{out, cfg.fsdep()}, args...)...)
	if err != nil {
		return r, 0, err
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		return r, 0, fmt.Errorf("peakrss: %w", err)
	}
	kb, err := strconv.ParseInt(string(raw), 10, 64)
	return r, kb, err
}

func spawn(ctx context.Context, cfg config, bin string, args ...string) (cliRun, error) {
	cmd := command(ctx, cfg, bin, args...)
	var stdout, stderr bytes.Buffer
	stdout.Grow(4096)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	r := cliRun{wall: time.Since(start), stdout: stdout.Bytes(), stderr: stderr.Bytes()}
	if cmd.ProcessState == nil {
		return r, err
	}
	r.exit = cmd.ProcessState.ExitCode()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return r, nil
}

// daemon is a spawned fsdepd.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	store  string
	stderr *bytes.Buffer
	exited chan error
}

// startDaemon launches fsdepd with -warm over a fresh store directory
// and returns once /v1/ping answers. Apart from the listen address,
// store location and URL file, every flag keeps its default.
func startDaemon(ctx context.Context, cfg config, name string) (*daemon, error) {
	store := filepath.Join(cfg.work, name+"-store")
	urlFile := filepath.Join(cfg.work, name+".url")
	if err := os.RemoveAll(store); err != nil {
		return nil, err
	}
	_ = os.Remove(urlFile)
	d := &daemon{store: store, stderr: &bytes.Buffer{}, exited: make(chan error, 1)}
	d.cmd = command(ctx, cfg, cfg.fsdepd(),
		"-addr", "127.0.0.1:0", "-cache-dir", store, "-warm", "-url-file", urlFile)
	d.cmd.Stderr = d.stderr
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { d.exited <- d.cmd.Wait() }()
	deadline := time.Now().Add(60 * time.Second)
	for d.url == "" {
		if raw, err := os.ReadFile(urlFile); err == nil && bytes.HasSuffix(raw, []byte("\n")) {
			d.url = strings.TrimSpace(string(raw))
			break
		}
		select {
		case err := <-d.exited:
			d.exited <- err
			return nil, fmt.Errorf("fsdepd exited during start-up: %v: %s", err, d.stderr.String())
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("fsdepd did not start within 60s")
		}
	}
	for {
		resp, err := http.Get(d.url + "/v1/ping")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("fsdepd at %s never answered /v1/ping: %v", d.url, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop asks fsdepd to shut down and waits for it, killing it if it
// has not exited within ten seconds.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.exited:
		d.exited <- err
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		d.exited <- <-d.exited
	}
}

// cpu returns the CPU time the daemon's threads have run so far, summed
// over /proc/<pid>/task/*/schedstat. It is counted in nanoseconds;
// /proc/<pid>/stat counts 10 ms ticks, which made the per-request
// figure fall on a visible grid.
func (d *daemon) cpu() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", d.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, t := range tasks {
		raw, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited after the listing
		}
		f := strings.Fields(string(raw))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty schedstat of thread %s", t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		total += ns
	}
	return time.Duration(total), nil
}

// rssKB returns the daemon's resident set size (VmRSS).
func (d *daemon) rssKB() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, errors.New("no VmRSS in /proc status")
}

// storeRecords sums the record files under a store directory: their
// count and bytes (directory entries excluded).
func storeRecords(dir string) (n int, size int64, err error) {
	err = filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() && strings.HasSuffix(path, ".rec") {
			info, err := e.Info()
			if err != nil {
				return err
			}
			n++
			size += info.Size()
		}
		return nil
	})
	return n, size, err
}

// flushDisk writes out every dirty page (sync(2)). A deleted store
// tree leaves metadata for the filesystem to write back, and a run that
// inherited that work from the run before paid for it in its own
// fsyncs: cold runs spent up to 70% more system time. Flushing at the
// start and end of every run keeps each run's disk work its own.
func flushDisk() { syscall.Sync() }
