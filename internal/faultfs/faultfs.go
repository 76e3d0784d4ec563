// Package faultfs is deterministic, plan-driven fault injection for
// filesystem operations — internal/faultdev's discipline turned on our
// own infrastructure. faultdev wraps the *simulated* disks so
// ConCrashCk can ask what a dependency-violating configuration does
// when the device dies underneath it; faultfs wraps the *real*
// filesystem operations of the depstore's local tier (it implements
// internal/depstore's FS seam structurally) so the chaos suite can ask
// the same question of the service tier: what does the cache do when a
// read fails, a rename is refused, or the host dies mid-write?
//
// Faults are driven per operation class by 1-based operation counters
// and a seeded prng.Source — never wall-clock — so a (Plan, seed) pair
// replays byte-for-byte, exactly like a faultdev trial, for every class
// but one. The exception is sync: a depstore commit issues its mkdirs,
// writes, renames and removes in Put order on one goroutine, but runs
// its fsyncs concurrently (the temp files first, then the directories),
// so which record or directory the Nth sync fault lands on depends on
// scheduling. A plan with sync faults replays the same number of
// faults, and tests over it must assert only what holds for any
// assignment. Two fault families are supported:
//
//   - injected errors: the Nth operation of a class (read, write,
//     rename, chtimes, remove, mkdir, sync) fails with ErrInjected and
//     has no effect;
//   - torn writes: the Nth file write persists only a prng-chosen
//     prefix of its payload and then fails with ErrInjected, modelling
//     a host crash mid-write (the renamed-but-torn record a crashed
//     depstore commit can leave behind).
package faultfs

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fsdep/internal/depstore"
	"fsdep/internal/prng"
)

// ErrInjected reports a planned fault. Callers distinguish it from
// real filesystem errors with errors.Is, so a chaos test can assert
// that every failure a fault plan produced is clean and typed.
var ErrInjected = errors.New("faultfs: injected fault")

// Op names one class of filesystem operation a plan can target. Each
// class keeps its own 1-based counter.
type Op string

// Operation classes.
const (
	OpRead    Op = "read"    // ReadFile
	OpWrite   Op = "write"   // File.Write
	OpRename  Op = "rename"  // Rename
	OpChtimes Op = "chtimes" // Chtimes
	OpRemove  Op = "remove"  // Remove
	OpMkdir   Op = "mkdir"   // MkdirAll
	OpSync    Op = "sync"    // File.Sync and SyncDir
)

// Plan describes the faults to inject. The zero value injects nothing
// and turns the FS into a pure operation counter.
type Plan struct {
	// Fail maps an operation class to the 1-based indices of the
	// operations in that class that fail with ErrInjected (no effect on
	// disk).
	Fail map[Op][]uint64
	// TornWrites lists 1-based write-op indices that persist only a
	// prng-chosen byte prefix of the payload and then fail with
	// ErrInjected — a host crash mid-write.
	TornWrites []uint64
	// Seed drives the torn-prefix choices (0 = prng.DefaultSeed).
	// Derive per-trial seeds with prng.Derive so a whole chaos sweep is
	// a pure function of one base seed.
	Seed uint64
}

// FS wraps the real filesystem with a fault plan. It implements
// internal/depstore's FS interface, so it can be slotted under a Store
// via depstore.Options.FS. Safe for concurrent use; the per-class
// counters make concurrent runs well-defined, and the operations of a
// single goroutine fully deterministic.
type FS struct {
	mu     sync.Mutex
	fail   map[Op]map[uint64]bool
	torn   map[uint64]bool
	rng    *prng.Source
	counts map[Op]uint64
}

// New returns a fault-injecting FS for plan.
func New(plan Plan) *FS {
	f := &FS{
		fail:   make(map[Op]map[uint64]bool, len(plan.Fail)),
		torn:   make(map[uint64]bool, len(plan.TornWrites)),
		rng:    prng.New(plan.Seed),
		counts: make(map[Op]uint64),
	}
	for op, idxs := range plan.Fail {
		m := make(map[uint64]bool, len(idxs))
		for _, i := range idxs {
			m[i] = true
		}
		f.fail[op] = m
	}
	for _, i := range plan.TornWrites {
		f.torn[i] = true
	}
	return f
}

// Count returns how many operations of the given class the FS has
// observed — the op numbers a plan's indices refer to.
func (f *FS) Count(op Op) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts[op]
}

// step advances op's counter and reports whether this operation is
// planned to fail.
func (f *FS) step(op Op) (n uint64, fail bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.counts[op]++
	n = f.counts[op]
	return n, f.fail[op][n]
}

// injected wraps ErrInjected with the operation's identity so error
// text reads like a fault report.
func injected(op Op, n uint64, name string) error {
	return fmt.Errorf("%w: %s op %d (%s)", ErrInjected, op, n, name)
}

// ReadFile implements the read seam.
func (f *FS) ReadFile(name string) ([]byte, error) {
	if n, fail := f.step(OpRead); fail {
		return nil, injected(OpRead, n, name)
	}
	return os.ReadFile(name)
}

// MkdirAll implements the mkdir seam.
func (f *FS) MkdirAll(path string, perm os.FileMode) error {
	if n, fail := f.step(OpMkdir); fail {
		return injected(OpMkdir, n, path)
	}
	return os.MkdirAll(path, perm)
}

// Rename implements the rename seam.
func (f *FS) Rename(oldpath, newpath string) error {
	if n, fail := f.step(OpRename); fail {
		return injected(OpRename, n, newpath)
	}
	return os.Rename(oldpath, newpath)
}

// Remove implements the remove seam.
func (f *FS) Remove(name string) error {
	if n, fail := f.step(OpRemove); fail {
		return injected(OpRemove, n, name)
	}
	return os.Remove(name)
}

// Chtimes implements the chtimes seam.
func (f *FS) Chtimes(name string, atime, mtime time.Time) error {
	if n, fail := f.step(OpChtimes); fail {
		return injected(OpChtimes, n, name)
	}
	return os.Chtimes(name, atime, mtime)
}

// WalkDir delegates to filepath.WalkDir; the walk's own ReadFile calls
// (none — walking only lists) are not a faultable class.
func (f *FS) WalkDir(root string, fn fs.WalkDirFunc) error {
	return filepath.WalkDir(root, fn)
}

// SyncDir implements the sync seam for directories.
func (f *FS) SyncDir(path string) error {
	if n, fail := f.step(OpSync); fail {
		return injected(OpSync, n, path)
	}
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// CreateTemp implements the temp-file seam. The returned handle's
// Write ops draw from the shared write counter, so a plan can tear the
// Nth write across any number of files.
func (f *FS) CreateTemp(dir, pattern string) (depstore.File, error) {
	tmp, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &File{fs: f, f: tmp}, nil
}

// File is a fault-injecting temp-file handle.
type File struct {
	fs *FS
	f  *os.File
}

// Name returns the underlying file's path.
func (w *File) Name() string { return w.f.Name() }

// Write applies the plan to one payload write: a planned failure
// persists nothing; a planned torn write persists a prng-chosen byte
// prefix and then fails, like a host crash mid-write. Both report
// ErrInjected.
func (w *File) Write(p []byte) (int, error) {
	w.fs.mu.Lock()
	w.fs.counts[OpWrite]++
	n := w.fs.counts[OpWrite]
	failNow := w.fs.fail[OpWrite][n]
	tornNow := w.fs.torn[n]
	keep := 0
	if tornNow && len(p) > 0 {
		keep = int(w.fs.rng.Uint64n(uint64(len(p))))
	}
	w.fs.mu.Unlock()
	switch {
	case failNow:
		return 0, injected(OpWrite, n, w.f.Name())
	case tornNow:
		if keep > 0 {
			if k, err := w.f.Write(p[:keep]); err != nil {
				return k, err
			}
		}
		return keep, injected(OpWrite, n, w.f.Name())
	}
	return w.f.Write(p)
}

// Sync applies the plan to the file fsync.
func (w *File) Sync() error {
	if n, fail := w.fs.step(OpSync); fail {
		return injected(OpSync, n, w.f.Name())
	}
	return w.f.Sync()
}

// Close closes the underlying file (never injected: a leaked fd would
// fault the test process, not the code under test).
func (w *File) Close() error { return w.f.Close() }
