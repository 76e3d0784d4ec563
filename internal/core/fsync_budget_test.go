package core_test

import (
	"os"
	"sync"
	"testing"

	"fsdep/internal/core"
	"fsdep/internal/corpus"
	"fsdep/internal/depstore"
	"fsdep/internal/sched"
	"fsdep/internal/taint"
)

// syncCounter is a depstore.FS that counts file fsyncs and the
// directory fsyncs of each path.
type syncCounter struct {
	depstore.OSFS
	mu    sync.Mutex
	files int
	dirs  map[string]int
}

func (c *syncCounter) CreateTemp(dir, pattern string) (depstore.File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return countedFile{File: f, c: c}, nil
}

func (c *syncCounter) SyncDir(path string) error {
	c.mu.Lock()
	c.dirs[path]++
	c.mu.Unlock()
	return c.OSFS.SyncDir(path)
}

type countedFile struct {
	*os.File
	c *syncCounter
}

func (f countedFile) Sync() error {
	f.c.mu.Lock()
	f.c.files++
	f.c.mu.Unlock()
	return f.File.Sync()
}

// TestCorpusRunFsyncBudget pins what persisting a cold fsdep run costs
// in fsyncs: one per record, plus one per directory that gained an
// entry, each synced once however many records it received. A commit
// that slips back to per-record directory chains fails here, without
// waiting for the process benchmark. A warm second run writes nothing.
func TestCorpusRunFsyncBudget(t *testing.T) {
	dir := t.TempDir()
	run := func() (depstore.StoreStats, *syncCounter) {
		t.Helper()
		c := &syncCounter{dirs: map[string]int{}}
		s, err := depstore.OpenWith(depstore.Options{Dir: dir, FS: c, HotRecords: depstore.DefaultHotRecords})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.AnalyzeAll(corpus.Components(), corpus.Scenarios(),
			core.Options{Mode: taint.Intra, Store: s}, sched.Options{}); err != nil {
			t.Fatal(err)
		}
		return s.Stats(), c
	}
	st, c := run()
	if st.Writes != 19 || c.files != 19 {
		t.Errorf("cold run committed %d records with %d file fsyncs, want 19 and 19", st.Writes, c.files)
	}
	dirSyncs := 0
	for path, n := range c.dirs {
		dirSyncs += n
		if n > 1 {
			t.Errorf("cold run synced %s %d times, want once", path, n)
		}
	}
	if dirSyncs > 42 {
		t.Errorf("cold run made %d directory fsyncs, want at most 42", dirSyncs)
	}
	st, c = run()
	if st.Writes != 0 || c.files != 0 || len(c.dirs) != 0 {
		t.Errorf("warm run committed %d records with %d file and %d directory fsyncs, want none",
			st.Writes, c.files, len(c.dirs))
	}
}
