package depstore

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// opLog is an FS that runs one operation at a time and logs the
// mutating ones in the order they ran — enough to check the order of a
// commit, not its speed. MkdirAll logs each directory it created.
type opLog struct {
	OSFS
	mu  sync.Mutex
	ops [][3]string // op, path, second path
}

func (l *opLog) log(op, a, b string) { l.ops = append(l.ops, [3]string{op, a, b}) }

func (l *opLog) MkdirAll(path string, perm os.FileMode) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var missing []string
	for d := path; ; d = filepath.Dir(d) {
		if _, err := os.Stat(d); err == nil || d == filepath.Dir(d) {
			break
		}
		missing = append(missing, d)
	}
	err := os.MkdirAll(path, perm)
	if err == nil {
		for _, d := range missing {
			l.log("mkdir", d, "")
		}
	}
	return err
}

func (l *opLog) CreateTemp(dir, pattern string) (File, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return loggedFile{File: f, l: l}, nil
}

func (l *opLog) Rename(oldpath, newpath string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	err := os.Rename(oldpath, newpath)
	if err == nil {
		l.log("rename", oldpath, newpath)
	}
	return err
}

func (l *opLog) SyncDir(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.OSFS.SyncDir(path)
	if err == nil {
		l.log("syncdir", path, "")
	}
	return err
}

type loggedFile struct {
	*os.File
	l *opLog
}

func (f loggedFile) Sync() error {
	f.l.mu.Lock()
	defer f.l.mu.Unlock()
	err := f.File.Sync()
	if err == nil {
		f.l.log("sync", f.Name(), "")
	}
	return err
}

// checkDurableOrder asserts the crash-safety order of ops: every
// record's temp file is synced before its rename and its directory
// after, and every created directory's parent is synced after the
// directory was made.
func checkDurableOrder(t *testing.T, ops [][3]string) {
	t.Helper()
	first := func(op, path string, from int) int {
		for i := from; i < len(ops); i++ {
			if ops[i][0] == op && ops[i][1] == path {
				return i
			}
		}
		return -1
	}
	renames := 0
	for i, op := range ops {
		switch op[0] {
		case "rename":
			renames++
			if j := first("sync", op[1], 0); j < 0 || j > i {
				t.Errorf("%s renamed without its data synced first", op[2])
			}
			if first("syncdir", filepath.Dir(op[2]), i+1) < 0 {
				t.Errorf("%s renamed, but its directory was never synced afterwards", op[2])
			}
		case "mkdir":
			if first("syncdir", filepath.Dir(op[1]), i+1) < 0 {
				t.Errorf("%s created, but its parent was never synced afterwards", op[1])
			}
		}
	}
	if renames == 0 {
		t.Fatal("no record was committed")
	}
}

// TestCommitOrderIsDurable: a record Flush committed survives a host
// crash. Its data is synced before the rename publishes it, the rename
// is synced by a sync of its directory, and every directory the commit
// (or OpenWith, for the root) created is synced into its parent.
func TestCommitOrderIsDurable(t *testing.T) {
	l := &opLog{}
	s, err := OpenWith(Options{Dir: filepath.Join(t.TempDir(), "cache"), FS: l})
	if err != nil {
		t.Fatal(err)
	}
	// Two groups: the first creates every directory it writes to; the
	// second rewrites the first's records and adds records under new
	// fan-out directories.
	for g, n := range []int{5, 8} {
		for i := 0; i < n; i++ {
			kind := []string{KindTaint, KindScenario, KindSummaries}[i%3]
			if err := s.Put(kind, Key("durable", fmt.Sprint(i)), []byte(`{"v":1}`)); err != nil {
				t.Fatal(err)
			}
		}
		l.mu.Lock()
		start := len(l.ops)
		l.mu.Unlock()
		flushT(t, s)
		// Each directory is synced once per group.
		seen := map[string]bool{}
		for _, op := range l.ops[start:] {
			if op[0] != "syncdir" {
				continue
			}
			if seen[op[1]] {
				t.Errorf("group %d synced %s twice", g, op[1])
			}
			seen[op[1]] = true
		}
	}
	checkDurableOrder(t, l.ops)
}

// TestPendingRecordsAnswerUntilFlush: a Put is readable at once, lands
// on disk at the next Flush, and the putFlushThreshold-th Put of a
// group commits the group itself.
func TestPendingRecordsAnswerUntilFlush(t *testing.T) {
	s := openT(t)
	k := Key("pending")
	if err := s.Put(KindTaint, k, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.path(KindTaint, k)); !os.IsNotExist(err) {
		t.Fatalf("record on disk before its Flush: %v", err)
	}
	if got, ok := s.Get(KindTaint, k); !ok || string(got) != `{"v":1}` {
		t.Fatalf("pending record not served: %q, %v", got, ok)
	}
	flushT(t, s)
	if _, err := os.Stat(s.path(KindTaint, k)); err != nil {
		t.Fatalf("flushed record not on disk: %v", err)
	}
	for i := 0; i < putFlushThreshold; i++ {
		if err := s.Put(KindTaint, Key("bulk", fmt.Sprint(i)), []byte(`{"v":2}`)); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Writes != 1+putFlushThreshold {
		t.Errorf("writes = %d after %d Puts, want the full group committed without a Flush", st.Writes, putFlushThreshold)
	}
	filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(path, ".tmp") {
			t.Errorf("commit left temp file %s", path)
		}
		return nil
	})
}

// stallFS is the real filesystem whose CreateTemp, once armed, stops
// until released: a Put caught inside its staging I/O.
type stallFS struct {
	OSFS
	armed            atomic.Bool
	entered, release chan struct{}
}

func (f *stallFS) CreateTemp(dir, pattern string) (File, error) {
	if f.armed.Load() {
		close(f.entered)
		<-f.release
	}
	return f.OSFS.CreateTemp(dir, pattern)
}

// TestGetDoesNotWaitOnStaging: while one caller's Put is stuck writing
// its temp file, Gets still answer: a committed record from disk, and
// the stuck record itself from the pending set.
func TestGetDoesNotWaitOnStaging(t *testing.T) {
	f := &stallFS{entered: make(chan struct{}), release: make(chan struct{})}
	s, err := OpenWith(Options{Dir: t.TempDir(), FS: f})
	if err != nil {
		t.Fatal(err)
	}
	done, stuck := Key("committed"), Key("stuck")
	if err := s.Put(KindTaint, done, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	flushT(t, s)
	f.armed.Store(true)
	put := make(chan error)
	go func() { put <- s.Put(KindTaint, stuck, []byte(`{"v":2}`)) }()
	<-f.entered
	got := make(chan string, 1)
	go func() {
		a, _ := s.Get(KindTaint, done)
		b, _ := s.Get(KindTaint, stuck)
		got <- string(a) + string(b)
	}()
	select {
	case g := <-got:
		if g != `{"v":1}{"v":2}` {
			t.Errorf("Gets during a stuck Put = %q", g)
		}
	case <-time.After(5 * time.Second):
		t.Error("Get waited on another caller's staging I/O")
	}
	close(f.release)
	if err := <-put; err != nil {
		t.Fatal(err)
	}
	flushT(t, s)
}

// TestScrubRemovesStaleTemps: a process killed between its Puts and
// their Flush leaves temp files that no commit will ever rename. Scrub
// deletes those past staleTempAge and keeps younger ones, which may
// belong to a commit in flight.
func TestScrubRemovesStaleTemps(t *testing.T) {
	dir := t.TempDir()
	killed, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{Key("abandoned"), Key("in-flight")} {
		if err := killed.Put(KindTaint, k, []byte(`{"v":1}`)); err != nil {
			t.Fatal(err)
		}
	}
	var temps []string
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(path, ".tmp") {
			temps = append(temps, path)
		}
		return nil
	})
	if len(temps) != 2 {
		t.Fatalf("staged temp files = %v, want 2", temps)
	}
	old := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(temps[0], old, old); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Scrub(ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.StaleTemps != 1 || rep.Scanned != 0 || rep.Errors != 0 {
		t.Errorf("report = %+v, want 1 stale temp and no records", rep)
	}
	if _, err := os.Stat(temps[0]); !os.IsNotExist(err) {
		t.Errorf("stale temp survived the scrub: %v", err)
	}
	if _, err := os.Stat(temps[1]); err != nil {
		t.Errorf("fresh temp removed: %v", err)
	}
}
