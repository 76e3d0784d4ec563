package main

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fsdep/internal/depstore"
	"fsdep/internal/depstore/remote"
)

// span is one timed call at a layer boundary.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: none (a root, or not attributable)
	Op     int    `json:"op"`
	Name   string `json:"name"`
	// Start and End are microseconds since the trace began.
	Start float64 `json:"start_us"`
	End   float64 `json:"end_us"`
	// Replay marks a call made after the operation, on the operation's
	// input, to time a layer the operation ran inside another call.
	Replay bool  `json:"replay,omitempty"`
	Bytes  int64 `json:"bytes,omitempty"`
}

func (s span) ms() float64 { return (s.End - s.Start) / 1000 }

// storeRec is one record the traced store wrote or read.
type storeRec struct {
	kind, key string
	payload   []byte
}

// tracer keeps spans in memory. Calls through the wrappers below are
// recorded only while on is set, so the same wrapped objects serve
// the untraced baseline the overhead is measured against.
type tracer struct {
	t0 time.Time
	on atomic.Bool

	mu       sync.Mutex
	spans    []span
	op, root int
	shed     int
	pending  map[string]*bytes.Buffer // temp file → bytes written to it
	writes   []storeRec
	reads    []storeRec
	requests atomic.Int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), pending: map[string]*bytes.Buffer{}}
}

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0)) / float64(time.Microsecond) }

// add records a finished span under the current operation, or under
// none when there is no parent to attribute it to (concurrent daemon
// requests).
func (t *tracer) add(name string, parent int, replay bool, start, end time.Time, n int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	op := t.op
	if parent == 0 {
		op = 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: t.us(start), End: t.us(end), Replay: replay, Bytes: n,
	})
}

// beginOp opens the root span of a new operation; spans recorded until
// endOp are its children.
func (t *tracer) beginOp(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.op++
	t.root = len(t.spans) + 1
	t.spans = append(t.spans, span{ID: t.root, Op: t.op, Name: name, Start: t.us(time.Now())})
}

func (t *tracer) endOp() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[t.root-1].End = t.us(time.Now())
}

func (t *tracer) parent() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.root
}

// inner records a call made inside the operation, when tracing is on.
func (t *tracer) inner(name string, start time.Time, n int64) {
	if t.on.Load() {
		t.add(name, t.parent(), false, start, time.Now(), n)
	}
}

// replay times f as a replayed child of the current operation.
func (t *tracer) replay(name string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.add(name, t.parent(), true, start, end, 0)
	return end.Sub(start)
}

// takeIO returns and forgets the records the traced store wrote and
// read since the last call.
func (t *tracer) takeIO() (writes, reads []storeRec) {
	t.mu.Lock()
	defer t.mu.Unlock()
	writes, reads = t.writes, t.reads
	t.writes, t.reads = nil, nil
	return writes, reads
}

// recordAt parses a store record path (dir/kind/ab/cd/key.rec).
func recordAt(path string, blob []byte) (storeRec, bool) {
	key, ok := strings.CutSuffix(filepath.Base(path), ".rec")
	nl := bytes.IndexByte(blob, '\n')
	if !ok || nl < 0 {
		return storeRec{}, false
	}
	kind := filepath.Base(filepath.Dir(filepath.Dir(filepath.Dir(path))))
	return storeRec{kind: kind, key: key, payload: blob[nl+1:]}, true
}

// sums totals span durations (ms), counts and bytes by name.
type sums struct {
	ms    map[string]float64
	count map[string]int
	bytes map[string]int64
	durs  map[string][]float64
}

func (t *tracer) sums() sums {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := sums{ms: map[string]float64{}, count: map[string]int{}, bytes: map[string]int64{}, durs: map[string][]float64{}}
	for _, sp := range t.spans {
		d := sp.ms()
		s.ms[sp.Name] += d
		s.count[sp.Name]++
		s.bytes[sp.Name] += sp.Bytes
		s.durs[sp.Name] = append(s.durs[sp.Name], d)
	}
	return s
}

// maxFileSpans bounds the span file; the metrics use every span.
const maxFileSpans = 20000

// traceNote is written into every span file.
const traceNote = "Spans without replay are calls timed where they happened: the operation's root span, " +
	"and filesystem, remote-store and HTTP-handler calls through the depstore.FS and BatchRemote seams " +
	"and a middleware around service.Server.Handler. Replay spans re-run a layer's public function on the " +
	"operation's own input after the operation, because the operation ran that layer inside another call. " +
	"A parent's self time is its duration minus its children's; per-layer metrics are means per operation."

func (t *tracer) write(path string, cfg config, layers map[string]float64) error {
	t.mu.Lock()
	spans := t.spans
	dropped := 0
	if len(spans) > maxFileSpans {
		dropped = len(spans) - maxFileSpans
		spans = spans[:maxFileSpans]
	}
	blob, err := json.MarshalIndent(map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "operations": t.op,
		"note": traceNote, "layers": layers, "spans": spans, "spans_dropped": dropped,
	}, "", " ")
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// tracedFS times every filesystem call of a depstore.Store and keeps
// the records it commits and reads, for the encode and decode replays.
type tracedFS struct {
	t  *tracer
	fs depstore.FS
}

func (f tracedFS) ReadFile(name string) ([]byte, error) {
	start := time.Now()
	b, err := f.fs.ReadFile(name)
	f.t.inner("fs.read", start, 0)
	if err == nil && f.t.on.Load() {
		if rec, ok := recordAt(name, b); ok {
			f.t.mu.Lock()
			f.t.reads = append(f.t.reads, rec)
			f.t.mu.Unlock()
		}
	}
	return b, err
}

func (f tracedFS) MkdirAll(path string, perm os.FileMode) error {
	start := time.Now()
	err := f.fs.MkdirAll(path, perm)
	f.t.inner("fs.mkdir", start, 0)
	return err
}

// isProbe reports whether a temp file is the writability probe a
// store makes when it opens, which belongs to no record.
func isProbe(name string) bool { return strings.HasPrefix(filepath.Base(name), ".probe") }

func (f tracedFS) CreateTemp(dir, pattern string) (depstore.File, error) {
	start := time.Now()
	file, err := f.fs.CreateTemp(dir, pattern)
	if isProbe(pattern) {
		f.t.inner("fs.probe", start, 0)
		return file, err
	}
	f.t.inner("fs.create", start, 0)
	if err != nil || !f.t.on.Load() {
		return file, err
	}
	buf := &bytes.Buffer{}
	f.t.mu.Lock()
	f.t.pending[file.Name()] = buf
	f.t.mu.Unlock()
	return tracedFile{t: f.t, f: file, buf: buf}, nil
}

func (f tracedFS) Rename(oldpath, newpath string) error {
	start := time.Now()
	err := f.fs.Rename(oldpath, newpath)
	f.t.inner("fs.rename", start, 0)
	f.t.mu.Lock()
	if buf, ok := f.t.pending[oldpath]; ok {
		delete(f.t.pending, oldpath)
		if rec, ok := recordAt(newpath, buf.Bytes()); ok && err == nil {
			f.t.writes = append(f.t.writes, rec)
		}
	}
	f.t.mu.Unlock()
	return err
}

func (f tracedFS) Remove(name string) error {
	start := time.Now()
	err := f.fs.Remove(name)
	if isProbe(name) {
		f.t.inner("fs.probe", start, 0)
		return err
	}
	f.t.inner("fs.remove", start, 0)
	f.t.mu.Lock()
	delete(f.t.pending, name)
	f.t.mu.Unlock()
	return err
}

func (f tracedFS) Chtimes(name string, atime, mtime time.Time) error {
	start := time.Now()
	err := f.fs.Chtimes(name, atime, mtime)
	f.t.inner("fs.chtimes", start, 0)
	return err
}

func (f tracedFS) WalkDir(root string, fn fs.WalkDirFunc) error { return f.fs.WalkDir(root, fn) }

func (f tracedFS) SyncDir(path string) error {
	start := time.Now()
	err := f.fs.SyncDir(path)
	f.t.inner("fs.syncdir", start, 0)
	return err
}

type tracedFile struct {
	t   *tracer
	f   depstore.File
	buf *bytes.Buffer
}

func (w tracedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := w.f.Write(p)
	w.t.inner("fs.write", start, int64(n))
	w.buf.Write(p[:n])
	return n, err
}

func (w tracedFile) Sync() error {
	start := time.Now()
	err := w.f.Sync()
	w.t.inner("fs.sync", start, 0)
	return err
}

func (w tracedFile) Close() error {
	start := time.Now()
	err := w.f.Close()
	w.t.inner("fs.close", start, 0)
	return err
}

func (w tracedFile) Name() string { return w.f.Name() }

// nopFS is a filesystem that stores nothing: a depstore.Store over it
// costs only its own CPU work (envelope, checksum, encoding), which is
// how the put, encode and decode replays isolate that work from disk.
type nopFS struct{}

func (nopFS) ReadFile(string) ([]byte, error)                 { return nil, os.ErrNotExist }
func (nopFS) MkdirAll(string, os.FileMode) error              { return nil }
func (nopFS) CreateTemp(dir, _ string) (depstore.File, error) { return nopFile(dir), nil }
func (nopFS) Rename(string, string) error                     { return nil }
func (nopFS) Remove(string) error                             { return nil }
func (nopFS) Chtimes(string, time.Time, time.Time) error      { return nil }
func (nopFS) WalkDir(string, fs.WalkDirFunc) error            { return nil }
func (nopFS) SyncDir(string) error                            { return nil }

type nopFile string

func (nopFile) Write(p []byte) (int, error) { return len(p), nil }
func (nopFile) Sync() error                 { return nil }
func (nopFile) Close() error                { return nil }
func (f nopFile) Name() string              { return string(f) + "/nop.tmp" }

// tracedRemote times the store's calls into the remote tier and keeps
// the last bulk fetch for the wire-decode replay.
type tracedRemote struct {
	t *tracer
	c *remote.Client

	mu   sync.Mutex
	refs []depstore.Ref
	got  map[depstore.Ref][]byte
}

func (r *tracedRemote) Get(kind, key string) ([]byte, bool) {
	start := time.Now()
	b, ok := r.c.Get(kind, key)
	r.t.inner("remote.get", start, 0)
	return b, ok
}

func (r *tracedRemote) Put(kind, key string, payload []byte) error {
	start := time.Now()
	err := r.c.Put(kind, key, payload)
	r.t.inner("remote.put", start, 0)
	return err
}

func (r *tracedRemote) BatchGet(refs []depstore.Ref) (map[depstore.Ref][]byte, bool) {
	start := time.Now()
	got, ok := r.c.BatchGet(refs)
	r.t.inner("remote.batch_get", start, 0)
	if ok {
		r.mu.Lock()
		r.refs, r.got = refs, got
		r.mu.Unlock()
	}
	return got, ok
}

func (r *tracedRemote) BatchPut(recs []depstore.BatchRecord) bool {
	start := time.Now()
	ok := r.c.BatchPut(recs)
	r.t.inner("remote.batch_put", start, 0)
	return ok
}

// middleware times every request fsdepd's handler serves, by route,
// and counts the ones it shed.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		end := time.Now()
		t.requests.Add(1)
		t.mu.Lock()
		t.op++
		t.spans = append(t.spans, span{
			ID: len(t.spans) + 1, Op: t.op, Name: route(r.URL.Path),
			Start: t.us(start), End: t.us(end),
		})
		if sw.status == http.StatusServiceUnavailable {
			t.shed++
		}
		t.mu.Unlock()
	})
}

func route(path string) string {
	switch {
	case path == "/v1/deps":
		return "service.deps"
	case path == "/v1/violations":
		return "service.violations"
	case path == "/v1/store/batch-get":
		return "service.batch_get"
	case strings.HasPrefix(path, "/v1/components/"):
		return "service.upload"
	}
	return "service.other"
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}
