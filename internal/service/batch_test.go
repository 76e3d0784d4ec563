// Chaos contract tests for the store protocol: every way a batch
// transfer can go wrong — mid-stream truncation, a corrupted frame,
// compressed garbage, a frame nobody asked for, an open breaker — must
// yield a clean client-side refusal with zero records admitted to any
// tier and nothing written outside the cache directory.

package service

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fsdep/internal/depstore"
	"fsdep/internal/depstore/remote"
	"fsdep/internal/depstore/wire"
	"fsdep/internal/faultfs"
)

// batchFixture seeds n distinct records (valid refs, compressible
// payloads) and returns their refs in order.
func batchFixture(n int) ([]depstore.BatchRecord, []depstore.Ref) {
	recs := make([]depstore.BatchRecord, n)
	refs := make([]depstore.Ref, n)
	for i := range recs {
		ref := depstore.Ref{
			Kind: depstore.KindTaint,
			Key:  depstore.Key(fmt.Sprintf("batch-fixture-%d", i)),
		}
		payload := []byte(strings.Repeat(fmt.Sprintf(`{"rec":%d,"deps":["a","b"]}`, i), 20))
		recs[i] = depstore.BatchRecord{Ref: ref, Payload: payload}
		refs[i] = ref
	}
	return recs, refs
}

func TestBatchRoundTrip(t *testing.T) {
	_, store, ts := newServerT(t)
	c := remote.New(ts.URL)
	recs, refs := batchFixture(5)

	if !c.BatchPut(recs) {
		t.Fatal("BatchPut against a batch-capable daemon failed")
	}
	for _, rec := range recs {
		got, ok := store.Get(rec.Kind, rec.Key)
		if !ok || !bytes.Equal(got, rec.Payload) {
			t.Fatalf("server store missing or wrong payload for %s/%s", rec.Kind, rec.Key)
		}
	}

	// Ask for every stored ref plus one the server does not have: the
	// answer must cover all of them, the miss as an explicit absence.
	missing := depstore.Ref{Kind: depstore.KindTaint, Key: depstore.Key("never-stored")}
	got, ok := c.BatchGet(append(append([]depstore.Ref{}, refs...), missing))
	if !ok {
		t.Fatal("BatchGet against a batch-capable daemon failed")
	}
	if len(got) != len(recs) {
		t.Fatalf("BatchGet returned %d records, want %d", len(got), len(recs))
	}
	for _, rec := range recs {
		if !bytes.Equal(got[rec.Ref], rec.Payload) {
			t.Fatalf("BatchGet payload mismatch for %s/%s", rec.Kind, rec.Key)
		}
	}
	if _, have := got[missing]; have {
		t.Fatal("BatchGet fabricated a record for a ref the server never had")
	}

	bs := c.Stats()
	// The client counts wire frames, and the explicit-absence frame for
	// the missing ref is one of them.
	wantFrames := uint64(2*len(recs) + 1)
	if bs.Batches != 2 || bs.BatchRecords != wantFrames {
		t.Fatalf("client batch stats = %d batches / %d records, want 2 / %d", bs.Batches, bs.BatchRecords, wantFrames)
	}
	if bs.RoundTrips != 2 {
		t.Fatalf("two bulk transfers took %d round trips, want 2", bs.RoundTrips)
	}
	if bs.RawBytes == 0 || bs.WireBytes == 0 || bs.WireBytes >= bs.RawBytes {
		t.Fatalf("compression stats raw=%d wire=%d: want 0 < wire < raw for repetitive payloads", bs.RawBytes, bs.WireBytes)
	}

	var st statsResponse
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &st)
	if st.Service.BatchGets != 1 || st.Service.BatchPuts != 1 {
		t.Fatalf("service stats = %d batch gets / %d batch puts, want 1 / 1", st.Service.BatchGets, st.Service.BatchPuts)
	}
	if st.Service.BatchRecords != uint64(2*len(recs)) {
		t.Fatalf("service batch records = %d, want %d", st.Service.BatchRecords, 2*len(recs))
	}
	if st.Service.BatchWireBytes == 0 || st.Service.BatchWireBytes >= st.Service.BatchRawBytes {
		t.Fatalf("service compression stats raw=%d wire=%d", st.Service.BatchRawBytes, st.Service.BatchWireBytes)
	}
}

// TestBatchPutAcknowledgesCommittedRecords: a 204 means the batch is on
// disk, not just in the daemon's memory — a second store opened on the
// daemon's directory, sharing nothing else with it, hits every record.
func TestBatchPutAcknowledgesCommittedRecords(t *testing.T) {
	_, store, ts := newServerT(t)
	recs, _ := batchFixture(5)
	if !remote.New(ts.URL).BatchPut(recs) {
		t.Fatal("BatchPut failed")
	}
	other, err := depstore.Open(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		got, ok := other.Get(rec.Kind, rec.Key)
		if !ok || !bytes.Equal(got, rec.Payload) {
			t.Fatalf("acknowledged record %s/%s not on disk", rec.Kind, rec.Key)
		}
	}
}

// TestBatchPutCommitFailureIs500: a batch the store cannot commit is
// refused with a 500, never acknowledged.
func TestBatchPutCommitFailureIs500(t *testing.T) {
	f := faultfs.New(faultfs.Plan{Fail: map[faultfs.Op][]uint64{faultfs.OpRename: {2}}})
	store, err := depstore.OpenWith(depstore.Options{Dir: t.TempDir(), FS: f})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(nil, store, nil, "test").Handler())
	defer ts.Close()
	recs, _ := batchFixture(3)
	stream := make([]wire.Record, len(recs))
	for i, rec := range recs {
		stream[i] = wire.Record{Kind: rec.Kind, Key: rec.Key, Payload: rec.Payload}
	}
	var body bytes.Buffer
	if err := wire.Write(&body, stream); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/store/batch-put", "application/octet-stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("batch-put with a failed rename = %d, want 500", resp.StatusCode)
	}
	if f.Count(faultfs.OpRename) != 3 {
		t.Errorf("%d renames, want the whole batch attempted", f.Count(faultfs.OpRename))
	}
}

// TestLargeBatchPutIsBounded: a batch-put of a few hundred records is
// acknowledged and on disk, yet the store never held more than one
// commit group's worth of temp files open, nor had more fsyncs in
// flight than that. Each sync is slowed so that an unbounded commit
// would show its overlap.
func TestLargeBatchPutIsBounded(t *testing.T) {
	const groupSize = 64 // depstore's commit group, and its fsync bound
	f := &boundFS{delay: time.Millisecond}
	store, err := depstore.OpenWith(depstore.Options{Dir: t.TempDir(), FS: f})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(nil, store, nil, "test").Handler())
	defer ts.Close()
	recs, _ := batchFixture(300)
	if !remote.New(ts.URL).BatchPut(recs) {
		t.Fatal("BatchPut of 300 records failed")
	}
	other, err := depstore.Open(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if got, ok := other.Get(rec.Kind, rec.Key); !ok || !bytes.Equal(got, rec.Payload) {
			t.Fatalf("acknowledged record %s/%s not on disk", rec.Kind, rec.Key)
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.maxOpen > groupSize {
		t.Errorf("%d temp files open at once, want at most %d", f.maxOpen, groupSize)
	}
	if f.maxSyncs > groupSize {
		t.Errorf("%d fsyncs in flight at once, want at most %d", f.maxSyncs, groupSize)
	}
	if f.open != 0 {
		t.Errorf("%d temp files left open", f.open)
	}
}

// boundFS is the real filesystem, recording the most temp files held
// open and the most file and directory fsyncs in flight at one time.
// Every fsync first sleeps for delay.
type boundFS struct {
	depstore.OSFS
	delay             time.Duration
	mu                sync.Mutex
	open, syncs       int
	maxOpen, maxSyncs int
}

func (f *boundFS) count(n, peak *int, d int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	*n += d
	*peak = max(*peak, *n)
}

func (f *boundFS) CreateTemp(dir, pattern string) (depstore.File, error) {
	file, err := f.OSFS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	f.count(&f.open, &f.maxOpen, 1)
	return boundFile{File: file, fs: f}, nil
}

func (f *boundFS) SyncDir(path string) error {
	return f.sync(func() error { return f.OSFS.SyncDir(path) })
}

func (f *boundFS) sync(op func() error) error {
	f.count(&f.syncs, &f.maxSyncs, 1)
	defer f.count(&f.syncs, &f.maxSyncs, -1)
	time.Sleep(f.delay)
	return op()
}

type boundFile struct {
	depstore.File
	fs *boundFS
}

func (b boundFile) Sync() error { return b.fs.sync(b.File.Sync) }

func (b boundFile) Close() error {
	b.fs.count(&b.fs.open, &b.fs.maxOpen, -1)
	return b.File.Close()
}

func TestPrefetchWarmsEveryTier(t *testing.T) {
	_, store, ts := newServerT(t)
	recs, refs := batchFixture(4)
	for _, rec := range recs {
		if err := store.Put(rec.Kind, rec.Key, rec.Payload); err != nil {
			t.Fatal(err)
		}
	}

	c := remote.New(ts.URL)
	local, err := depstore.OpenWith(depstore.Options{Dir: t.TempDir(), Remote: c, HotRecords: 8})
	if err != nil {
		t.Fatal(err)
	}
	local.Prefetch(refs)
	if got := local.Stats().Prefetched; got != uint64(len(refs)) {
		t.Fatalf("prefetched %d records, want %d", got, len(refs))
	}
	rt := c.Stats().RoundTrips
	if rt != 1 {
		t.Fatalf("prefetch took %d round trips, want 1", rt)
	}
	// Every subsequent Get is answered in-process: no new round trips.
	for _, rec := range recs {
		got, ok := local.Get(rec.Kind, rec.Key)
		if !ok || !bytes.Equal(got, rec.Payload) {
			t.Fatalf("post-prefetch Get missed %s/%s", rec.Kind, rec.Key)
		}
	}
	if got := c.Stats().RoundTrips; got != rt {
		t.Fatalf("warm Gets paid %d extra round trips", got-rt)
	}
	if hot := local.Stats().HotHits; hot != uint64(len(recs)) {
		t.Fatalf("hot tier answered %d of %d warm Gets", hot, len(recs))
	}
}

// mangleBatchGet wraps a service handler, rewriting successful
// batch-get response bodies through mangle (headers pass through, so
// the gzip negotiation stays honest).
func mangleBatchGet(inner http.Handler, mangle func([]byte) []byte) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/store/batch-get" {
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r)
			for k, vs := range rec.Header() {
				for _, v := range vs {
					w.Header().Add(k, v)
				}
			}
			// The body is rewritten, so the recorded length is wrong.
			w.Header().Del("Content-Length")
			w.WriteHeader(rec.Code)
			w.Write(mangle(rec.Body.Bytes()))
			return
		}
		inner.ServeHTTP(w, r)
	})
}

// assertBatchRefused drives a prefetch against a mangled daemon and
// asserts the full contract: BatchGet refuses, nothing is admitted to
// the local tier or written anywhere else, and the breaker records a
// healthy exchange (payload damage is not daemon death).
func assertBatchRefused(t *testing.T, name string, mangle func([]byte) []byte) {
	t.Helper()
	_, store, _ := newServerT(t)
	recs, refs := batchFixture(4)
	for _, rec := range recs {
		if err := store.Put(rec.Kind, rec.Key, rec.Payload); err != nil {
			t.Fatal(err)
		}
	}
	mts := httptest.NewServer(mangleBatchGet(NewServer(nil, store, nil, "test").Handler(), mangle))
	defer mts.Close()

	// The cache sits deep inside its own temporary root, so a record
	// filed under a key that walks out of the cache still lands where
	// the final check can see it.
	root := t.TempDir()
	cache := filepath.Join(root, "1", "2", "3", "4", "5", "6", "cache")
	c := remote.New(mts.URL)
	local, err := depstore.OpenWith(depstore.Options{Dir: cache, Remote: c, HotRecords: 8})
	if err != nil {
		t.Fatal(err)
	}
	local.Prefetch(refs)
	if _, ok := c.BatchGet(refs); ok {
		t.Errorf("%s: BatchGet accepted a damaged stream", name)
	}
	// There is no other protocol to fall back to: a single Get through
	// the same damaged daemon is a clean miss and admits nothing.
	if _, ok := local.Get(recs[0].Kind, recs[0].Key); ok {
		t.Errorf("%s: Get served a record from a damaged stream", name)
	}
	st := local.Stats()
	if st.Prefetched != 0 || st.Writes != 0 || st.RemoteHits != 0 {
		t.Errorf("%s: damaged batch admitted records (prefetched=%d writes=%d remote hits=%d)",
			name, st.Prefetched, st.Writes, st.RemoteHits)
	}
	bs := c.Stats()
	if bs.State != "closed" {
		t.Errorf("%s: payload damage tripped the breaker to %s", name, bs.State)
	}
	if bs.Batches != 0 {
		t.Errorf("%s: refused transfers counted as completed batches", name)
	}
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && !strings.HasPrefix(path, cache+string(filepath.Separator)) {
			t.Errorf("%s: batch answer wrote %s outside the cache directory", name, path)
		}
		return nil
	})
}

func TestBatchGetTruncationRefused(t *testing.T) {
	assertBatchRefused(t, "truncation", func(b []byte) []byte { return b[:len(b)/2] })
}

func TestBatchGetCorruptionRefused(t *testing.T) {
	assertBatchRefused(t, "corruption", func(b []byte) []byte {
		mut := append([]byte(nil), b...)
		mut[len(mut)/2] ^= 0xff
		return mut
	})
}

func TestBatchGetGzipGarbageRefused(t *testing.T) {
	// Keep the gzip Content-Encoding header but replace the body with
	// bytes that are not a gzip stream at all.
	assertBatchRefused(t, "gzip-garbage", func([]byte) []byte {
		return []byte("this is not a gzip stream, sorry about that")
	})
}

// TestBatchGetUnrequestedFrameRefused: an answer carrying a frame for a
// ref the client never asked for — keyed to walk out of the cache
// directory — is refused whole, so the daemon can never choose the path
// a record is written to.
func TestBatchGetUnrequestedFrameRefused(t *testing.T) {
	assertBatchRefused(t, "unrequested-frame", func(b []byte) []byte {
		gz, err := gzip.NewReader(bytes.NewReader(b))
		if err != nil {
			t.Error(err)
			return b
		}
		recs, err := wire.ReadAll(gz, 0)
		if err != nil {
			t.Error(err)
			return b
		}
		recs = append(recs, wire.Record{
			Kind: depstore.KindTaint, Key: "....//../../../../pwned", Payload: []byte(`{"pwned":true}`),
		})
		var out bytes.Buffer
		zw := gzip.NewWriter(&out)
		if err := wire.Write(zw, recs); err != nil {
			t.Error(err)
		}
		zw.Close()
		return out.Bytes()
	})
}

func TestBatchShortCircuitsOpenBreaker(t *testing.T) {
	// A server that always 500s: one failed request opens the
	// threshold-1 breaker, and with an hour's cooldown it stays open.
	fails := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer fails.Close()
	c := remote.NewWithConfig(fails.URL, remote.Config{
		MaxRetries: -1,
		Threshold:  1,
		Cooldown:   time.Hour,
	})
	if _, ok := c.Get(depstore.KindTaint, depstore.Key("trip")); ok {
		t.Fatal("Get against a 500ing server succeeded")
	}
	if c.Stats().State != "open" {
		t.Fatalf("breaker %s after threshold failures, want open", c.Stats().State)
	}
	rt := c.Stats().RoundTrips
	recs, refs := batchFixture(2)
	if _, ok := c.BatchGet(refs); ok {
		t.Fatal("BatchGet through an open breaker succeeded")
	}
	if c.BatchPut(recs) {
		t.Fatal("BatchPut through an open breaker succeeded")
	}
	if got := c.Stats().RoundTrips; got != rt {
		t.Fatalf("open breaker let %d batch round trips through", got-rt)
	}
}
