package depstore

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeRemote is an in-memory depstore.Remote for tiering tests.
type fakeRemote struct {
	mu   sync.Mutex
	recs map[string][]byte
	gets int
	puts int
	// putErr, when set, fails every Put.
	putErr error
}

func newFakeRemote() *fakeRemote {
	return &fakeRemote{recs: make(map[string][]byte)}
}

func (f *fakeRemote) Get(kind, key string) ([]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gets++
	p, ok := f.recs[kind+"/"+key]
	return p, ok
}

func (f *fakeRemote) Put(kind, key string, payload []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.puts++
	if f.putErr != nil {
		return f.putErr
	}
	f.recs[kind+"/"+key] = append([]byte(nil), payload...)
	return nil
}

func (f *fakeRemote) BatchGet(refs []Ref) (map[Ref][]byte, bool) {
	out := make(map[Ref][]byte)
	for _, ref := range refs {
		if p, ok := f.Get(ref.Kind, ref.Key); ok {
			out[ref] = p
		}
	}
	return out, true
}

func (f *fakeRemote) BatchPut(recs []BatchRecord) bool {
	for _, rec := range recs {
		if f.Put(rec.Kind, rec.Key, rec.Payload) != nil {
			return false
		}
	}
	return true
}

func TestPutUsesShardedLayout(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := Key("sharded")
	if err := s.Put(KindTaint, k, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	flushT(t, s)
	want := filepath.Join(dir, KindTaint, k[:2], k[2:4], k+".rec")
	if _, err := os.Stat(want); err != nil {
		t.Errorf("record not at sharded path %s: %v", want, err)
	}
}

func TestGetRefreshesMtime(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := Key("touched")
	if err := s.Put(KindTaint, k, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	flushT(t, s)
	past := time.Now().Add(-24 * time.Hour)
	p := s.path(KindTaint, k)
	if err := os.Chtimes(p, past, past); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(KindTaint, k); !ok {
		t.Fatal("record vanished")
	}
	info, err := os.Stat(p)
	if err != nil {
		t.Fatal(err)
	}
	if !info.ModTime().After(past.Add(time.Hour)) {
		t.Errorf("hit did not refresh mtime: still %v", info.ModTime())
	}
}

// ageRecords stamps each of the store's records with a distinct,
// increasing mtime in the given path order.
func ageRecords(t *testing.T, paths []string, base time.Time) {
	t.Helper()
	for i, p := range paths {
		ts := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(p, ts, ts); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEvictDropsLeastRecentlyUsed(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"filler":"xxxxxxxxxxxxxxxx"}`)
	var keys []string
	for i := 0; i < 4; i++ {
		k := Key(fmt.Sprintf("rec-%d", i))
		keys = append(keys, k)
		if err := s.Put(KindTaint, k, payload); err != nil {
			t.Fatal(err)
		}
	}
	flushT(t, s)
	paths := make([]string, len(keys))
	for i, k := range keys {
		paths[i] = s.path(KindTaint, k)
	}
	ageRecords(t, paths, time.Now().Add(-time.Hour))

	info, err := os.Stat(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	// Budget for exactly two records: the two oldest must go.
	n, err := s.Evict(2 * info.Size())
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("evicted %d records, want 2", n)
	}
	for i, p := range paths {
		_, err := os.Stat(p)
		if i < 2 && !os.IsNotExist(err) {
			t.Errorf("old record %d survived eviction", i)
		}
		if i >= 2 && err != nil {
			t.Errorf("recent record %d evicted: %v", i, err)
		}
	}
	if st := s.Stats(); st.Evictions != 2 {
		t.Errorf("stats = %+v, want 2 evictions", st)
	}
}

func TestEvictTieBreaksByPath(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"v":1}`)
	var paths []string
	for i := 0; i < 4; i++ {
		k := Key(fmt.Sprintf("tie-%d", i))
		if err := s.Put(KindTaint, k, payload); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, s.path(KindTaint, k))
	}
	flushT(t, s)
	// Identical mtimes: eviction order must be pure path order.
	ts := time.Now().Add(-time.Hour)
	for _, p := range paths {
		if err := os.Chtimes(p, ts, ts); err != nil {
			t.Fatal(err)
		}
	}
	info, err := os.Stat(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Evict(2 * info.Size()); err != nil {
		t.Fatal(err)
	}
	var survivors []string
	for _, p := range paths {
		if _, err := os.Stat(p); err == nil {
			survivors = append(survivors, p)
		}
	}
	if len(survivors) != 2 {
		t.Fatalf("%d survivors, want 2", len(survivors))
	}
	// The survivors must be the two lexicographically largest paths.
	all := append([]string(nil), paths...)
	for _, sv := range survivors {
		bigger := 0
		for _, p := range all {
			if p > sv {
				bigger++
			}
		}
		if bigger > 1 {
			t.Errorf("survivor %s is not among the two largest paths", sv)
		}
	}
}

func TestEvictNoopsUnderBudgetAndRemoteOnly(t *testing.T) {
	s := openT(t)
	if err := s.Put(KindTaint, Key("small"), []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	flushT(t, s)
	if n, err := s.Evict(1 << 30); err != nil || n != 0 {
		t.Errorf("under-budget evict = %d, %v", n, err)
	}
	ro, err := OpenTiered("", newFakeRemote())
	if err != nil {
		t.Fatal(err)
	}
	if n, err := ro.Evict(1); err != nil || n != 0 {
		t.Errorf("remote-only evict = %d, %v", n, err)
	}
}

func TestTieredRemoteFallThroughAndWriteBack(t *testing.T) {
	rem := newFakeRemote()
	k := Key("warm-elsewhere")
	payload := []byte(`{"from":"daemon"}`)
	rem.recs[KindScenario+"/"+k] = payload

	s, err := OpenTiered(t.TempDir(), rem)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(KindScenario, k)
	if !ok || string(got) != string(payload) {
		t.Fatalf("remote record not served: %q, %v", got, ok)
	}
	st := s.Stats()
	if st.RemoteHits != 1 || st.Hits != 0 || st.Misses != 0 {
		t.Errorf("stats after remote hit = %+v", st)
	}
	// The hit must have been written back: the next Get is local and the
	// remote is not consulted again.
	gets := rem.gets
	if _, ok := s.Get(KindScenario, k); !ok {
		t.Fatal("written-back record missing")
	}
	if rem.gets != gets {
		t.Error("second Get consulted the remote despite local write-back")
	}
	if st := s.Stats(); st.Hits != 1 {
		t.Errorf("stats after write-back = %+v", st)
	}
}

func TestTieredPutWarmsRemote(t *testing.T) {
	rem := newFakeRemote()
	s, err := OpenTiered(t.TempDir(), rem)
	if err != nil {
		t.Fatal(err)
	}
	k := Key("pushed")
	if err := s.Put(KindTaint, k, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	// With a local tier the push is deferred to the next bulk flush.
	if rem.puts != 0 {
		t.Errorf("remote saw %d puts before the flush, want 0", rem.puts)
	}
	flushT(t, s)
	if rem.puts != 1 {
		t.Errorf("remote saw %d puts, want 1", rem.puts)
	}
	if st := s.Stats(); st.Writes != 1 || st.RemoteWrites != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestTieredRemotePutErrorIsNotFatal(t *testing.T) {
	rem := newFakeRemote()
	rem.putErr = fmt.Errorf("daemon gone")
	s, err := OpenTiered(t.TempDir(), rem)
	if err != nil {
		t.Fatal(err)
	}
	// With a local tier the remote failure is counted, not returned: the
	// local write succeeded and the cache contract holds.
	if err := s.Put(KindTaint, Key("local-ok"), []byte(`{"v":1}`)); err != nil {
		t.Fatalf("put with failing remote errored: %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("flush with failing remote errored: %v", err)
	}
	if st := s.Stats(); st.RemoteErrors != 1 || st.Writes != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRemoteOnlyStore(t *testing.T) {
	rem := newFakeRemote()
	s, err := OpenTiered("", rem)
	if err != nil {
		t.Fatal(err)
	}
	if s.HasLocal() || !s.HasRemote() {
		t.Fatalf("tiers: local=%v remote=%v", s.HasLocal(), s.HasRemote())
	}
	k := Key("remote-only")
	payload := []byte(`{"v":1}`)
	if err := s.Put(KindTaint, k, payload); err != nil {
		t.Fatal(err)
	}
	flushT(t, s)
	got, ok := s.Get(KindTaint, k)
	if !ok || string(got) != string(payload) {
		t.Fatalf("get = %q, %v", got, ok)
	}
	if _, ok := s.Get(KindTaint, Key("absent")); ok {
		t.Fatal("absent key reported present")
	}
	st := s.Stats()
	if st.RemoteHits != 1 || st.RemoteMisses != 1 || st.Misses != 1 || st.RemoteWrites != 1 {
		t.Errorf("stats = %+v", st)
	}
	// Remote-only has no disk to fall back on, so a failed push must
	// surface, from the Flush that makes it.
	rem.putErr = fmt.Errorf("daemon gone")
	if err := s.Put(KindTaint, Key("lost"), payload); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err == nil {
		t.Error("remote-only flush swallowed the remote failure")
	}
}

func TestListRecordsListsOneKind(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{Key("first"), Key("second")} {
		if err := s.Put(KindTaint, k, []byte(`{"v":1}`)); err != nil {
			t.Fatal(err)
		}
	}
	// A different kind must not leak into the listing.
	if err := s.Put(KindScenario, Key("other"), []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	flushT(t, s)
	got, err := ListRecords(dir, KindTaint)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("ListRecords = %v, want both taint records", got)
	}
	for _, p := range got {
		if !strings.Contains(p, "taint") {
			t.Errorf("listed record %s is not a taint record", p)
		}
	}
}
