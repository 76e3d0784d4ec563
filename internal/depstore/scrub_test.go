package depstore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// seedScrubStore builds a store holding one valid record per kind plus
// four flavors of bad record: corrupt interior (checksum mismatch),
// torn (header line never terminated), version-skewed, and
// kind-mismatched. Returns the store and the keys of the good records.
func seedScrubStore(t *testing.T) (*Store, map[string]string) {
	t.Helper()
	s := openT(t)
	good := map[string]string{
		KindTaint:    Key("good-taint"),
		KindScenario: Key("good-scenario"),
	}
	for kind, k := range good {
		if err := s.Put(kind, k, []byte(`{"ok":true}`)); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt interior: valid header, payload bytes swapped.
	k := Key("corrupt-interior")
	if err := s.Put(KindTaint, k, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	flushT(t, s)
	whole, err := os.ReadFile(s.path(KindTaint, k))
	if err != nil {
		t.Fatal(err)
	}
	nl := strings.IndexByte(string(whole), '\n')
	corruptRecord(t, s, KindTaint, k, append(append([]byte{}, whole[:nl+1]...), []byte(`{"v":2}`)...))
	// Torn: the write died before the header line finished.
	corruptRecord(t, s, KindTaint, Key("torn"), whole[:nl/2])
	// Version skew: a future (or ancient) format number.
	env := envelope{Format: formatVersion + 7, Kind: KindTaint, Sum: payloadSum([]byte(`{}`))}
	header, err := json.Marshal(&env)
	if err != nil {
		t.Fatal(err)
	}
	corruptRecord(t, s, KindTaint, Key("skewed"), append(append(header, '\n'), []byte(`{}`)...))
	// Kind mismatch: a well-formed scenario record misfiled under taint/.
	k = Key("misfiled")
	if err := s.Put(KindScenario, k, []byte(`{"v":3}`)); err != nil {
		t.Fatal(err)
	}
	flushT(t, s)
	dst := s.path(KindTaint, k)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(s.path(KindScenario, k), dst); err != nil {
		t.Fatal(err)
	}
	return s, good
}

func TestScrubRemovesExactlyTheBadRecords(t *testing.T) {
	s, good := seedScrubStore(t)
	rep, err := s.Scrub(ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != 6 || rep.Valid != 2 {
		t.Errorf("report = %+v, want 6 scanned / 2 valid", rep)
	}
	if rep.Corrupt != 2 || rep.VersionSkew != 1 || rep.KindMismatch != 1 {
		t.Errorf("report = %+v, want 2 corrupt, 1 skew, 1 mismatch", rep)
	}
	if rep.Removed != 4 || rep.Quarantined != 0 || rep.Errors != 0 {
		t.Errorf("report = %+v, want all 4 bad records removed", rep)
	}
	// The good records still answer; the bad ones are gone from disk.
	for kind, k := range good {
		if _, ok := s.Get(kind, k); !ok {
			t.Errorf("scrub removed a valid %s record", kind)
		}
	}
	var left int
	filepath.WalkDir(s.dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(d.Name(), ".rec") {
			left++
		}
		return nil
	})
	if left != 2 {
		t.Errorf("%d records left on disk, want the 2 valid ones", left)
	}
	// A second pass finds a clean store.
	rep, err = s.Scrub(ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != 2 || rep.Valid != 2 || rep.Bad() != 0 {
		t.Errorf("second pass = %+v, want all-valid", rep)
	}
}

func TestScrubQuarantinePreservesBytes(t *testing.T) {
	s, _ := seedScrubStore(t)
	rep, err := s.Scrub(ScrubOptions{Quarantine: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined != 4 || rep.Removed != 0 {
		t.Errorf("report = %+v, want 4 quarantined", rep)
	}
	entries, err := os.ReadDir(filepath.Join(s.dir, QuarantineDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("quarantine holds %d files, want 4", len(entries))
	}
	// Quarantined records are out of every lookup and scrub path: a
	// follow-up pass sees only the valid records.
	rep, err = s.Scrub(ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != 2 || rep.Bad() != 0 {
		t.Errorf("post-quarantine pass = %+v", rep)
	}
	// And Evict ignores them too.
	if n, err := s.Evict(1); err != nil || n != 2 {
		t.Errorf("evict after quarantine = %d, %v; want only the 2 live records considered", n, err)
	}
}

func TestScrubHealsTheRepeatedInvalidation(t *testing.T) {
	// The pre-scrub pathology: a corrupt record re-fails validation on
	// every single Get, forever. After a scrub it is a plain miss and a
	// re-Put repopulates it.
	s := openT(t)
	k := Key("wedged")
	if err := s.Put(KindTaint, k, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	flushT(t, s)
	corruptRecord(t, s, KindTaint, k, []byte("garbage"))
	for i := 0; i < 3; i++ {
		if _, ok := s.Get(KindTaint, k); ok {
			t.Fatal("corrupt record served")
		}
	}
	if st := s.Stats(); st.Invalidations != 3 {
		t.Fatalf("stats = %+v: every Get re-paid the invalidation", st)
	}
	if _, err := s.Scrub(ScrubOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(KindTaint, k); ok {
		t.Fatal("scrubbed record served")
	}
	if st := s.Stats(); st.Invalidations != 3 {
		t.Errorf("stats = %+v: post-scrub Get still pays an invalidation", st)
	}
	if err := s.Put(KindTaint, k, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	flushT(t, s)
	if _, ok := s.Get(KindTaint, k); !ok {
		t.Error("store did not heal after scrub + re-put")
	}
}

func TestScrubRemoteOnlyAndLegacyLayout(t *testing.T) {
	ro, err := OpenTiered("", newFakeRemote())
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := ro.Scrub(ScrubOptions{}); err != nil || rep.Scanned != 0 {
		t.Errorf("remote-only scrub = %+v, %v", rep, err)
	}
	// Records outside kind/ab/cd/key.rec are unreachable by Get, so even
	// well-formed ones are refused and removed: a pre-fan-out flat
	// record (kind-key.rec in the root) and one filed under the wrong
	// fan-out directories.
	s := openT(t)
	flat, misfanned := Key("legacy"), Key("misfanned")
	for _, k := range []string{flat, misfanned} {
		if err := s.Put(KindTaint, k, []byte(`{"v":1}`)); err != nil {
			t.Fatal(err)
		}
	}
	flushT(t, s)
	flatPath := filepath.Join(s.dir, KindTaint+"-"+flat+".rec")
	if err := os.Rename(s.path(KindTaint, flat), flatPath); err != nil {
		t.Fatal(err)
	}
	wrongDir := filepath.Join(s.dir, KindTaint, "zz", "zz")
	if err := os.MkdirAll(wrongDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(s.path(KindTaint, misfanned), filepath.Join(wrongDir, misfanned+".rec")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.dir, KindTaint+"-"+Key("legacy-bad")+".rec"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Scrub(ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != 3 || rep.Valid != 0 || rep.KindMismatch != 2 || rep.Corrupt != 1 || rep.Removed != 3 {
		t.Errorf("legacy scrub = %+v, want 3 scanned / 2 kind mismatches / 1 corrupt / 3 removed", rep)
	}
	if _, err := os.Stat(flatPath); !os.IsNotExist(err) {
		t.Errorf("flat record survived the scrub: %v", err)
	}
}

// TestEvictRacingGetPut: eviction mid-read must look like a clean miss,
// never a partial record. Writers re-put, readers validate, an evictor
// trims to near-zero continuously — nothing may tear, error, or count
// an invalidation.
func TestEvictRacingGetPut(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 4
	payloads := make(map[string][]byte, keys)
	keyOf := make([]string, keys)
	for i := 0; i < keys; i++ {
		keyOf[i] = Key("race", string(rune('a'+i)))
		payloads[keyOf[i]] = []byte(`{"k":"` + string(rune('a'+i)) + `","pad":"` + strings.Repeat("x", 128) + `"}`)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := keyOf[(i+w)%keys]
				if err := s.Put(KindTaint, k, payloads[k]); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if err := s.Flush(); err != nil {
					t.Errorf("flush: %v", err)
					return
				}
				if got, ok := s.Get(KindTaint, k); ok && string(got) != string(payloads[k]) {
					t.Errorf("partial or foreign record under %s: %q", k, got)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.Evict(1); err != nil {
				t.Errorf("evict: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		k := keyOf[i%keys]
		if got, ok := s.Get(KindTaint, k); ok && string(got) != string(payloads[k]) {
			t.Fatalf("reader saw a torn record under %s: %q", k, got)
		}
	}
	close(stop)
	wg.Wait()
	if st := s.Stats(); st.Invalidations != 0 {
		t.Errorf("stats = %+v: eviction races produced invalidations, not clean misses", st)
	}
}
