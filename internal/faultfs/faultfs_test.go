package faultfs_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"fsdep/internal/depstore"
	"fsdep/internal/faultfs"
)

// The whole point of the package: it must slot into depstore's seam.
var _ depstore.FS = (*faultfs.FS)(nil)

func TestZeroPlanIsTransparent(t *testing.T) {
	dir := t.TempDir()
	f := faultfs.New(faultfs.Plan{})
	if err := f.MkdirAll(filepath.Join(dir, "a", "b"), 0o755); err != nil {
		t.Fatal(err)
	}
	tmp, err := f.CreateTemp(dir, "x-*.tmp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tmp.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := tmp.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := tmp.Close(); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "a", "b", "final")
	if err := f.Rename(tmp.Name(), dst); err != nil {
		t.Fatal(err)
	}
	got, err := f.ReadFile(dst)
	if err != nil || string(got) != "hello" {
		t.Fatalf("read-back = %q, %v", got, err)
	}
	if err := f.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := f.Remove(dst); err != nil {
		t.Fatal(err)
	}
	if f.Count(faultfs.OpWrite) != 1 || f.Count(faultfs.OpRead) != 1 {
		t.Errorf("counters: writes=%d reads=%d", f.Count(faultfs.OpWrite), f.Count(faultfs.OpRead))
	}
}

func TestPlannedErrorsFireAtExactOps(t *testing.T) {
	dir := t.TempDir()
	f := faultfs.New(faultfs.Plan{Fail: map[faultfs.Op][]uint64{
		faultfs.OpRead:   {2},
		faultfs.OpRename: {1},
	}})
	p := filepath.Join(dir, "f")
	if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadFile(p); err != nil {
		t.Fatalf("read op 1 should pass: %v", err)
	}
	if _, err := f.ReadFile(p); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("read op 2 error = %v, want ErrInjected", err)
	}
	if _, err := f.ReadFile(p); err != nil {
		t.Fatalf("read op 3 should pass: %v", err)
	}
	if err := f.Rename(p, p+"2"); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("rename op 1 error = %v, want ErrInjected", err)
	}
	if _, err := os.Stat(p); err != nil {
		t.Error("injected rename moved the file anyway")
	}
}

func TestTornWritePersistsReplayablePrefix(t *testing.T) {
	payload := []byte("0123456789abcdef0123456789abcdef")
	write := func(seed uint64) []byte {
		t.Helper()
		dir := t.TempDir()
		f := faultfs.New(faultfs.Plan{TornWrites: []uint64{1}, Seed: seed})
		tmp, err := f.CreateTemp(dir, "t-*.tmp")
		if err != nil {
			t.Fatal(err)
		}
		n, err := tmp.Write(payload)
		if !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("torn write error = %v, want ErrInjected", err)
		}
		tmp.Close()
		got, rerr := os.ReadFile(tmp.Name())
		if rerr != nil {
			t.Fatal(rerr)
		}
		if n != len(got) {
			t.Errorf("torn write reported %d bytes, persisted %d", n, len(got))
		}
		return got
	}
	a := write(7)
	b := write(7)
	if string(a) != string(b) {
		t.Errorf("same seed, different torn prefixes: %q vs %q", a, b)
	}
	if len(a) >= len(payload) {
		t.Errorf("torn write persisted the whole payload (%d bytes)", len(a))
	}
	if string(a) != string(payload[:len(a)]) {
		t.Errorf("torn prefix is not a prefix of the payload: %q", a)
	}
}

// TestStoreUnderFaultPlans is the package's core invariant, stated at
// the depstore seam: under ANY injected fault plan, a caller either
// gets byte-identical answers or clean typed errors — never corrupt
// data, and a record the store claims to have put is the record it
// serves. The fsyncs of a commit run concurrently, so which record a
// planned sync fault hits depends on scheduling; every assertion here
// holds for any such assignment.
func TestStoreUnderFaultPlans(t *testing.T) {
	payloadFor := func(i int) []byte {
		return []byte(`{"rec":` + string(rune('0'+i%10)) + `,"pad":"xxxxxxxxxxxxxxxxxxxxxxxx"}`)
	}
	for seed := uint64(1); seed <= 8; seed++ {
		plan := faultfs.Plan{
			Fail: map[faultfs.Op][]uint64{
				faultfs.OpRead:    {2 + seed%3},
				faultfs.OpRename:  {1 + seed%4},
				faultfs.OpChtimes: {1, 3},
				faultfs.OpSync:    {4 + seed%5},
				faultfs.OpMkdir:   {3 + seed%6},
			},
			TornWrites: []uint64{2 + seed%4},
			Seed:       seed,
		}
		f := faultfs.New(plan)
		s, err := depstore.OpenWith(depstore.Options{Dir: t.TempDir(), FS: f})
		if err != nil {
			t.Fatalf("seed %d: open: %v", seed, err)
		}
		keys := make([]string, 12)
		for i := range keys {
			keys[i] = depstore.Key("chaos", string(rune('a'+i)))
			if err := s.Put(depstore.KindTaint, keys[i], payloadFor(i)); err != nil {
				t.Fatalf("seed %d: put %d: %v", seed, i, err)
			}
		}
		if err := s.Flush(); err != nil && !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("seed %d: flush failed with a non-injected error: %v", seed, err)
		}
		for i, k := range keys {
			got, ok := s.Get(depstore.KindTaint, k)
			if !ok {
				continue // a miss (injected read failure or failed Put) is clean
			}
			if string(got) != string(payloadFor(i)) {
				t.Fatalf("seed %d: key %d served corrupt data: %q", seed, i, got)
			}
		}
		// Whatever the plan did, a scrub pass followed by a re-put of
		// every key must converge the store back to all-hits.
		if _, err := s.Scrub(depstore.ScrubOptions{}); err != nil {
			t.Fatalf("seed %d: scrub: %v", seed, err)
		}
		clean, err := depstore.OpenWith(depstore.Options{Dir: s.Dir()})
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			if err := clean.Put(depstore.KindTaint, k, payloadFor(i)); err != nil {
				t.Fatalf("seed %d: healing put: %v", seed, err)
			}
		}
		if err := clean.Flush(); err != nil {
			t.Fatalf("seed %d: healing flush: %v", seed, err)
		}
		for i, k := range keys {
			got, ok := clean.Get(depstore.KindTaint, k)
			if !ok || string(got) != string(payloadFor(i)) {
				t.Fatalf("seed %d: store did not converge after scrub+re-put: key %d = %q, %v", seed, i, got, ok)
			}
		}
	}
}
