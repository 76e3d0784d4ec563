// Size-bounded eviction: a store shared by a CI fleet grows without
// limit unless someone trims it, and the trim must be deterministic so
// two daemons (or a daemon and an operator) racing an eviction agree on
// which records go. The LRU signal is the record's mtime, refreshed in
// place by every validated Get (store.go); ties — common right after a
// cold bulk import, where a whole directory shares one timestamp
// second — break by path, so eviction order is a pure function of the
// directory state.

package depstore

import (
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// recordInfo is one on-disk record considered for eviction.
type recordInfo struct {
	path  string
	size  int64
	mtime time.Time
}

// Evict deletes least-recently-used records from the local tier until
// its total size is at most maxBytes, and returns how many records
// were deleted. Every record file under the root competes in one LRU
// order: oldest mtime first, ties broken by path.
// Remote-only stores and non-positive budgets with an empty store are
// no-ops. Concurrent readers are safe — an unlinked record simply
// reads as a miss, which re-extracts — and races with other evictors
// are benign (a record already gone counts as evicted by the other).
func (s *Store) Evict(maxBytes int64) (int, error) {
	if s.dir == "" {
		return 0, nil
	}
	recs, total, err := s.scan()
	if err != nil {
		return 0, err
	}
	if total <= maxBytes {
		return 0, nil
	}
	sort.Slice(recs, func(i, j int) bool {
		if !recs[i].mtime.Equal(recs[j].mtime) {
			return recs[i].mtime.Before(recs[j].mtime)
		}
		return recs[i].path < recs[j].path
	})
	evicted := 0
	for _, r := range recs {
		if total <= maxBytes {
			break
		}
		if err := s.fsys.Remove(r.path); err != nil && !os.IsNotExist(err) {
			return evicted, err
		}
		total -= r.size
		evicted++
		atomic.AddUint64(&s.evictions, 1)
	}
	// Fan-out directories left empty are harmless; leaving them avoids
	// racing a concurrent Put's MkdirAll.
	return evicted, nil
}

// scan collects every record file in the local tier with its size and
// mtime. Temp files (in-flight Puts) are skipped.
func (s *Store) scan() ([]recordInfo, int64, error) {
	var recs []recordInfo
	var total int64
	err := s.fsys.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil // raced with an eviction or rename
			}
			return err
		}
		if d.IsDir() {
			if path == filepath.Join(s.dir, QuarantineDir) {
				// Quarantined records are post-mortem evidence, not cache
				// contents; they don't compete for the LRU budget.
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".rec") {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		recs = append(recs, recordInfo{path: path, size: info.Size(), mtime: info.ModTime()})
		total += info.Size()
		return nil
	})
	return recs, total, err
}

// ListRecords returns the paths of every record of the given kind
// under dir, sorted. It exists for tests and tooling that need to
// inspect or prune a cache directory without hard-coding the layout.
func ListRecords(dir, kind string) ([]string, error) {
	out, err := filepath.Glob(filepath.Join(dir, kind, "*", "*", "*.rec"))
	sort.Strings(out)
	return out, err
}
