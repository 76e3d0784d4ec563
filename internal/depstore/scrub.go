// Self-healing scrub. A corrupt, torn, or version-skewed record is
// refused by every Get — correct, but the refusal repeats forever: the
// record sits on disk re-failing validation on every lookup, burning a
// read, a parse, and a checksum each time. Scrub walks the local tier
// once, re-validates every record exactly the way Get does, and
// removes — or quarantines, for post-mortem — the ones that can never
// be served again, including records left outside the store's layout
// (such as a pre-fan-out cache's flat kind-key.rec files), so the
// store converges back to all-valid after any crash, corruption, or
// upgrade. It also deletes the temp files of commits that never
// finished — a process killed between its Puts and their Flush leaves
// them behind — once they are old enough that no live commit can own
// them. fsdepd runs it at startup with -scrub and on demand via
// POST /v1/scrub.

package depstore

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// QuarantineDir is the subdirectory of the store root that ScrubQ
// moves refused records into. Scrub and Evict skip it.
const QuarantineDir = "quarantine"

// staleTempAge is the age past which Scrub deletes a temp file. A
// commit's temp files live from its Puts to its Flush, which an
// analysis run spaces by far less than this.
const staleTempAge = time.Hour

// ScrubOptions configures a scrub pass.
type ScrubOptions struct {
	// Quarantine moves refused records into the store's quarantine/
	// directory instead of deleting them, preserving the bytes for
	// post-mortem analysis. Quarantined records never shadow lookups:
	// the store only reads record layouts, never quarantine/.
	Quarantine bool
}

// ScrubReport counts what one scrub pass observed. Removed plus
// Quarantined equals the number of refused records that were healed;
// StaleTemps counts the abandoned temp files deleted; Errors counts
// files the pass could neither validate nor move (they stay for the
// next pass).
type ScrubReport struct {
	Scanned      int `json:"scanned"`
	Valid        int `json:"valid"`
	Corrupt      int `json:"corrupt"`
	VersionSkew  int `json:"version_skew"`
	KindMismatch int `json:"kind_mismatch"`
	Removed      int `json:"removed"`
	Quarantined  int `json:"quarantined"`
	StaleTemps   int `json:"stale_temps"`
	Errors       int `json:"errors"`
}

// Bad returns how many refused records the pass found.
func (r ScrubReport) Bad() int { return r.Corrupt + r.VersionSkew + r.KindMismatch }

// Scrub re-validates every record in the local tier and deletes — or,
// with opts.Quarantine, moves aside — every record that Get would
// refuse or can never reach: unparseable or torn envelopes, checksum
// failures, format-version skew, and records whose envelope kind
// disagrees with their on-disk location or that sit outside
// kind/ab/cd/key.rec. Valid records are untouched. Temp files older
// than staleTempAge are deleted; younger ones stay, so a scrub never
// races the rename of a commit in flight.
// Remote-only stores are a no-op. Safe to run on a live store:
// concurrent Gets of a record being removed degrade to a clean miss.
func (s *Store) Scrub(opts ScrubOptions) (ScrubReport, error) {
	var rep ScrubReport
	if s.dir == "" {
		return rep, nil
	}
	qdir := filepath.Join(s.dir, QuarantineDir)
	walkErr := s.fsys.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil // raced with an eviction or a concurrent scrub
			}
			return err
		}
		if d.IsDir() {
			if path == qdir {
				return fs.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".tmp") {
			s.removeIfStale(path, d, &rep)
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".rec") {
			return nil
		}
		rep.Scanned++
		verdict := s.validateRecord(path)
		if verdict == recordOK {
			rep.Valid++
			return nil
		}
		if verdict == recordUnreadable {
			rep.Errors++
			return nil
		}
		switch verdict {
		case recordCorrupt:
			rep.Corrupt++
		case recordVersionSkew:
			rep.VersionSkew++
		case recordKindMismatch:
			rep.KindMismatch++
		}
		if opts.Quarantine {
			if err := s.quarantine(path, qdir); err != nil {
				rep.Errors++
				return nil
			}
			rep.Quarantined++
			return nil
		}
		if err := s.fsys.Remove(path); err != nil && !os.IsNotExist(err) {
			rep.Errors++
			return nil
		}
		rep.Removed++
		return nil
	})
	return rep, walkErr
}

// removeIfStale deletes a temp file older than staleTempAge.
func (s *Store) removeIfStale(path string, d fs.DirEntry, rep *ScrubReport) {
	info, err := d.Info()
	if err != nil || time.Since(info.ModTime()) < staleTempAge {
		return // gone already, or possibly a live commit's
	}
	if err := s.fsys.Remove(path); err != nil && !os.IsNotExist(err) {
		rep.Errors++
		return
	}
	rep.StaleTemps++
}

// recordVerdict classifies one on-disk record during a scrub.
type recordVerdict uint8

const (
	recordOK recordVerdict = iota
	recordUnreadable
	recordCorrupt
	recordVersionSkew
	recordKindMismatch
)

// validateRecord applies exactly Get's refusal checks to the record at
// path, deriving the expected kind from the record's location so a
// record misfiled under the wrong kind directory — or outside the
// layout altogether — is caught too.
func (s *Store) validateRecord(path string) recordVerdict {
	raw, err := s.fsys.ReadFile(path)
	if err != nil {
		return recordUnreadable
	}
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return recordCorrupt // torn: the header line never finished
	}
	var env envelope
	if err := json.Unmarshal(raw[:nl], &env); err != nil {
		return recordCorrupt
	}
	if env.Format != formatVersion {
		return recordVersionSkew
	}
	if want, ok := s.kindOf(path); !ok || env.Kind != want {
		return recordKindMismatch
	}
	if payloadSum(raw[nl+1:]) != env.Sum {
		return recordCorrupt
	}
	return recordOK
}

// kindOf derives the kind a record at path claims by its location,
// dir/kind/ab/cd/key.rec. A record anywhere else — a flat pre-fan-out
// file, a key under the wrong fan-out directories — reports !ok: no
// Get can ever reach it.
func (s *Store) kindOf(path string) (string, bool) {
	rel, err := filepath.Rel(s.dir, path)
	if err != nil {
		return "", false
	}
	parts := strings.Split(rel, string(filepath.Separator))
	if len(parts) != 4 {
		return "", false
	}
	kind, key := parts[0], strings.TrimSuffix(parts[3], ".rec")
	return kind, len(key) >= 4 && s.path(kind, key) == path
}

// quarantine moves one refused record into qdir, flattening its path
// into a single file name.
func (s *Store) quarantine(path, qdir string) error {
	if err := s.fsys.MkdirAll(qdir, 0o755); err != nil {
		return err
	}
	rel, err := filepath.Rel(s.dir, path)
	if err != nil {
		rel = filepath.Base(path)
	}
	flat := strings.ReplaceAll(rel, string(filepath.Separator), "_")
	return s.fsys.Rename(path, filepath.Join(qdir, flat))
}
