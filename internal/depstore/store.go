// Package depstore is the persistent, content-addressed extraction
// cache: it serializes per-component taint results, inter-procedural
// summary tables, and whole-scenario dependency extractions to an
// on-disk directory so repeated fsdep invocations over unchanged
// sources warm-start instead of re-analyzing the world.
//
// Records are addressed by a caller-derived key — a sha256 over the
// component's content hash joined with the canonical analysis
// signature (internal/core's taint memo key), so any change to a
// source, parameter list, or analysis option lands on a different
// address and stale records are simply never read again. Each record
// is one file: a versioned JSON header line carrying a checksum,
// followed by the raw payload bytes (kept outside the header's JSON so
// warm loads parse the payload exactly once, in the caller's decode).
// Writes are group commits: each Put writes a temp file in call order
// and fsyncs it in the background, and Flush renames the group into
// place in the same order and syncs each changed directory once, so
// concurrent processes sharing a cache directory see either a complete
// record or none, and a flushed record survives a host crash. Loads
// refuse corruption the same way internal/checkpoint refuses torn
// journal tails: a record that fails to parse, carries an unknown
// format version, or does not match its checksum is treated as absent
// (counted as an invalidation), never as an error — the caller falls
// back to cold extraction.
//
// On disk, records fan out two levels by key prefix
// (kind/ab/cd/key.rec) so a store shared by a fleet never piles tens
// of thousands of files into one directory; that is the only layout
// read. Every hit refreshes the record's timestamp in place (no
// rename), giving Evict an LRU signal, and a Store can carry a Remote
// tier — typically a running fsdepd, via internal/depstore/remote —
// bulk-prefetched ahead of a run, consulted on local miss, and warmed
// by batched Puts, so many clients share one warm extraction corpus.
package depstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// formatVersion is the envelope format; bump it whenever a record's
// payload schema changes so older caches read as invalid, not as
// garbage.
const formatVersion = 2

// Record kinds, part of each record's filename and envelope.
const (
	// KindTaint is a per-component taint result.
	KindTaint = "taint"
	// KindScenario is a whole-scenario dependency extraction.
	KindScenario = "scenario"
	// KindSummaries is a component's inter-procedural summary table.
	KindSummaries = "summaries"
)

// envelope is the on-disk frame around every payload: one JSON header
// line, then the payload bytes verbatim. Keeping the payload outside
// the header's JSON means a Get validates the record with one small
// header parse plus a checksum — the payload is only ever scanned once,
// by the caller's decode. (Framing it as a JSON field would make every
// load scan the payload three times: envelope validation, the
// RawMessage copy, and the caller's decode.)
type envelope struct {
	Format int    `json:"format"`
	Kind   string `json:"kind"`
	Sum    string `json:"sum"`
}

// Remote is a secondary record tier: bulk-prefetched ahead of a run,
// consulted when the local tiers miss, and warmed by Puts.
// Implementations must be safe for concurrent use and must treat every
// failure as a miss (Get, BatchGet) or a reportable-but-ignorable error
// (Put, BatchPut): a remote tier is a cache of a cache, never a
// correctness dependency. The canonical implementation is
// internal/depstore/remote's HTTP client against a running fsdepd.
type Remote interface {
	Get(kind, key string) ([]byte, bool)
	Put(kind, key string, payload []byte) error
	// BatchGet fetches the given refs in one round trip. The returned
	// map holds only the records the remote had, and never a ref that
	// was not asked for; ok=false admits nothing.
	BatchGet(refs []Ref) (map[Ref][]byte, bool)
	// BatchPut uploads the given records in one round trip and reports
	// whether they were delivered.
	BatchPut(recs []BatchRecord) bool
}

// Ref addresses one record: a (kind, key) pair.
type Ref struct {
	Kind string
	Key  string
}

// BatchRecord is one record of a bulk transfer: a Ref plus its
// payload.
type BatchRecord struct {
	Ref
	Payload []byte
}

// StoreStats counts store outcomes. Invalidations are records that
// existed locally but were refused (corrupt, checksum mismatch,
// version skew). Misses count lookups no tier could answer. The
// Remote* counters track the fall-through tier, WriteBackErrors counts
// remote hits that could not be cached locally (e.g. a read-only cache
// directory), and Evictions counts records deleted by Evict.
type StoreStats struct {
	Hits            uint64
	Misses          uint64
	Invalidations   uint64
	Writes          uint64
	RemoteHits      uint64
	RemoteMisses    uint64
	RemoteWrites    uint64
	RemoteErrors    uint64
	WriteBackErrors uint64
	Evictions       uint64
	// HotHits counts Gets answered by the in-memory hot tier (a subset
	// of Hits).
	HotHits uint64
	// Prefetched counts records pulled in by bulk Prefetch calls.
	Prefetched uint64
}

// Store is a record cache with a local on-disk tier, an optional
// remote tier, or both. Safe for concurrent use by multiple goroutines
// and multiple processes.
type Store struct {
	dir    string // "" = no local tier (remote-only)
	remote Remote
	fsys   FS
	noSync bool
	// hot is the bounded in-memory record LRU in front of the disk tier
	// (nil = disabled; see Options.HotRecords).
	hot *hotTier
	// dirsReady holds the directories whose creation a commit has made
	// durable, so the steady-state Put pays one map load instead of a
	// MkdirAll, and a commit syncs the parent of every other directory
	// on a record's path.
	dirsReady sync.Map // dir path -> struct{}

	// pend is the group Puts stage into until the next Flush (or the
	// putFlushThreshold-th Put) commits it. stageMu guards it and
	// orders staging, so temp files are written in Put order.
	stageMu sync.Mutex
	pend    *batch
	// pendSet holds the records of every group not yet fully committed,
	// by ref: it answers Get and Prefetch in the meantime, for both
	// tiers. pendMu guards only the map, so a read never waits on a
	// Put's file I/O.
	pendMu  sync.RWMutex
	pendSet map[Ref]*staged
	// syncSlots bounds the fsyncs in flight across all of the store's
	// commits, file and directory alike, at putFlushThreshold: each
	// one holds an OS thread until the disk answers.
	syncSlots chan struct{}

	// negative remembers refs a completed bulk prefetch proved absent
	// from the remote, so the run's cold misses skip the one-ref remote
	// round trip they would otherwise each pay. Entries clear on
	// Put (the record exists now). Records appearing remotely mid-run
	// via another client are missed until the next prefetch — sound for
	// a cache: the consequence is one engine run, not a wrong answer.
	negMu    sync.Mutex
	negative map[Ref]struct{}

	hits          uint64
	misses        uint64
	invalid       uint64
	writes        uint64
	remoteHits    uint64
	remoteMisses  uint64
	remoteWrites  uint64
	remoteErrs    uint64
	writeBackErrs uint64
	evictions     uint64
	hotHits       uint64
	prefetched    uint64
}

// Options configures OpenWith. The zero value is invalid (a store
// needs at least one tier).
type Options struct {
	// Dir roots the local on-disk tier ("" = no local tier).
	Dir string
	// Remote is the fall-through tier consulted on local miss (nil =
	// none).
	Remote Remote
	// FS overrides the filesystem the local tier runs on; nil means the
	// real one (OSFS). Tests inject internal/faultfs here.
	FS FS
	// NoSync skips every fsync of a commit: the temp files before their
	// renames and the directories after them. A crash can then leave a
	// renamed-but-empty record — refused on read, so never served, but
	// the cached work is lost. Reserved for benchmarks and throwaway
	// stores.
	NoSync bool
	// HotRecords bounds the in-memory hot-record LRU in front of the
	// disk tier (0 = disabled). The CLIs and the daemon pass
	// DefaultHotRecords; tests that exercise on-disk corruption and
	// eviction leave it off so disk state stays authoritative.
	HotRecords int
}

// Open creates (if needed) and opens a local-only store rooted at dir.
// The directory is probed for writability up front, so an unwritable
// cache location fails here — loudly, once — instead of silently
// degrading every Put later.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("depstore: empty cache directory")
	}
	return OpenTiered(dir, nil)
}

// OpenTiered opens a store with a local tier at dir (optional, "" for
// none), falling through to remote (optional, nil for none) on local
// miss. At least one tier is required.
func OpenTiered(dir string, remote Remote) (*Store, error) {
	return OpenWith(Options{Dir: dir, Remote: remote})
}

// OpenWith opens a store per the given options. See OpenTiered for the
// tier semantics.
func OpenWith(o Options) (*Store, error) {
	if o.Dir == "" && o.Remote == nil {
		return nil, fmt.Errorf("depstore: empty cache directory")
	}
	fsys := o.FS
	if fsys == nil {
		fsys = OSFS{}
	}
	if o.Dir != "" {
		// Clean, so walking up from a record reaches the root exactly.
		o.Dir = filepath.Clean(o.Dir)
		if err := fsys.MkdirAll(o.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("depstore: opening cache: %w", err)
		}
		// Probe writability: MkdirAll succeeds on an existing directory
		// whether or not this process can create files in it, and Put
		// errors are deliberately swallowed by callers (the store is a
		// cache), so an unwritable directory must be refused here.
		probe, err := fsys.CreateTemp(o.Dir, ".probe-*.tmp")
		if err != nil {
			return nil, fmt.Errorf("depstore: cache directory not writable: %w", err)
		}
		probe.Close()
		fsys.Remove(probe.Name())
	}
	s := &Store{dir: o.Dir, remote: o.Remote, fsys: fsys, noSync: o.NoSync,
		pend: &batch{}, pendSet: make(map[Ref]*staged),
		syncSlots: make(chan struct{}, putFlushThreshold)}
	if o.HotRecords > 0 {
		s.hot = newHotTier(o.HotRecords)
	}
	return s, nil
}

// Dir returns the store's local root directory ("" when remote-only).
func (s *Store) Dir() string { return s.dir }

// Remote returns the store's fall-through tier (nil when none). It
// exists so callers that attached a stateful remote — the recovering
// HTTP client — can report its breaker and retry counters.
func (s *Store) Remote() Remote { return s.remote }

// HasLocal reports whether the store has an on-disk tier.
func (s *Store) HasLocal() bool { return s.dir != "" }

// HasRemote reports whether the store has a fall-through remote tier.
func (s *Store) HasRemote() bool { return s.remote != nil }

// Stats returns the store's counters.
func (s *Store) Stats() StoreStats {
	return StoreStats{
		Hits:            atomic.LoadUint64(&s.hits),
		Misses:          atomic.LoadUint64(&s.misses),
		Invalidations:   atomic.LoadUint64(&s.invalid),
		Writes:          atomic.LoadUint64(&s.writes),
		RemoteHits:      atomic.LoadUint64(&s.remoteHits),
		RemoteMisses:    atomic.LoadUint64(&s.remoteMisses),
		RemoteWrites:    atomic.LoadUint64(&s.remoteWrites),
		RemoteErrors:    atomic.LoadUint64(&s.remoteErrs),
		WriteBackErrors: atomic.LoadUint64(&s.writeBackErrs),
		Evictions:       atomic.LoadUint64(&s.evictions),
		HotHits:         atomic.LoadUint64(&s.hotHits),
		Prefetched:      atomic.LoadUint64(&s.prefetched),
	}
}

// noteInvalid counts a record that existed but was refused. The
// record layer calls this when a structurally valid envelope carries a
// payload the current code cannot rehydrate.
func (s *Store) noteInvalid() { atomic.AddUint64(&s.invalid, 1) }

// Key derives a content address from the given parts. Parts are
// length-prefixed before hashing so ("ab","c") and ("a","bc") land on
// different addresses.
func Key(parts ...string) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// path is a record's location: two levels of hex fan-out under the
// kind directory, so fleet-sized stores keep every directory small.
// Every key that reaches the store is hex and at least 8 digits long —
// Key's 64, or a reference the daemon validated before storing it — so
// the fan-out prefix always exists.
func (s *Store) path(kind, key string) string {
	return filepath.Join(s.dir, kind, key[:2], key[2:4], key+".rec")
}

// Get returns the payload stored under (kind, key), or (nil, false)
// when no tier answers. A local record that exists but fails
// validation — unparseable, wrong format version, wrong kind, checksum
// mismatch — is counted as an invalidation and falls through like a
// miss; it is never an error, matching checkpoint's corruption-refusing
// load discipline. A record Put but not yet flushed is a hit. A local
// hit refreshes the record's timestamp in place (the LRU signal for
// Evict); a remote hit is written back to the local tier so the next
// lookup is local.
func (s *Store) Get(kind, key string) ([]byte, bool) {
	if s.hot != nil {
		if payload, ok := s.hot.get(kind, key); ok {
			atomic.AddUint64(&s.hits, 1)
			atomic.AddUint64(&s.hotHits, 1)
			return payload, true
		}
	}
	if payload, ok := s.pending(kind, key); ok {
		atomic.AddUint64(&s.hits, 1)
		return payload, true
	}
	if s.dir != "" {
		if payload, ok := s.localGet(kind, key); ok {
			atomic.AddUint64(&s.hits, 1)
			s.hotAdd(kind, key, payload)
			return payload, true
		}
	}
	if s.remote != nil {
		if s.knownAbsent(kind, key) {
			atomic.AddUint64(&s.remoteMisses, 1)
			atomic.AddUint64(&s.misses, 1)
			return nil, false
		}
		if payload, ok := s.remote.Get(kind, key); ok {
			atomic.AddUint64(&s.remoteHits, 1)
			s.hotAdd(kind, key, payload)
			s.writeBack([]BatchRecord{{Ref: Ref{Kind: kind, Key: key}, Payload: payload}})
			return payload, true
		}
		atomic.AddUint64(&s.remoteMisses, 1)
	}
	atomic.AddUint64(&s.misses, 1)
	return nil, false
}

// hotAdd admits a validated payload into the hot tier, if enabled.
func (s *Store) hotAdd(kind, key string, payload []byte) {
	if s.hot != nil {
		s.hot.add(kind, key, payload)
	}
}

// knownAbsent reports whether a bulk prefetch proved (kind, key)
// missing from the remote this run.
func (s *Store) knownAbsent(kind, key string) bool {
	s.negMu.Lock()
	defer s.negMu.Unlock()
	if s.negative == nil {
		return false
	}
	_, absent := s.negative[Ref{Kind: kind, Key: key}]
	return absent
}

// noteAbsent records prefetch-proven remote misses; notePresent clears
// one (the record was just written, the proof is stale).
func (s *Store) noteAbsent(ref Ref) {
	s.negMu.Lock()
	if s.negative == nil {
		s.negative = make(map[Ref]struct{})
	}
	s.negative[ref] = struct{}{}
	s.negMu.Unlock()
}

func (s *Store) notePresent(kind, key string) {
	s.negMu.Lock()
	delete(s.negative, Ref{Kind: kind, Key: key})
	s.negMu.Unlock()
}

// localGet reads and validates one on-disk record. Refusals are
// counted here; the final miss (if no other tier answers) is counted
// by Get.
func (s *Store) localGet(kind, key string) ([]byte, bool) {
	path := s.path(kind, key)
	raw, err := s.fsys.ReadFile(path)
	if err != nil {
		return nil, false
	}
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		s.noteInvalid()
		return nil, false
	}
	var env envelope
	if err := json.Unmarshal(raw[:nl], &env); err != nil {
		s.noteInvalid()
		return nil, false
	}
	if env.Format != formatVersion || env.Kind != kind {
		s.noteInvalid()
		return nil, false
	}
	payload := raw[nl+1:]
	if payloadSum(payload) != env.Sum {
		s.noteInvalid()
		return nil, false
	}
	// LRU touch: refresh the timestamp in place. Chtimes is rename-free
	// (the inode is updated, not the directory entry), so concurrent
	// readers and replacing writers never observe a torn record because
	// of it. Best-effort: a record replaced under us just keeps the
	// replacement's own (newer) timestamp.
	now := time.Now()
	_ = s.fsys.Chtimes(path, now, now)
	return payload, true
}

// Put stores payload under (kind, key): at once in the hot tier, and
// in the local and remote tiers by the group commit of the next Flush.
// With a local tier, Put writes the record's temp file before it
// returns and starts the file's fsync; until the Flush, the record
// answers Get from memory. The Put that brings the group to
// putFlushThreshold records commits it and returns the commit's error;
// every other Put returns nil, and its staging error comes back from
// the Flush. Put errors are reportable but never fatal to an analysis:
// the store is a cache.
func (s *Store) Put(kind, key string, payload []byte) error {
	s.hotAdd(kind, key, payload)
	s.notePresent(kind, key)
	rec := &staged{BatchRecord: BatchRecord{Ref: Ref{Kind: kind, Key: key}, Payload: payload}}
	s.stageMu.Lock()
	s.pendMu.Lock()
	s.pendSet[rec.Ref] = rec
	s.pendMu.Unlock()
	s.stage(s.pend, rec)
	var full *batch
	if len(s.pend.recs) >= putFlushThreshold {
		full, s.pend = s.pend, &batch{}
	}
	s.stageMu.Unlock()
	if full == nil {
		return nil
	}
	return s.commit(full, true)
}

// putFlushThreshold is the largest group a commit takes: Put commits
// the group itself when it reaches this size, and PutBatch and the
// write-backs split what they are given into groups of it. That bounds
// the pending records' memory, the temp files held open, and the work
// a crash can lose; syncSlots bounds the fsyncs in flight at the same
// figure.
const putFlushThreshold = 64

// Flush commits every record Put since the last Flush as one group: it
// waits for their fsyncs, renames them into place in Put order, syncs
// every directory that gained an entry (each once, concurrently), and
// then pushes the group to the remote tier. It returns the first
// error: a record that could not be staged or committed, a directory
// that could not be synced, or, for a remote-only store, a failed push
// (with a local tier a failed push is only counted). Analyses call it
// at run boundaries; with nothing pending it does nothing.
func (s *Store) Flush() error {
	s.stageMu.Lock()
	b := s.pend
	s.pend = &batch{}
	s.stageMu.Unlock()
	return s.commit(b, true)
}

// PutBatch stores recs like one Put each, but commits them itself
// before it returns, in groups of at most putFlushThreshold, so nil
// means every record is on stable storage; fsdepd acknowledges a
// batch-put only then. It returns the first group's error, after
// trying every group. Records pending from earlier Puts are left to
// their Flush.
func (s *Store) PutBatch(recs []BatchRecord) error {
	for _, rec := range recs {
		s.hotAdd(rec.Kind, rec.Key, rec.Payload)
		s.notePresent(rec.Kind, rec.Key)
	}
	_, err := s.commitAll(recs, true)
	return err
}

// pending returns the payload of a record Put but not yet committed.
func (s *Store) pending(kind, key string) ([]byte, bool) {
	s.pendMu.RLock()
	defer s.pendMu.RUnlock()
	if rec, ok := s.pendSet[Ref{Kind: kind, Key: key}]; ok {
		return rec.Payload, true
	}
	return nil, false
}

// writeBack caches records the remote tier served in the local tier,
// in groups. A failure just leaves the next lookup remote again — but
// each record that could not be cached is counted, so a read-only
// cache directory shows up in -stats instead of silently paying a
// remote round trip per lookup forever.
func (s *Store) writeBack(recs []BatchRecord) {
	if s.dir == "" {
		return
	}
	failed, _ := s.commitAll(recs, false)
	atomic.AddUint64(&s.writeBackErrs, uint64(failed))
}

// commitAll stages recs and commits them in groups of at most
// putFlushThreshold, each group committed before the next is staged,
// so however many records arrive at once the temp files held open stay
// bounded. It returns how many records failed to reach the local tier
// and the first group's error.
func (s *Store) commitAll(recs []BatchRecord, push bool) (failed int, first error) {
	for len(recs) > 0 {
		n := min(len(recs), putFlushThreshold)
		b := &batch{}
		for _, rec := range recs[:n] {
			s.stage(b, &staged{BatchRecord: rec})
		}
		if err := s.commit(b, push); err != nil && first == nil {
			first = err
		}
		for _, rec := range b.recs {
			if rec.err != nil {
				failed++
			}
		}
		recs = recs[n:]
	}
	return failed, first
}

// pushBatch uploads one group and reports whether it was delivered. A
// failed batch counts one remote error per record it carried; with a
// local tier the records are still there, so the cost is a colder
// daemon, never a lost answer.
func (s *Store) pushBatch(recs []BatchRecord) bool {
	if s.remote.BatchPut(recs) {
		atomic.AddUint64(&s.remoteWrites, uint64(len(recs)))
		return true
	}
	atomic.AddUint64(&s.remoteErrs, uint64(len(recs)))
	return false
}

// Prefetch bulk-fetches the given refs into the local tiers ahead of
// an analysis, so a warm start against a remote store pays one round
// trip instead of one per record. Refs already present locally or
// pending are skipped (local ones admitted to the hot tier); the rest
// travel in a single BatchGet, and the records it returns are written
// back in groups. A failed batch admits nothing and degrades
// silently — the analysis falls back to one-ref fetches on miss,
// byte-identical either way.
func (s *Store) Prefetch(refs []Ref) {
	if s.remote == nil || len(refs) == 0 {
		return
	}
	missing := make([]Ref, 0, len(refs))
	for _, ref := range refs {
		if s.hot != nil {
			if _, ok := s.hot.get(ref.Kind, ref.Key); ok {
				continue
			}
		}
		if _, ok := s.pending(ref.Kind, ref.Key); ok {
			continue
		}
		if s.dir != "" {
			if payload, ok := s.localGet(ref.Kind, ref.Key); ok {
				s.hotAdd(ref.Kind, ref.Key, payload)
				continue
			}
		}
		missing = append(missing, ref)
	}
	if len(missing) == 0 {
		return
	}
	got, ok := s.remote.BatchGet(missing)
	if !ok {
		return
	}
	// Admit by the requested refs, not by whatever the answer carries:
	// only addresses this process derived ever reach the disk tier.
	admitted := make([]BatchRecord, 0, len(got))
	for _, ref := range missing {
		payload, have := got[ref]
		if !have {
			s.noteAbsent(ref)
			continue
		}
		atomic.AddUint64(&s.remoteHits, 1)
		atomic.AddUint64(&s.prefetched, 1)
		s.hotAdd(ref.Kind, ref.Key, payload)
		admitted = append(admitted, BatchRecord{Ref: ref, Payload: payload})
	}
	s.writeBack(admitted)
}

// staged is one record of a group commit. With a local tier its temp
// file holds the record and its fsync is under way; err is the first
// failure of its staging, fsync or rename.
type staged struct {
	BatchRecord
	dst string // the record's path ("" without a local tier)
	tmp File   // nil when there is nothing to rename
	err error
}

// batch is one group commit: its records in Put order, the fsyncs of
// their temp files, and every directory its MkdirAll calls may have
// created, true once one of those calls succeeded.
type batch struct {
	recs  []*staged
	syncs sync.WaitGroup
	made  map[string]bool
}

// stage adds rec to b. With a local tier it writes the record's temp
// file on the calling goroutine and fsyncs it on another, so the
// fsyncs of a group overlap while every other filesystem operation
// keeps the callers' order.
func (s *Store) stage(b *batch, rec *staged) {
	b.recs = append(b.recs, rec)
	if s.dir == "" {
		return
	}
	rec.dst = s.path(rec.Kind, rec.Key)
	rec.tmp, rec.err = s.writeTemp(b, rec.dst, rec.Kind, rec.Payload)
	if rec.tmp != nil && !s.noSync {
		b.syncs.Add(1)
		go func() {
			defer b.syncs.Done()
			if err := s.fsync(rec.tmp.Sync); err != nil {
				rec.err = fmt.Errorf("depstore: syncing %s record: %w", rec.Kind, err)
			}
		}()
	}
}

// fsync runs one file or directory sync once a slot of syncSlots is
// free.
func (s *Store) fsync(op func() error) error {
	s.syncSlots <- struct{}{}
	defer func() { <-s.syncSlots }()
	return op()
}

// writeTemp writes a record's envelope and payload to a new temp file
// in the record's leaf directory, creating the directory if need be.
func (s *Store) writeTemp(b *batch, dst, kind string, payload []byte) (File, error) {
	header, err := json.Marshal(&envelope{Format: formatVersion, Kind: kind, Sum: payloadSum(payload)})
	if err != nil {
		return nil, fmt.Errorf("depstore: encoding %s record: %w", kind, err)
	}
	blob := make([]byte, 0, len(header)+1+len(payload))
	blob = append(blob, header...)
	blob = append(blob, '\n')
	blob = append(blob, payload...)
	dir := filepath.Dir(dst)
	if err := s.mkdir(b, dir); err != nil {
		return nil, fmt.Errorf("depstore: writing %s record: %w", kind, err)
	}
	tmp, err := s.fsys.CreateTemp(dir, "."+kind+"-*.tmp")
	if err != nil {
		return nil, fmt.Errorf("depstore: writing %s record: %w", kind, err)
	}
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		s.fsys.Remove(tmp.Name())
		return nil, fmt.Errorf("depstore: writing %s record: %w", kind, err)
	}
	return tmp, nil
}

// mkdir creates a record's leaf directory unless a commit has already
// made it durable, and notes in b every directory on the leaf's path
// up to the store root that the call may have created. They count
// even when MkdirAll fails: it may have made part of the path, and a
// sibling record may live under that part.
func (s *Store) mkdir(b *batch, leaf string) error {
	if _, ok := s.dirsReady.Load(leaf); ok {
		return nil
	}
	err := s.fsys.MkdirAll(leaf, 0o755)
	if b.made == nil {
		b.made = make(map[string]bool)
	}
	for d := leaf; ; d = filepath.Dir(d) {
		if _, ok := s.dirsReady.Load(d); ok {
			break
		}
		b.made[d] = b.made[d] || err == nil
		if d == s.dir || d == filepath.Dir(d) {
			break
		}
	}
	return err
}

// commit finishes group b: it waits for the fsyncs, closes and renames
// the temp files in Put order, syncs the directories, and with push
// set uploads the group to the remote tier. Until it returns, the
// group's Put records keep answering reads. It returns the first error
// in that order.
func (s *Store) commit(b *batch, push bool) error {
	if len(b.recs) == 0 {
		return nil
	}
	b.syncs.Wait()
	var first error
	for _, rec := range b.recs {
		if rec.tmp != nil {
			rec.err = s.install(rec)
		}
		if first == nil {
			first = rec.err
		}
	}
	if err := s.syncDirs(b); err != nil && first == nil {
		first = err
	}
	if push && s.remote != nil {
		recs := make([]BatchRecord, len(b.recs))
		for i, rec := range b.recs {
			recs[i] = rec.BatchRecord
		}
		if !s.pushBatch(recs) && s.dir == "" && first == nil {
			first = fmt.Errorf("depstore: pushing %d records to the remote tier failed", len(recs))
		}
	}
	s.pendMu.Lock()
	for _, rec := range b.recs {
		if s.pendSet[rec.Ref] == rec {
			delete(s.pendSet, rec.Ref)
		}
	}
	s.pendMu.Unlock()
	return first
}

// install closes a staged temp file and renames it into place, or
// removes it when its fsync or close failed.
func (s *Store) install(rec *staged) error {
	err := rec.err
	if cerr := rec.tmp.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("depstore: writing %s record: %w", rec.Kind, cerr)
	}
	if err == nil {
		if err = s.fsys.Rename(rec.tmp.Name(), rec.dst); err == nil {
			atomic.AddUint64(&s.writes, 1)
			return nil
		}
		err = fmt.Errorf("depstore: committing %s record: %w", rec.Kind, err)
	}
	s.fsys.Remove(rec.tmp.Name())
	return err
}

// syncDirs makes group b's directory entries durable. In one
// concurrent wave, bounded by syncSlots, it fsyncs each leaf that
// gained a record and the parent of each directory the group may have
// created, every one of them once; then it marks the created
// directories ready. It returns the first error in path order.
func (s *Store) syncDirs(b *batch) error {
	if !s.noSync {
		dirty := make(map[string]bool)
		for _, rec := range b.recs {
			if rec.tmp != nil && rec.err == nil {
				dirty[filepath.Dir(rec.dst)] = true
			}
		}
		for d := range b.made {
			dirty[filepath.Dir(d)] = true
		}
		dirs := make([]string, 0, len(dirty))
		for d := range dirty {
			dirs = append(dirs, d)
		}
		sort.Strings(dirs)
		errs := make([]error, len(dirs))
		var wg sync.WaitGroup
		for i, d := range dirs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = s.fsync(func() error { return s.fsys.SyncDir(d) })
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return fmt.Errorf("depstore: syncing record directory: %w", err)
			}
		}
	}
	for d, exists := range b.made {
		if exists {
			s.dirsReady.Store(d, struct{}{})
		}
	}
	return nil
}

func payloadSum(p []byte) string {
	sum := sha256.Sum256(p)
	return hex.EncodeToString(sum[:])
}
