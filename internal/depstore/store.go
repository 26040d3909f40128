// Package depstore is the persistent, content-addressed extraction
// cache: it serializes per-component taint results and whole-scenario
// dependency extractions to an on-disk directory so repeated fsdep
// invocations over unchanged sources warm-start instead of re-analyzing
// the world.
//
// Records are addressed by a caller-derived key — a sha256 over the
// component's content hash joined with the canonical analysis
// signature (internal/core's taint memo key), so any change to a
// source, parameter list, or analysis option lands on a different
// address and stale records are simply never read again. Each record
// is one file: a versioned JSON header line carrying a checksum,
// followed by the raw payload bytes (kept outside the header's JSON so
// warm loads parse the payload exactly once, in the caller's decode);
// writes go through a temp file plus atomic rename, so
// concurrent processes sharing a cache directory see either a complete
// record or none. Loads refuse corruption the same way
// internal/checkpoint refuses torn journal tails: a record that fails
// to parse, carries an unknown format version, or does not match its
// checksum is treated as absent (counted as an invalidation), never as
// an error — the caller falls back to cold extraction.
//
// On disk, records fan out two levels by key prefix
// (kind/ab/cd/key.rec) so a store shared by a fleet never piles tens
// of thousands of files into one directory. Every hit refreshes the
// record's timestamp in place (no rename), giving Evict an LRU signal,
// and a Store can carry a Remote tier — typically a running fsdepd, via
// internal/depstore/remote — consulted on local miss and warmed on
// every Put, so many clients share one warm extraction corpus.
package depstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
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
	// KindSummaries is retired: it named the per-function summary
	// tables the taint engine no longer keeps. Nothing writes or reads
	// it; records of this kind left in an existing store are never
	// read, Scrub still validates them, and Evict ages them out.
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

// Remote is a secondary record tier consulted when the local tiers
// miss and warmed on every Put. It moves records in batches: a local
// miss is a one-ref BatchGet, a prefetch one BatchGet of the whole
// manifest. Both methods report ok=false when the transfer failed,
// and a false return admits nothing (the wire layer guarantees a
// damaged stream yields zero records). Implementations must be safe
// for concurrent use: a remote tier is a cache of a cache, never a
// correctness dependency. The canonical implementation is
// internal/depstore/remote's HTTP client against a running fsdepd.
type Remote interface {
	// BatchGet fetches the given refs in one round trip. The returned
	// map holds only the records the remote had.
	BatchGet(refs []Ref) (map[Ref][]byte, bool)
	// BatchPut uploads the given records in one round trip.
	BatchPut(recs []BatchRecord) bool
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
	// dirsReady caches fan-out directories already created and synced,
	// so the steady-state Put pays one map load instead of a MkdirAll
	// plus a directory-fsync chain.
	dirsReady sync.Map // dir path -> struct{}

	// pending buffers remote uploads while another tier can answer
	// read-after-write, so a cold analysis pushes its records in a few
	// bulk round trips (threshold flushes plus FlushRemote at run
	// boundaries) instead of one per record.
	pendingMu sync.Mutex
	pending   []BatchRecord

	// negative remembers refs a completed bulk prefetch proved absent
	// from the remote, so the run's cold misses skip the one-ref
	// remote round trip they would otherwise each pay. Entries clear on
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
// needs at least one tier): Dir roots an optional local tier and
// Remote an optional fall-through tier consulted on local miss.
type Options struct {
	// Dir roots the local on-disk tier ("" = no local tier).
	Dir string
	// Remote is the fall-through tier consulted on local miss (nil =
	// none).
	Remote Remote
	// FS overrides the filesystem the local tier runs on; nil means the
	// real one (OSFS). Tests inject internal/faultfs here.
	FS FS
	// NoSync skips the fsync-before-rename and directory-fsync steps of
	// each commit. A crash can then leave a renamed-but-empty record —
	// refused on read, so never served, but the cached work is lost.
	// Reserved for benchmarks and throwaway stores.
	NoSync bool
	// HotRecords bounds the in-memory hot-record LRU in front of the
	// disk tier (0 = disabled). The CLIs and the daemon pass
	// DefaultHotRecords; tests that exercise on-disk corruption and
	// eviction leave it off so disk state stays authoritative.
	HotRecords int
}

// OpenWith opens a store per the given options. A local directory is
// created if needed and probed for writability up front, so an
// unwritable cache location fails here — loudly, once — instead of
// silently degrading every Put later.
func OpenWith(o Options) (*Store, error) {
	if o.Dir == "" && o.Remote == nil {
		return nil, fmt.Errorf("depstore: no tier configured: need a cache directory, a remote, or both")
	}
	fsys := o.FS
	if fsys == nil {
		fsys = OSFS{}
	}
	if o.Dir != "" {
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
	s := &Store{dir: o.Dir, remote: o.Remote, fsys: fsys, noSync: o.NoSync}
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
// Keys come from Key or pass the daemon's reference validation, so
// they are always long enough for the fan-out prefix.
func (s *Store) path(kind, key string) string {
	return filepath.Join(s.dir, kind, key[:2], key[2:4], key+".rec")
}

// Get returns the payload stored under (kind, key), or (nil, false)
// when no tier answers. A local record that exists but fails
// validation — unparseable, wrong format version, wrong kind, checksum
// mismatch — is counted as an invalidation and falls through like a
// miss; it is never an error, matching checkpoint's corruption-refusing
// load discipline. A local hit refreshes the record's timestamp in
// place (the LRU signal for Evict); a remote hit is written back to
// the local tier so the next lookup is local.
func (s *Store) Get(kind, key string) ([]byte, bool) {
	if s.hot != nil {
		if payload, ok := s.hot.get(kind, key); ok {
			atomic.AddUint64(&s.hits, 1)
			atomic.AddUint64(&s.hotHits, 1)
			return payload, true
		}
	}
	if s.dir != "" {
		if payload, ok := s.localGet(kind, key); ok {
			atomic.AddUint64(&s.hits, 1)
			s.hotAdd(kind, key, payload)
			return payload, true
		}
	}
	if s.remote != nil {
		ref := Ref{Kind: kind, Key: key}
		if !s.knownAbsent(ref) {
			if got, ok := s.remote.BatchGet([]Ref{ref}); ok {
				if payload, ok := got[ref]; ok {
					s.admitRemote(ref, payload)
					return payload, true
				}
			}
		}
		atomic.AddUint64(&s.remoteMisses, 1)
	}
	atomic.AddUint64(&s.misses, 1)
	return nil, false
}

// admitRemote counts a record the remote served and admits it to the
// hot and disk tiers. The disk write-back is best-effort: a failure
// just leaves the next lookup remote again, but it is counted, so a
// read-only cache directory shows up in -stats instead of silently
// paying a remote round trip per lookup forever.
func (s *Store) admitRemote(ref Ref, payload []byte) {
	atomic.AddUint64(&s.remoteHits, 1)
	s.hotAdd(ref.Kind, ref.Key, payload)
	if s.dir != "" {
		if err := s.localPut(ref.Kind, ref.Key, payload); err != nil {
			atomic.AddUint64(&s.writeBackErrs, 1)
		}
	}
}

// hotAdd admits a validated payload into the hot tier, if enabled.
func (s *Store) hotAdd(kind, key string, payload []byte) {
	if s.hot != nil {
		s.hot.add(kind, key, payload)
	}
}

// knownAbsent reports whether a bulk prefetch proved ref missing from
// the remote this run.
func (s *Store) knownAbsent(ref Ref) bool {
	s.negMu.Lock()
	defer s.negMu.Unlock()
	_, absent := s.negative[ref]
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
	payload, verdict := decodeRecord(raw, kind)
	if verdict != recordOK {
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

// recordVerdict is decodeRecord's classification of one on-disk
// record; Scrub tallies them.
type recordVerdict uint8

const (
	recordOK recordVerdict = iota
	recordUnreadable
	recordCorrupt
	recordVersionSkew
	recordKindMismatch
)

// decodeRecord unframes one on-disk record and applies every refusal
// check: a torn or unparseable header, a format-version skew, an
// envelope kind other than kind (an empty kind skips that check), and
// a checksum mismatch. It returns the payload (a sub-slice of raw)
// only with recordOK. Get and Scrub both decide through it, so a
// record Scrub keeps is exactly a record Get serves.
func decodeRecord(raw []byte, kind string) ([]byte, recordVerdict) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, recordCorrupt // torn: the header line never finished
	}
	var env envelope
	if err := json.Unmarshal(raw[:nl], &env); err != nil {
		return nil, recordCorrupt
	}
	if env.Format != formatVersion {
		return nil, recordVersionSkew
	}
	if kind != "" && env.Kind != kind {
		return nil, recordKindMismatch
	}
	payload := raw[nl+1:]
	if payloadSum(payload) != env.Sum {
		return nil, recordCorrupt
	}
	return payload, recordOK
}

// Put stores payload under (kind, key) in the local tier (temp file +
// atomic rename, so a concurrent reader — or a reader after a crash
// mid-write — sees either the complete record or none) and pushes it
// to the remote tier when one is attached, warming the shared store.
// The push joins the pending batch when a disk or hot tier can answer
// read-after-write until it is flushed; a store with neither pushes a
// one-record batch at once, and a failed push is its error. Put errors
// are reportable but never fatal to an analysis: the store is a cache.
func (s *Store) Put(kind, key string, payload []byte) error {
	s.hotAdd(kind, key, payload)
	s.notePresent(kind, key)
	var err error
	if s.dir != "" {
		err = s.localPut(kind, key, payload)
	}
	if s.remote == nil {
		return err
	}
	rec := BatchRecord{Ref: Ref{Kind: kind, Key: key}, Payload: payload}
	if s.dir != "" || s.hot != nil {
		s.deferRemotePut(rec)
		return err
	}
	if !s.pushBatch([]BatchRecord{rec}) {
		return fmt.Errorf("depstore: pushing %s record to the remote tier failed", kind)
	}
	return nil
}

// putFlushThreshold is the pending-upload count that triggers a
// mid-run bulk flush, bounding both queue memory and the blast radius
// of a crash (at most one threshold's worth of un-pushed records; the
// local tier already holds them all).
const putFlushThreshold = 64

// deferRemotePut enqueues a remote upload for bulk transfer,
// flushing the queue once it reaches putFlushThreshold.
func (s *Store) deferRemotePut(rec BatchRecord) {
	s.pendingMu.Lock()
	s.pending = append(s.pending, rec)
	var flush []BatchRecord
	if len(s.pending) >= putFlushThreshold {
		flush = s.pending
		s.pending = nil
	}
	s.pendingMu.Unlock()
	if flush != nil {
		s.pushBatch(flush)
	}
}

// FlushRemote pushes any pending deferred uploads to the remote tier.
// Analyses call it at the end of every run; it is a no-op for stores
// with nothing pending.
func (s *Store) FlushRemote() {
	s.pendingMu.Lock()
	flush := s.pending
	s.pending = nil
	s.pendingMu.Unlock()
	if len(flush) > 0 {
		s.pushBatch(flush)
	}
}

// pushBatch uploads one batch and reports whether it was delivered. A
// failed batch counts its records as remote errors; they stay in the
// local tiers, and the remote catches up when a later run writes them
// again. The client's retry and breaker machinery bounds the cost of a
// dead daemon.
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
// trip instead of one per record. Refs already present locally are
// skipped (and admitted to the hot tier); the rest travel in a single
// BatchGet. A batch that fails degrades silently — the analysis
// simply fetches each record on its miss, byte-identical either way.
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
	for _, ref := range missing {
		if _, have := got[ref]; !have {
			s.noteAbsent(ref)
		}
	}
	for ref, payload := range got {
		atomic.AddUint64(&s.prefetched, 1)
		s.admitRemote(ref, payload)
	}
}

func (s *Store) localPut(kind, key string, payload []byte) error {
	env := envelope{
		Format: formatVersion,
		Kind:   kind,
		Sum:    payloadSum(payload),
	}
	header, err := json.Marshal(&env)
	if err != nil {
		return fmt.Errorf("depstore: encoding %s record: %w", kind, err)
	}
	blob := make([]byte, 0, len(header)+1+len(payload))
	blob = append(blob, header...)
	blob = append(blob, '\n')
	blob = append(blob, payload...)
	dst := s.path(kind, key)
	dir := filepath.Dir(dst)
	if err := s.ensureDir(dir); err != nil {
		return fmt.Errorf("depstore: writing %s record: %w", kind, err)
	}
	tmp, err := s.fsys.CreateTemp(dir, "."+kind+"-*.tmp")
	if err != nil {
		return fmt.Errorf("depstore: writing %s record: %w", kind, err)
	}
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		s.fsys.Remove(tmp.Name())
		return fmt.Errorf("depstore: writing %s record: %w", kind, err)
	}
	// Fsync before the rename: without it, a host crash shortly after
	// commit can leave the rename durable but the data not — a
	// renamed-but-empty (or torn) record. Such a record is refused on
	// read, never served, but the cached work is silently gone; syncing
	// closes the window. NoSync trades that window back for speed.
	if !s.noSync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			s.fsys.Remove(tmp.Name())
			return fmt.Errorf("depstore: syncing %s record: %w", kind, err)
		}
	}
	if err := tmp.Close(); err != nil {
		s.fsys.Remove(tmp.Name())
		return fmt.Errorf("depstore: writing %s record: %w", kind, err)
	}
	if err := s.fsys.Rename(tmp.Name(), dst); err != nil {
		s.fsys.Remove(tmp.Name())
		return fmt.Errorf("depstore: committing %s record: %w", kind, err)
	}
	atomic.AddUint64(&s.writes, 1)
	return nil
}

// ensureDir creates (and, on first creation, fsyncs) one fan-out
// directory. Newly created directory entries are only durable once
// their parent directory is synced, so the first Put into each shard
// syncs the chain from the new leaf up to the store root; after that
// the steady-state cost is a single map load.
func (s *Store) ensureDir(dir string) error {
	if _, ok := s.dirsReady.Load(dir); ok {
		return nil
	}
	if err := s.fsys.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if !s.noSync {
		for d := dir; ; d = filepath.Dir(d) {
			if err := s.fsys.SyncDir(d); err != nil {
				return err
			}
			if d == s.dir || d == filepath.Dir(d) {
				break
			}
		}
	}
	s.dirsReady.Store(dir, struct{}{})
	return nil
}

func payloadSum(p []byte) string {
	sum := sha256.Sum256(p)
	return hex.EncodeToString(sum[:])
}
