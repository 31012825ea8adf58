// Package store is Buffy's durable result tier: a content-addressed,
// crash-safe on-disk cache of analysis results that sits under the
// service's in-memory LRU, so restarts (and, eventually, scale-out
// peers) keep their hit rate.
//
// The store's single invariant is that a stored answer is only ever
// served if it provably matches what the current pipeline would compute:
//
//   - Entries are written atomically: temp file in the same directory,
//     fsync, rename over the final name, fsync of the directory. A crash
//     mid-write leaves a temp file, never a half-visible entry.
//   - Every entry carries a sha256 checksum of its payload and the
//     version fingerprint of the pipeline that produced it; both are
//     verified on every read, so torn writes and bit rot degrade to
//     cache misses, never to wrong answers.
//   - A fingerprint mismatch at Open invalidates the whole entry set
//     wholesale (the encoder/solver/sema/netcalc semantics changed, so
//     every stored answer is suspect).
//   - Integrity failures are never deleted silently: bad entries are
//     moved to a quarantine directory for operator inspection. Only
//     LRU budget evictions — entries that are valid but cold — delete.
//
// Opening runs a recovery scan that verifies every entry and quarantines
// the casualties; a background GC enforces the byte budget with LRU
// eviction (recency survives restarts via file mtimes).
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"buffy/internal/faultinject"
	"buffy/internal/lru"
)

// FormatVersion is the on-disk entry format version; bumping it
// invalidates every existing entry (they fail the format check and are
// quarantined at the next recovery scan).
const FormatVersion = 1

// manifestName is the store's root metadata file recording the pipeline
// fingerprint the resident entries were written under.
const manifestName = "MANIFEST"

// ErrReadOnly is returned by Put when the store is running degraded on a
// non-writable directory: reads (of a fingerprint-verified entry set)
// still work, writes degrade to counted failures.
var ErrReadOnly = errors.New("store: read-only")

// Options configures Open.
type Options struct {
	// Dir is the store's root directory (created if absent).
	Dir string
	// Fingerprint is the version fingerprint of everything answer-relevant
	// in the pipeline. Entries written under a different fingerprint are
	// never served.
	Fingerprint string
	// MaxBytes bounds the live entry set; the GC evicts least-recently-used
	// entries beyond it (<= 0: unlimited).
	MaxBytes int64
	// ReadOnly forces degraded read-only mode (also entered automatically
	// when Dir is not writable).
	ReadOnly bool
	// Logger receives recovery/quarantine/eviction logs (default: discard).
	Logger *slog.Logger
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	Entries       int    `json:"entries"`
	Bytes         int64  `json:"bytes"`
	Hits          int64  `json:"hits"`
	Misses        int64  `json:"misses"`
	Writes        int64  `json:"writes"`
	WriteErrors   int64  `json:"write_errors"`
	ReadErrors    int64  `json:"read_errors"`
	Quarantined   int64  `json:"quarantined"`
	Evictions     int64  `json:"evictions"`
	Invalidations int64  `json:"invalidations"`
	ReadOnly      bool   `json:"read_only"`
	Fingerprint   string `json:"fingerprint"`
}

// Store is the durable result tier. All methods are safe for concurrent
// use.
type Store struct {
	dir        string
	entriesDir string
	quarDir    string
	fp         string
	maxBytes   int64
	log        *slog.Logger
	readOnly   bool

	mu     sync.Mutex
	lru    *lru.LRU[string, struct{}] // resident keys, weighed by file size
	deny   map[string]bool            // keys whose bad file could not be quarantined; never served
	closed bool

	gcKick chan struct{}
	done   chan struct{}
	wg     sync.WaitGroup

	hits, misses, writes   atomic.Int64
	writeErrors, readErrs  atomic.Int64
	quarantined, evictions atomic.Int64
	invalidations          atomic.Int64
	qseq                   atomic.Int64
}

type manifest struct {
	Format      int    `json:"format"`
	Fingerprint string `json:"fingerprint"`
}

// Open opens (or initializes) a store rooted at opts.Dir, running the
// recovery scan: fingerprint check, wholesale invalidation on mismatch,
// per-entry integrity verification with quarantine of torn or bit-rotted
// entries, and GC to the byte budget. A non-writable directory degrades
// to read-only mode rather than failing, provided a verified entry set
// exists; structural impossibility (the path is a file, the directory is
// unreadable) is an error.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("store: empty directory")
	}
	log := opts.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Store{
		dir:        opts.Dir,
		entriesDir: filepath.Join(opts.Dir, "entries"),
		quarDir:    filepath.Join(opts.Dir, "quarantine"),
		fp:         opts.Fingerprint,
		maxBytes:   opts.MaxBytes,
		log:        log,
		readOnly:   opts.ReadOnly,
		lru:        lru.New[string, struct{}](),
		deny:       make(map[string]bool),
		gcKick:     make(chan struct{}, 1),
		done:       make(chan struct{}),
	}

	mkErr := errors.Join(
		os.MkdirAll(s.entriesDir, 0o755),
		os.MkdirAll(s.quarDir, 0o755),
	)
	if !s.readOnly {
		// Probe writability instead of trusting MkdirAll: an existing
		// layout on a read-only mount creates nothing yet writes nothing.
		if probe, err := os.CreateTemp(s.entriesDir, ".probe-*"); err == nil {
			probe.Close()
			os.Remove(probe.Name())
		} else {
			s.readOnly = true
			s.log.Warn("store: directory not writable; degrading to read-only", "dir", s.dir, "err", err.Error())
		}
	}
	if _, err := os.Stat(s.entriesDir); err != nil {
		return nil, fmt.Errorf("store: no usable entries directory: %w", errors.Join(err, mkErr))
	}

	man, manErr := readManifest(filepath.Join(s.dir, manifestName))
	compatible := manErr == nil && man.Format == FormatVersion && man.Fingerprint == s.fp
	switch {
	case compatible:
		s.recoverScan()
	case s.readOnly:
		// The resident entries cannot be trusted (wrong or unknown
		// fingerprint) and cannot be invalidated (no writes): serve
		// nothing. Every Get is a miss; no entry is ever served stale.
		s.invalidations.Add(1)
		s.log.Warn("store: fingerprint mismatch on read-only store; serving nothing",
			"dir", s.dir, "err", errString(manErr))
	default:
		s.invalidateAll(errString(manErr))
		if err := writeManifest(filepath.Join(s.dir, manifestName), manifest{Format: FormatVersion, Fingerprint: s.fp}); err != nil {
			// Without a durable manifest the next Open would mistrust
			// everything we write; degrade to read-only and serve nothing.
			s.readOnly = true
			s.log.Warn("store: cannot persist manifest; degrading to read-only", "err", err.Error())
		} else {
			s.recoverScan()
		}
	}

	s.wg.Add(1)
	go s.gcLoop()
	s.kickGC()
	return s, nil
}

// errString renders an error for a log attr ("" for nil — here meaning
// "manifest fine, fingerprint different").
func errString(err error) string {
	if err == nil {
		return "fingerprint mismatch"
	}
	return err.Error()
}

// invalidateAll quarantines the entire entry set in one directory rename
// — the fingerprint changed, so every stored answer is suspect. Nothing
// is deleted: the superseded generation lands under quarantine/ for
// inspection.
func (s *Store) invalidateAll(why string) {
	des, err := os.ReadDir(s.entriesDir)
	if err != nil || len(des) == 0 {
		if err == nil && why != "fingerprint mismatch" {
			return // empty store, no manifest yet: a fresh init, not an invalidation
		}
		if len(des) == 0 {
			return
		}
	}
	dest := filepath.Join(s.quarDir, fmt.Sprintf("invalidated.%d.%d", time.Now().UnixNano(), s.qseq.Add(1)))
	if err := os.Rename(s.entriesDir, dest); err != nil {
		s.log.Warn("store: wholesale invalidation rename failed; entries will be quarantined one by one", "err", err.Error())
		// Fall back to per-file quarantine so nothing mismatched survives.
		for _, de := range des {
			s.quarantineFile(filepath.Join(s.entriesDir, de.Name()), "fingerprint")
		}
	} else {
		s.quarantined.Add(int64(len(des)))
	}
	s.invalidations.Add(1)
	s.log.Warn("store: fingerprint changed; invalidated entry set wholesale",
		"entries", len(des), "quarantine", dest, "reason", why)
	if err := os.MkdirAll(s.entriesDir, 0o755); err != nil {
		s.readOnly = true
		s.log.Warn("store: cannot recreate entries directory; degrading to read-only", "err", err.Error())
	}
}

// recoverScan verifies every resident entry — magic, format, lengths,
// fingerprint, checksum — quarantining the casualties (including crash
// leftovers of interrupted writes) and seeding the LRU order from file
// mtimes so recency survives restarts.
func (s *Store) recoverScan() {
	des, err := os.ReadDir(s.entriesDir)
	if err != nil {
		s.log.Warn("store: recovery scan cannot list entries", "err", err.Error())
		return
	}
	type cand struct {
		key   string
		size  int64
		mtime time.Time
	}
	var good []cand
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		path := filepath.Join(s.entriesDir, name)
		if strings.HasPrefix(name, ".") {
			// An interrupted write's temp file: never published, but never
			// silently discarded either.
			s.quarantineFile(path, "orphan-tmp")
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			s.readErrs.Add(1)
			s.quarantineFile(path, "unreadable")
			continue
		}
		if _, err := decodeEntry(data, s.fp, name); err != nil {
			s.quarantineFile(path, reasonOf(err))
			continue
		}
		info, ierr := de.Info()
		var mt time.Time
		if ierr == nil {
			mt = info.ModTime()
		}
		good = append(good, cand{key: name, size: int64(len(data)), mtime: mt})
	}
	sort.Slice(good, func(i, j int) bool { return good[i].mtime.Before(good[j].mtime) })
	s.mu.Lock()
	for _, c := range good {
		// Oldest first, each made most recent: newest ends up MRU.
		s.lru.Add(c.key, struct{}{}, c.size)
	}
	total := s.lru.Weight()
	s.mu.Unlock()
	if len(good) > 0 || len(des) > 0 {
		s.log.Info("store: recovery scan complete",
			"entries", len(good), "bytes", total, "quarantined", s.quarantined.Load())
	}
}

// Get returns the payload stored under key, verifying fingerprint and
// checksum on every read. Any integrity failure quarantines the entry
// and reports a miss — corruption can cost a re-solve, never a wrong
// answer.
func (s *Store) Get(key string) ([]byte, bool) {
	if !validKey(key) {
		s.misses.Add(1)
		return nil, false
	}
	s.mu.Lock()
	_, ok := s.lru.Peek(key)
	denied := s.deny[key]
	s.mu.Unlock()
	if !ok || denied {
		s.misses.Add(1)
		return nil, false
	}

	if err := faultinject.ErrAt(faultinject.PointStoreRead); err != nil {
		// Transient I/O error: the entry may be fine — degrade to a miss
		// without quarantining.
		s.readErrs.Add(1)
		s.misses.Add(1)
		return nil, false
	}
	path := s.entryPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		s.mu.Lock()
		s.lru.Remove(key)
		s.mu.Unlock()
		if !errors.Is(err, fs.ErrNotExist) {
			s.readErrs.Add(1)
		}
		s.misses.Add(1)
		return nil, false
	}
	payload, err := decodeEntry(data, s.fp, key)
	if err != nil {
		s.Quarantine(key, reasonOf(err))
		s.misses.Add(1)
		return nil, false
	}
	now := time.Now()
	_ = os.Chtimes(path, now, now) // best-effort: LRU recency survives restarts
	s.mu.Lock()
	s.lru.Get(key)
	s.mu.Unlock()
	s.hits.Add(1)
	return payload, true
}

// Put stores payload under key atomically: temp file + fsync + rename +
// directory fsync. Errors (full disk, read-only mode) are counted and
// returned; the caller's in-memory answer is unaffected.
func (s *Store) Put(key string, payload []byte) error {
	if !validKey(key) {
		s.writeErrors.Add(1)
		return fmt.Errorf("store: invalid key %q", key)
	}
	if s.readOnly {
		s.writeErrors.Add(1)
		return ErrReadOnly
	}
	buf := encodeEntry(s.fp, key, payload)
	if s.maxBytes > 0 && int64(len(buf)) > s.maxBytes {
		s.writeErrors.Add(1)
		return fmt.Errorf("store: entry %s (%d bytes) exceeds the store budget (%d)", key, len(buf), s.maxBytes)
	}
	if err := faultinject.ErrAt(faultinject.PointStoreWrite); err != nil {
		s.writeErrors.Add(1)
		return fmt.Errorf("store: write %s: %w", key, err)
	}
	buf = faultinject.MutateBytes(faultinject.PointStoreCorrupt, buf)

	tmp, err := os.CreateTemp(s.entriesDir, ".tmp-*")
	if err != nil {
		s.writeErrors.Add(1)
		return fmt.Errorf("store: write %s: %w", key, err)
	}
	_, werr := tmp.Write(buf)
	serr := tmp.Sync()
	cerr := tmp.Close()
	if err := errors.Join(werr, serr, cerr); err != nil {
		os.Remove(tmp.Name())
		s.writeErrors.Add(1)
		return fmt.Errorf("store: write %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), s.entryPath(key)); err != nil {
		os.Remove(tmp.Name())
		s.writeErrors.Add(1)
		return fmt.Errorf("store: publish %s: %w", key, err)
	}
	s.syncDir(s.entriesDir)

	size := int64(len(buf))
	s.mu.Lock()
	delete(s.deny, key) // a fresh atomic write supersedes any denied file
	s.lru.Add(key, struct{}{}, size)
	over := s.maxBytes > 0 && s.lru.Weight() > s.maxBytes
	s.mu.Unlock()
	s.writes.Add(1)
	if over {
		s.kickGC()
	}
	return nil
}

// Quarantine withdraws an entry from service and moves its file into the
// quarantine directory. The store calls it on its own integrity failures;
// callers use it when they detect a bad entry the checksum cannot see
// (e.g. an undecodable payload). If the file cannot be moved (read-only
// disk), the key is denied in memory instead — quarantine may fail, but
// serving the entry never happens.
func (s *Store) Quarantine(key, reason string) {
	s.mu.Lock()
	_, ok := s.lru.Remove(key)
	s.mu.Unlock()
	if !ok {
		return
	}
	if !s.quarantineFile(s.entryPath(key), reason) {
		s.mu.Lock()
		s.deny[key] = true
		s.mu.Unlock()
	}
}

// quarantineFile moves a file into the quarantine directory, reporting
// whether it is gone from its original location (moved, or already
// absent). false means the file is still in place and the caller must
// deny it in memory.
func (s *Store) quarantineFile(path, reason string) bool {
	dest := filepath.Join(s.quarDir, fmt.Sprintf("%s.%s.%d", filepath.Base(path), reason, s.qseq.Add(1)))
	err := os.Rename(path, dest)
	switch {
	case err == nil:
		s.quarantined.Add(1)
		s.log.Warn("store: quarantined entry", "entry", filepath.Base(path), "reason", reason)
		return true
	case errors.Is(err, fs.ErrNotExist):
		return true // already evicted or quarantined concurrently
	default:
		s.quarantined.Add(1)
		s.log.Warn("store: quarantine move failed; denying entry in memory",
			"entry", filepath.Base(path), "reason", reason, "err", err.Error())
		return false
	}
}

// kickGC nudges the background GC (non-blocking).
func (s *Store) kickGC() {
	select {
	case s.gcKick <- struct{}{}:
	default:
	}
}

func (s *Store) gcLoop() {
	defer s.wg.Done()
	tick := time.NewTicker(time.Minute)
	defer tick.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-s.gcKick:
		case <-tick.C:
		}
		s.gc()
	}
}

// gc enforces the byte budget with LRU eviction. Eviction is policy, not
// data loss: the entry was valid, the budget is just full — deleting
// (rather than quarantining) is correct here.
func (s *Store) gc() {
	if s.maxBytes <= 0 {
		return
	}
	for {
		s.mu.Lock()
		if s.lru.Weight() <= s.maxBytes {
			s.mu.Unlock()
			return
		}
		key, _, ok := s.lru.RemoveOldest()
		s.mu.Unlock()
		if !ok {
			return
		}
		if err := os.Remove(s.entryPath(key)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			s.log.Warn("store: eviction remove failed", "key", key, "err", err.Error())
		}
		s.evictions.Add(1)
	}
}

// Stats returns a point-in-time snapshot of all counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	entries, bytes := s.lru.Len(), s.lru.Weight()
	s.mu.Unlock()
	return Stats{
		Entries:       entries,
		Bytes:         bytes,
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		Writes:        s.writes.Load(),
		WriteErrors:   s.writeErrors.Load(),
		ReadErrors:    s.readErrs.Load(),
		Quarantined:   s.quarantined.Load(),
		Evictions:     s.evictions.Load(),
		Invalidations: s.invalidations.Load(),
		ReadOnly:      s.readOnly,
		Fingerprint:   s.fp,
	}
}

// ReadOnly reports whether the store is running degraded (writes fail
// fast).
func (s *Store) ReadOnly() bool { return s.readOnly }

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Close stops the background GC. It is idempotent; resident entries stay
// on disk for the next Open.
func (s *Store) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.done)
	s.wg.Wait()
}

func (s *Store) entryPath(key string) string { return filepath.Join(s.entriesDir, key) }

// validKey accepts exactly the keys the service produces (hex content
// addresses) plus benign test keys; anything that could escape the
// entries directory or collide with temp files is rejected.
func validKey(key string) bool {
	if len(key) == 0 || len(key) > 250 || key[0] == '.' {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// syncDir fsyncs a directory so a just-published rename is durable.
func (s *Store) syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

func readManifest(path string) (manifest, error) {
	var m manifest
	data, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("store: corrupt manifest: %w", err)
	}
	return m, nil
}

func writeManifest(path string, m manifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".manifest-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(append(data, '\n'))
	serr := tmp.Sync()
	cerr := tmp.Close()
	if err := errors.Join(werr, serr, cerr); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// ---- entry encoding ----
//
// magic(4) | format u32 | fpLen u32 | fp | keyLen u32 | key |
// payloadLen u64 | sha256(payload) (32) | payload
//
// Little-endian throughout. The checksum covers the payload; the header
// is protected by strict parsing (any flipped header byte fails the
// magic/format/length/fingerprint/key checks).

var entryMagic = [4]byte{'B', 'F', 'S', '1'}

// headerFieldMax bounds the fp/key length fields so a corrupt header
// cannot drive a huge allocation.
const headerFieldMax = 4096

func encodeEntry(fp, key string, payload []byte) []byte {
	var b bytes.Buffer
	b.Grow(len(entryMagic) + 20 + len(fp) + len(key) + sha256.Size + len(payload))
	b.Write(entryMagic[:])
	writeU32(&b, FormatVersion)
	writeU32(&b, uint32(len(fp)))
	b.WriteString(fp)
	writeU32(&b, uint32(len(key)))
	b.WriteString(key)
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], uint64(len(payload)))
	b.Write(u64[:])
	sum := sha256.Sum256(payload)
	b.Write(sum[:])
	b.Write(payload)
	return b.Bytes()
}

func writeU32(b *bytes.Buffer, v uint32) {
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], v)
	b.Write(u32[:])
}

// integrityError carries the quarantine reason label for a failed decode.
type integrityError struct {
	reason string
	detail string
}

func (e *integrityError) Error() string { return "store: " + e.reason + ": " + e.detail }

// reasonOf maps a decode error to its quarantine/metric label.
func reasonOf(err error) string {
	var ie *integrityError
	if errors.As(err, &ie) {
		return ie.reason
	}
	return "corrupt"
}

// decodeEntry parses and verifies one entry: magic, format version,
// bounded lengths, fingerprint and key match, payload checksum. It
// returns the payload or an integrityError naming what failed.
func decodeEntry(data []byte, wantFP, wantKey string) ([]byte, error) {
	rd := data
	take := func(n int) ([]byte, bool) {
		if n < 0 || len(rd) < n {
			return nil, false
		}
		out := rd[:n]
		rd = rd[n:]
		return out, true
	}
	mag, ok := take(4)
	if !ok || !bytes.Equal(mag, entryMagic[:]) {
		return nil, &integrityError{"format", "bad magic"}
	}
	verB, ok := take(4)
	if !ok {
		return nil, &integrityError{"torn", "truncated header"}
	}
	if v := binary.LittleEndian.Uint32(verB); v != FormatVersion {
		return nil, &integrityError{"format", fmt.Sprintf("format version %d, want %d", v, FormatVersion)}
	}
	fpLenB, ok := take(4)
	if !ok {
		return nil, &integrityError{"torn", "truncated header"}
	}
	fpLen := binary.LittleEndian.Uint32(fpLenB)
	if fpLen > headerFieldMax {
		return nil, &integrityError{"format", "oversized fingerprint field"}
	}
	fp, ok := take(int(fpLen))
	if !ok {
		return nil, &integrityError{"torn", "truncated fingerprint"}
	}
	keyLenB, ok := take(4)
	if !ok {
		return nil, &integrityError{"torn", "truncated header"}
	}
	keyLen := binary.LittleEndian.Uint32(keyLenB)
	if keyLen > headerFieldMax {
		return nil, &integrityError{"format", "oversized key field"}
	}
	key, ok := take(int(keyLen))
	if !ok {
		return nil, &integrityError{"torn", "truncated key"}
	}
	plenB, ok := take(8)
	if !ok {
		return nil, &integrityError{"torn", "truncated header"}
	}
	plen := binary.LittleEndian.Uint64(plenB)
	sum, ok := take(sha256.Size)
	if !ok {
		return nil, &integrityError{"torn", "truncated checksum"}
	}
	if plen != uint64(len(rd)) {
		return nil, &integrityError{"torn", fmt.Sprintf("payload length %d, %d bytes present", plen, len(rd))}
	}
	payload := rd
	if got := sha256.Sum256(payload); !bytes.Equal(got[:], sum) {
		return nil, &integrityError{"checksum", "payload checksum mismatch"}
	}
	// Checksum-clean content checks last: a failed fingerprint/key match
	// on an intact entry means it was written by a different pipeline
	// version (or landed under the wrong name) — never serve it.
	if string(fp) != wantFP {
		return nil, &integrityError{"fingerprint", "entry written under a different pipeline fingerprint"}
	}
	if string(key) != wantKey {
		return nil, &integrityError{"key", "entry key does not match its filename"}
	}
	return payload, nil
}
