// Package store is the persistent plan store: an embedded,
// stdlib-only, disk-backed database of estimate results, congestion
// maps, finished floorplan jobs and sampled traces, keyed by the
// SHA-256 content addresses (or job and trace ids) the engine and
// serving layer already mint.  It exists so a restarted maest-serve
// warm-starts from everything it (or a prior fleet member sharing the
// directory) ever computed, instead of re-paying compile+execute for
// the repeat-heavy floorplanner workload.
//
// Design: an append-only log of length-prefixed, CRC-32C-checksummed
// records, split into segments.  Appends go to a WAL (`active.wal`);
// when it reaches the segment size it is fsynced and atomically
// renamed to a sealed, immutable `NNNNNNNN.seg` (write-temp-then-
// rename).  Open rebuilds an in-memory hash index by scanning every
// segment, and every segment keeps its index resident: about 128 B
// per key, so a full default (1 GiB) store of estimate and congestion
// records indexes in about 108 MB, and a full trace store in about
// 380 MB.
//
// The store is write-once: a record is never rewritten or deleted in
// place.  A key written again supersedes its older records (lookups
// and scans resolve to the newest), and a byte budget evicts the
// oldest sealed segments wholesale, superseded records and all (the
// store is a cache of recomputable results; losing the oldest is the
// documented policy, not a fault).  Those are the only two lifecycle
// rules.
//
// Crash-safety contract: a record is either fully on disk and
// checksummed, or it is detected (torn tail, CRC mismatch) on reopen
// and truncated — a corrupt payload is never served.  Every read
// re-verifies the record checksum, so bit rot after open is caught at
// serve time too.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"maest/internal/obs"
)

// The maest_store_* metrics.  Process-global in the internal/obs
// style: every store in the process reports here (counters aggregate;
// gauges reflect the most recent store to update, which in production
// is the only one).
var (
	mHits      = obs.DefCounter("maest_store_hits_total", "store lookups answered from disk")
	mMisses    = obs.DefCounter("maest_store_misses_total", "store lookups that found nothing")
	mPuts      = obs.DefCounter("maest_store_puts_total", "records appended")
	mSeals     = obs.DefCounter("maest_store_seals_total", "WAL segments sealed")
	mEvicted   = obs.DefCounter("maest_store_evicted_segments_total", "sealed segments evicted by the byte budget")
	mCorrupt   = obs.DefCounter("maest_store_corrupt_records_skipped_total", "corrupt records detected and skipped, never served")
	mTruncated = obs.DefCounter("maest_store_torn_tails_truncated_total", "torn WAL tails truncated on reopen")
	gBytes     = obs.DefGauge("maest_store_bytes", "total bytes across WAL and sealed segments")
	gSegments  = obs.DefGauge("maest_store_segments", "sealed segment count")
	gRecords   = obs.DefGauge("maest_store_records", "log records across all segments")
	gIndexed   = obs.DefGauge("maest_store_indexed_keys", "keys resident in the in-memory hash index")
)

// ErrClosed is returned by every operation on a closed store.
var ErrClosed = errors.New("store: closed")

// Options configures Open.  The zero value (plus a Dir) selects
// production defaults: 1 GiB byte budget, 8 MiB segments, fsync on
// seal only.  The byte budget also bounds the index, which holds every
// key on disk.
type Options struct {
	// Dir is the store directory, created if missing.
	Dir string
	// MaxBytes is the total size budget; when sealed+WAL bytes exceed
	// it the oldest sealed segments are evicted whole.  0 selects
	// 1 GiB; negative disables eviction.
	MaxBytes int64
	// SegmentBytes is the WAL size at which it seals.  0 selects 8 MiB.
	SegmentBytes int64
}

func (o Options) withDefaults() Options {
	if o.MaxBytes == 0 {
		o.MaxBytes = 1 << 30
	}
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.SegmentBytes < int64(len(segMagic))+recOverhead {
		o.SegmentBytes = int64(len(segMagic)) + recOverhead
	}
	return o
}

// Store is one open store directory.  All methods are safe for
// concurrent use.  The durability unit is the sealed segment: the
// WAL is fsynced when it seals and on Close, and the crash contract
// for its tail is detect-and-truncate, not never-lose.
type Store struct {
	opts Options

	mu      sync.RWMutex
	wal     *segment   // active append target; index always resident
	sealed  []*segment // oldest first
	nextSeq uint64
	closed  bool

	// degraded is latched when corrupt records were detected (at open
	// or at read time) or a seal failed: the store keeps serving
	// everything that verifies, but operators should know the disk
	// lied or refused once.
	// Atomic (like the counters below) because Get mutates it under
	// the read lock.
	degraded atomic.Bool

	// Per-store counters, mirrored into the process-global metrics, so
	// Stats() is meaningful with several stores in one process (tests,
	// the bench harness).
	nHits, nMisses, nPuts atomic.Int64
	nEvicted, nCorrupt    atomic.Int64
	nTruncated            atomic.Int64
}

// Open opens (creating if needed) the store under opts.Dir, rebuilds
// the in-memory index from the segment files and truncates a torn WAL
// tail.
func Open(opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, errors.New("store: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{opts: opts}

	names, seqs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		// seqs ascend, and nextSeq moves past every file, even one
		// skipped below, so a later seal never renames onto it.
		s.nextSeq = seqs[i] + 1
		seg, corrupt, err := loadSegment(filepath.Join(opts.Dir, name), seqs[i])
		switch {
		case errors.Is(err, ErrCorrupt):
			// The header itself is unreadable, so nothing in the file
			// can be trusted.  Skip the segment (the file stays for
			// inspection) and serve the rest degraded, as a WAL with
			// the same damage would be.
			corrupt = 1
		case err != nil:
			s.closeAll()
			return nil, fmt.Errorf("store: segment %s: %w", name, err)
		default:
			s.sealed = append(s.sealed, seg)
		}
		if corrupt > 0 {
			s.degraded.Store(true)
			s.nCorrupt.Add(corrupt)
			mCorrupt.Add(corrupt)
		}
	}
	if err := s.openWAL(); err != nil {
		s.closeAll()
		return nil, err
	}
	s.evictOverBudget()
	s.publishGauges()
	return s, nil
}

// openWAL opens or creates the active segment, truncating a torn
// tail so the append point sits just past the last valid record.
func (s *Store) openWAL() error {
	path := filepath.Join(s.opts.Dir, walName)
	buf, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return s.createWAL(path)
	case err != nil:
		return err
	}

	if len(buf) < len(segMagic) && string(buf) == segMagic[:len(buf)] {
		// A crash between creating the WAL and syncing its header
		// leaves a truncated magic.  That's a torn header, not
		// corruption: no record was ever acknowledged.
		s.nTruncated.Add(1)
		mTruncated.Inc()
		os.Remove(path)
		return s.createWAL(path)
	}

	wal := &segment{path: path, index: make(map[idxKey]recLoc)}
	out, err := scanBytes(buf, func(r *record, off, size int64) {
		wal.records++
		wal.index[idxKey{r.ns, r.key}] = recLoc{off: off, size: size}
	})
	if err != nil {
		// The WAL header itself is gone (empty or foreign file): the
		// whole file is unusable.  Start fresh rather than refuse to
		// open — durable data lives in the sealed segments.
		s.degraded.Store(true)
		s.nCorrupt.Add(1)
		mCorrupt.Inc()
		os.Remove(path)
		return s.createWAL(path)
	}
	if out.torn || out.corrupt > 0 {
		// The crash contract: a torn or corrupt tail is cut off so it
		// can never be served; everything before it survives.
		s.nTruncated.Add(1)
		mTruncated.Inc()
		if out.corrupt > 0 {
			s.nCorrupt.Add(out.corrupt)
			mCorrupt.Add(out.corrupt)
		}
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if err := f.Truncate(out.goodSize); err != nil {
		f.Close()
		return err
	}
	wal.f = f
	wal.size = out.goodSize
	s.wal = wal
	return nil
}

// createWAL writes a fresh active segment holding only the magic.
func (s *Store) createWAL(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt([]byte(segMagic), 0); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	s.wal = &segment{
		path:  path,
		f:     f,
		size:  int64(len(segMagic)),
		index: make(map[idxKey]recLoc),
	}
	return syncDir(s.opts.Dir)
}

// Get returns the newest stored value for (ns, key); the slice is the
// caller's to keep.  A missing key and a value that fails its checksum
// both answer ok=false (the latter also latches degraded and counts
// the corrupt record); err is reserved for I/O failures.
func (s *Store) Get(ns Namespace, key Key) (val []byte, ok bool, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	loc, seg := s.locate(idxKey{ns, key})
	if seg == nil {
		s.nMisses.Add(1)
		mMisses.Inc()
		return nil, false, nil
	}
	r, err := readRecordAt(seg.f, loc.off, loc.size)
	if err != nil {
		if errors.Is(err, ErrCorrupt) {
			// The disk lied after open.  Never serve it; answer a miss
			// so the caller recomputes.
			s.degraded.Store(true)
			s.nCorrupt.Add(1)
			mCorrupt.Inc()
			s.nMisses.Add(1)
			mMisses.Inc()
			return nil, false, nil
		}
		return nil, false, err
	}
	if r.ns != ns || r.key != key {
		// An indexed location that decodes to a different record means
		// the index and file disagree — treat as corruption.
		s.degraded.Store(true)
		s.nCorrupt.Add(1)
		mCorrupt.Inc()
		s.nMisses.Add(1)
		mMisses.Inc()
		return nil, false, nil
	}
	s.nHits.Add(1)
	mHits.Inc()
	return r.payload, true, nil
}

// Scan visits the newest record of every key in ns, in no particular
// key order: as with Get, a key written twice yields only its newest
// payload.  Records that fail their checksum are skipped (latching
// degraded) rather than aborting the scan — a scan is how a trace
// index rebuilds after a restart, and one rotten record must not erase
// the rest of the history.  fn returning an error stops the scan and
// returns that error; the payload passed to fn is the caller's to
// keep.
//
// The scan holds the store's read lock throughout: appends block until
// it finishes, so it belongs at open/rebuild time and in offline
// tools, not on a request path.
func (s *Store) Scan(ns Namespace, fn func(key Key, payload []byte) error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	// Pass 1: resolve each key's newest location, oldest segment first
	// so later segments (and finally the WAL) supersede.
	type winner struct {
		seg *segment
		loc recLoc
	}
	winners := make(map[Key]winner)
	for _, seg := range s.sealed {
		for ik, loc := range seg.index {
			if ik.ns == ns {
				winners[ik.key] = winner{seg, loc}
			}
		}
	}
	for ik, loc := range s.wal.index {
		if ik.ns == ns {
			winners[ik.key] = winner{s.wal, loc}
		}
	}
	// Pass 2: read and verify each winner.
	for key, w := range winners {
		r, err := readRecordAt(w.seg.f, w.loc.off, w.loc.size)
		if err != nil {
			if errors.Is(err, ErrCorrupt) {
				s.degraded.Store(true)
				s.nCorrupt.Add(1)
				mCorrupt.Inc()
				continue
			}
			return err
		}
		if r.ns != ns || r.key != key {
			s.degraded.Store(true)
			s.nCorrupt.Add(1)
			mCorrupt.Inc()
			continue
		}
		if err := fn(key, r.payload); err != nil {
			return err
		}
	}
	return nil
}

// locate resolves (ns, key) to the newest record holding it: the WAL
// first, then sealed segments newest→oldest.  seg == nil means the
// key is nowhere.  Caller holds at least the read lock.
func (s *Store) locate(ik idxKey) (recLoc, *segment) {
	if loc, ok := s.wal.index[ik]; ok {
		return loc, s.wal
	}
	for i := len(s.sealed) - 1; i >= 0; i-- {
		if loc, ok := s.sealed[i].index[ik]; ok {
			return loc, s.sealed[i]
		}
	}
	return recLoc{}, nil
}

// Put stores val under (ns, key), superseding any earlier record.
func (s *Store) Put(ns Namespace, key Key, val []byte) error {
	if len(val) > MaxPayload {
		return fmt.Errorf("store: payload %d bytes exceeds %d cap", len(val), MaxPayload)
	}
	r := &record{ns: ns, key: key, payload: val}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	buf := appendRecord(make([]byte, 0, r.size()), r)
	if _, err := s.wal.f.WriteAt(buf, s.wal.size); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	s.wal.index[idxKey{ns, key}] = recLoc{off: s.wal.size, size: r.size()}
	s.wal.size += r.size()
	s.wal.records++
	s.nPuts.Add(1)
	mPuts.Inc()

	if s.wal.size >= s.opts.SegmentBytes {
		if err := s.seal(); err != nil {
			// A seal that fails at any step leaves no usable WAL, so
			// every later Put fails too; say so on /healthz.
			s.degraded.Store(true)
			return err
		}
	}
	s.evictOverBudget()
	s.publishGauges()
	return nil
}

// seal turns the WAL into a sealed segment: fsync, atomic rename to
// its NNNNNNNN.seg name, fresh WAL.  Caller holds the write lock.
func (s *Store) seal() error {
	if s.wal.records == 0 {
		return nil
	}
	if err := s.wal.f.Sync(); err != nil {
		return err
	}
	if err := s.wal.f.Close(); err != nil {
		return err
	}
	seq := s.nextSeq
	s.nextSeq++
	sealedPath := filepath.Join(s.opts.Dir, segName(seq))
	if err := os.Rename(s.wal.path, sealedPath); err != nil {
		return err
	}
	if err := syncDir(s.opts.Dir); err != nil {
		return err
	}
	f, err := os.Open(sealedPath)
	if err != nil {
		return err
	}
	sealed := s.wal
	sealed.seq = seq
	sealed.path = sealedPath
	sealed.f = f
	s.sealed = append(s.sealed, sealed)
	mSeals.Inc()

	if err := s.createWAL(filepath.Join(s.opts.Dir, walName)); err != nil {
		return err
	}
	s.evictOverBudget()
	return nil
}

// evictOverBudget drops the oldest sealed segments while the store
// exceeds its byte budget.  Caller holds the write lock.
func (s *Store) evictOverBudget() {
	if s.opts.MaxBytes < 0 {
		return
	}
	for len(s.sealed) > 0 && s.totalBytes() > s.opts.MaxBytes {
		oldest := s.sealed[0]
		s.sealed = s.sealed[1:]
		oldest.close()
		os.Remove(oldest.path)
		s.nEvicted.Add(1)
		mEvicted.Inc()
	}
}

func (s *Store) totalBytes() int64 {
	total := s.wal.size
	for _, seg := range s.sealed {
		total += seg.size
	}
	return total
}

func (s *Store) totalRecords() int64 {
	total := s.wal.records
	for _, seg := range s.sealed {
		total += seg.records
	}
	return total
}

func (s *Store) indexedKeys() int64 {
	total := int64(len(s.wal.index))
	for _, seg := range s.sealed {
		total += int64(len(seg.index))
	}
	return total
}

// publishGauges pushes the size gauges.  Caller holds a lock.
func (s *Store) publishGauges() {
	gBytes.Set(float64(s.totalBytes()))
	gSegments.Set(float64(len(s.sealed)))
	gRecords.Set(float64(s.totalRecords()))
	gIndexed.Set(float64(s.indexedKeys()))
}

// Stats is a point-in-time snapshot of the store's state.
type Stats struct {
	Dir      string `json:"dir"`
	Degraded bool   `json:"degraded"`
	// Segments counts sealed segments; the WAL is extra.
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
	WALBytes int64 `json:"wal_bytes"`
	Records  int64 `json:"records"`
	// IndexedKeys counts the index's entries, about 128 B each.
	IndexedKeys int64 `json:"indexed_keys"`

	Hits            int64 `json:"hits"`
	Misses          int64 `json:"misses"`
	Puts            int64 `json:"puts"`
	EvictedSegments int64 `json:"evicted_segments"`
	CorruptRecords  int64 `json:"corrupt_records_skipped"`
	TruncatedTails  int64 `json:"torn_tails_truncated"`
}

// Stats returns the current snapshot.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Dir:             s.opts.Dir,
		Degraded:        s.degraded.Load(),
		Segments:        len(s.sealed),
		Bytes:           s.totalBytes(),
		WALBytes:        s.wal.size,
		Records:         s.totalRecords(),
		IndexedKeys:     s.indexedKeys(),
		Hits:            s.nHits.Load(),
		Misses:          s.nMisses.Load(),
		Puts:            s.nPuts.Load(),
		EvictedSegments: s.nEvicted.Load(),
		CorruptRecords:  s.nCorrupt.Load(),
		TruncatedTails:  s.nTruncated.Load(),
	}
}

// Close flushes the WAL and closes every file.  The store is unusable
// afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.wal.f.Sync()
	s.closeAll()
	return err
}

// closeAll closes every open file handle.  Caller holds the write
// lock (or owns the store exclusively during a failed Open).
func (s *Store) closeAll() {
	if s.wal != nil {
		s.wal.close()
	}
	for _, seg := range s.sealed {
		seg.close()
	}
}
