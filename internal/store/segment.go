package store

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// A segment is one log file.  The store holds exactly one active
// segment (the WAL, `active.wal`, append target) and any number of
// sealed segments (`NNNNNNNN.seg`, immutable).  Sealing is
// write-temp-then-rename: the WAL is fsynced and atomically renamed
// to its sealed name, so a sealed segment is either fully present
// under its final name or still the WAL — never half of each.
type segment struct {
	seq  uint64 // position in the log order; higher = newer
	path string
	f    *os.File
	size int64

	// index maps (ns, key) → the segment's LAST record for that key.
	// nil on a demoted ("cold") segment: lookups then go through the
	// bloom filter and, on a maybe, a file scan.  The active segment
	// is never demoted.
	index map[idxKey]recLoc
	// filter is the segment's Bloom filter over every (ns, key) it
	// contains.  Built incrementally on the active segment so sealing
	// costs nothing; rebuilt from the open-time scan for sealed ones.
	filter *bloom

	// records counts log records in the file; distinct counts index
	// entries (kept when the index is demoted).
	records  int64
	distinct int64
}

// idxKey is the full lookup key: namespace byte + content address.
type idxKey struct {
	ns  Namespace
	key Key
}

// recLoc locates one record inside its segment.
type recLoc struct {
	off  int64 // record start offset (including header)
	size int64 // full encoded size
}

const (
	walName = "active.wal"
	segExt  = ".seg"
)

func segName(seq uint64) string { return fmt.Sprintf("%08d%s", seq, segExt) }

// parseSegSeq extracts the sequence number from a sealed segment file
// name; ok is false for anything that is not NNNNNNNN.seg, so stray
// files in the directory are ignored.
func parseSegSeq(name string) (uint64, bool) {
	base := strings.TrimSuffix(name, segExt)
	if base == name || len(base) == 0 {
		return 0, false
	}
	seq, err := strconv.ParseUint(base, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// listSegments returns the sealed segment files under dir in log
// order (oldest first).
func listSegments(dir string) ([]string, []uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	type nameSeq struct {
		name string
		seq  uint64
	}
	var segs []nameSeq
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSegSeq(e.Name()); ok {
			segs = append(segs, nameSeq{e.Name(), seq})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	names := make([]string, len(segs))
	seqs := make([]uint64, len(segs))
	for i, s := range segs {
		names[i], seqs[i] = s.name, s.seq
	}
	return names, seqs, nil
}

// scanOutcome summarizes one segment scan.
type scanOutcome struct {
	// goodSize is the byte offset just past the last valid record.
	goodSize int64
	// corrupt is 1 when a record failed validation mid-file (a corrupt
	// length field forbids resynchronizing, so the unknown remainder
	// is abandoned and counted once).
	corrupt int64
	// torn reports that the file ended mid-record (crash signature).
	torn bool
}

// scanBytes replays every valid record of a segment image into visit
// (in log order).  It stops at the first record that fails
// validation: a short tail is reported as torn (the caller truncates
// a WAL, tolerates a sealed file), and a checksum/shape failure as
// corrupt.  The CRC guarantees nothing invalid is ever replayed.
func scanBytes(buf []byte, visit func(r *record, off, size int64)) (scanOutcome, error) {
	if len(buf) < len(segMagic) || string(buf[:len(segMagic)]) != segMagic {
		return scanOutcome{}, fmt.Errorf("%w: bad segment magic", ErrCorrupt)
	}
	out := scanOutcome{goodSize: int64(len(segMagic))}
	off := int64(len(buf[:len(segMagic)]))
	for off < int64(len(buf)) {
		r, n, err := decodeRecord(buf[off:])
		if err != nil {
			if errors.Is(err, errShort) {
				out.torn = true
			} else {
				out.corrupt = 1
			}
			return out, nil
		}
		visit(r, off, n)
		off += n
		out.goodSize = off
	}
	return out, nil
}

// scanFile is scanBytes over a whole file read into memory.  Cold
// lookups and Verify use it instead of seeking a shared fd, so
// concurrent readers never race on a file offset.
func scanFile(path string, visit func(r *record, off, size int64)) (scanOutcome, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return scanOutcome{}, err
	}
	return scanBytes(buf, visit)
}

// loadSegment opens and scans one sealed segment, building its
// in-memory index and bloom filter.  Corruption inside a sealed
// segment cannot be truncated away (the file is immutable and records
// after the bad region are unreachable); the valid prefix is served
// and the store marks itself degraded.  A file whose header is
// unreadable returns an ErrCorrupt error, and Open skips it.
func loadSegment(path string, seq uint64) (*segment, int64, error) {
	seg := &segment{seq: seq, path: path, index: make(map[idxKey]recLoc)}
	out, err := scanFile(path, func(r *record, off, size int64) {
		seg.records++
		seg.index[idxKey{r.ns, r.key}] = recLoc{off: off, size: size}
	})
	if err != nil {
		return nil, 0, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	seg.f = f
	seg.size = out.goodSize
	seg.distinct = int64(len(seg.index))
	seg.filter = newBloom(len(seg.index))
	for ik := range seg.index {
		seg.filter.add(bloomHashes(ik.ns, ik.key))
	}
	corrupt := out.corrupt
	if out.torn {
		// A sealed segment should never be torn (sealing syncs before
		// the rename); treat a torn tail in one as corruption too.
		corrupt++
	}
	return seg, corrupt, nil
}

// lookup resolves a key inside this segment: via the index when
// resident, else bloom filter + file scan.  found=false means the
// segment definitively does not hold the key (and the caller probes
// the next-older segment).  scanned reports that the cold path
// touched the disk, for the metrics.
func (s *segment) lookup(ik idxKey) (loc recLoc, found bool, scanned bool, err error) {
	if s.index != nil {
		loc, found = s.index[ik]
		return loc, found, false, nil
	}
	if !s.filter.mayContain(bloomHashes(ik.ns, ik.key)) {
		return recLoc{}, false, false, nil
	}
	// Cold segment, bloom maybe: scan for the LAST record matching the
	// key (later appends supersede).  Bloom false positives land here
	// too; they scan and find nothing.
	_, err = scanFile(s.path, func(r *record, off, size int64) {
		if r.ns == ik.ns && r.key == ik.key {
			loc = recLoc{off: off, size: size}
			found = true
		}
	})
	if err != nil {
		return recLoc{}, false, true, err
	}
	return loc, found, true, nil
}

// reindex rebuilds a demoted segment's index map (Scan needs exact
// membership, not bloom maybes).  The result is returned rather than
// installed so the segment stays cold.
func (s *segment) reindex() (map[idxKey]recLoc, error) {
	if s.index != nil {
		return s.index, nil
	}
	m := make(map[idxKey]recLoc, s.distinct)
	_, err := scanFile(s.path, func(r *record, off, size int64) {
		m[idxKey{r.ns, r.key}] = recLoc{off: off, size: size}
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// demote drops the segment's index map, keeping the bloom filter: the
// segment's keys stop costing index memory and misses still skip it
// in O(1).
func (s *segment) demote() {
	s.index = nil
}

func (s *segment) close() {
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
