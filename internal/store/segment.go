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
	// Every segment keeps its index resident (about 128 B per key).
	index map[idxKey]recLoc

	// records counts log records in the file.
	records int64
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

// scanFile is scanBytes over a whole file read into memory.  Open and
// Verify use it instead of seeking a shared fd, so concurrent readers
// never race on a file offset.
func scanFile(path string, visit func(r *record, off, size int64)) (scanOutcome, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return scanOutcome{}, err
	}
	return scanBytes(buf, visit)
}

// loadSegment opens and scans one sealed segment, building its
// in-memory index.  Corruption inside a sealed segment cannot be
// truncated away (the file is immutable and records after the bad
// region are unreachable); the valid prefix is served and the store
// marks itself degraded.  A file whose header is unreadable returns
// an ErrCorrupt error, and Open skips it.
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
	corrupt := out.corrupt
	if out.torn {
		// A sealed segment should never be torn (sealing syncs before
		// the rename); treat a torn tail in one as corruption too.
		corrupt++
	}
	return seg, corrupt, nil
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
