package store

import (
	"fmt"
	"path/filepath"
)

// SegmentInfo is one segment's line in a verification report.
type SegmentInfo struct {
	Name    string `json:"name"`
	Seq     uint64 `json:"seq"`
	WAL     bool   `json:"wal,omitempty"`
	Bytes   int64  `json:"bytes"`
	Records int64  `json:"records"`
	Keys    int64  `json:"keys"`
	// Corrupt counts unreadable regions found by the full re-scan;
	// Torn reports a file that ends mid-record.
	Corrupt int64 `json:"corrupt,omitempty"`
	Torn    bool  `json:"torn,omitempty"`
}

// VerifyReport is the result of a full-store checksum verification.
type VerifyReport struct {
	Segments []SegmentInfo `json:"segments"`
	Records  int64         `json:"records"`
	Bytes    int64         `json:"bytes"`
	Corrupt  int64         `json:"corrupt"`
	Clean    bool          `json:"clean"`
}

// Verify re-reads and re-checksums every record in every segment
// (including the WAL), reporting per-segment totals.  It takes the
// read lock, so writes pause while it runs.
func (s *Store) Verify() (*VerifyReport, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	rep := &VerifyReport{}
	scanOne := func(seg *segment, wal bool) error {
		info := SegmentInfo{
			Name:  filepath.Base(seg.path),
			Seq:   seg.seq,
			WAL:   wal,
			Bytes: seg.size,
		}
		keys := make(map[idxKey]struct{})
		out, err := scanFile(seg.path, func(r *record, off, size int64) {
			info.Records++
			keys[idxKey{r.ns, r.key}] = struct{}{}
		})
		if err != nil {
			// Header-level corruption: the whole file is unreadable.
			info.Corrupt = 1
		} else {
			info.Corrupt = out.corrupt
			info.Torn = out.torn
			if wal && out.torn {
				// The in-memory WAL can legitimately be ahead of a
				// concurrent scan only if writes were running; under the
				// read lock they are not, so a torn WAL is real.
				info.Corrupt++
			}
		}
		info.Keys = int64(len(keys))
		rep.Segments = append(rep.Segments, info)
		rep.Records += info.Records
		rep.Bytes += info.Bytes
		rep.Corrupt += info.Corrupt
		return nil
	}
	for _, seg := range s.sealed {
		if err := scanOne(seg, false); err != nil {
			return nil, err
		}
	}
	if err := scanOne(s.wal, true); err != nil {
		return nil, err
	}
	rep.Clean = rep.Corrupt == 0
	return rep, nil
}

// String renders the report the way the maest-store CLI prints it.
func (r *VerifyReport) String() string {
	s := ""
	for _, seg := range r.Segments {
		state := "ok"
		switch {
		case seg.Corrupt > 0:
			state = fmt.Sprintf("CORRUPT(%d)", seg.Corrupt)
		case seg.Torn:
			state = "TORN"
		}
		s += fmt.Sprintf("%-14s %10d B %8d rec %8d keys  %s\n",
			seg.Name, seg.Bytes, seg.Records, seg.Keys, state)
	}
	verdict := "clean"
	if !r.Clean {
		verdict = fmt.Sprintf("%d corrupt records", r.Corrupt)
	}
	s += fmt.Sprintf("total: %d records, %d bytes, %s\n", r.Records, r.Bytes, verdict)
	return s
}
