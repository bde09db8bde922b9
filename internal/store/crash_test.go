package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// The crash-safety contract: a store killed mid-append reopens
// cleanly, the torn final record is detected by checksum/shape and
// truncated — never served — and every surviving record round-trips
// byte-identical to what was originally written.
//
// These tests simulate the kill by doing what a crash does to an
// append-only file: cutting it at an arbitrary byte, or leaving a
// half-written tail of garbage.  Because appends are sequential
// WriteAt calls, every crash state is some prefix of the full file
// (plus, on weird filesystems, trailing junk after the last synced
// prefix — covered by the garbage-tail cases).

// writeCrashFixture builds a store with n records and returns its WAL
// path plus the expected payloads.  SegmentBytes is huge so nothing
// seals: the WAL is where torn tails happen.
func writeCrashFixture(t *testing.T, dir string, n int) string {
	t.Helper()
	s, err := Open(Options{Dir: dir, SegmentBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := s.Put(NSResult, testKey(i), testVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, walName)
}

// reopenAndCheck reopens the store and verifies every key either
// misses or round-trips exactly; returns the number of hits.
func reopenAndCheck(t *testing.T, dir string, n int) (hits int, st Stats) {
	t.Helper()
	s, err := Open(Options{Dir: dir, SegmentBytes: 1 << 30})
	if err != nil {
		t.Fatalf("reopen after simulated crash: %v", err)
	}
	defer s.Close()
	for i := 0; i < n; i++ {
		got, ok, err := s.Get(NSResult, testKey(i))
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if !ok {
			continue
		}
		if !bytes.Equal(got, testVal(i)) {
			t.Fatalf("surviving record %d not byte-identical: %q vs %q", i, got, testVal(i))
		}
		hits++
	}
	return hits, s.Stats()
}

func TestKillMidWriteEveryCut(t *testing.T) {
	// Build one fixture, then replay a crash at EVERY byte offset of
	// the final record and a sample of offsets across earlier ones.
	base := t.TempDir()
	walPath := writeCrashFixture(t, base, 8)
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	// Locate record boundaries by scanning.
	var bounds []int64 // end offset of each record
	if _, err := scanBytes(full, func(r *record, off, size int64) {
		bounds = append(bounds, off+size)
	}); err != nil {
		t.Fatal(err)
	}
	if len(bounds) != 8 {
		t.Fatalf("fixture has %d records, want 8", len(bounds))
	}

	lastStart := bounds[6]
	cuts := []int64{}
	for c := lastStart; c < int64(len(full)); c++ {
		cuts = append(cuts, c) // every byte of the torn final record
	}
	for c := int64(len(segMagic)); c < lastStart; c += 37 {
		cuts = append(cuts, c) // strided sample of earlier crash points
	}

	for _, cut := range cuts {
		cut := cut
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, walName), full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			hits, st := reopenAndCheck(t, dir, 8)
			// Exactly the records wholly before the cut survive.
			want := 0
			for _, b := range bounds {
				if b <= cut {
					want++
				}
			}
			if hits != want {
				t.Fatalf("cut at %d: %d hits, want %d", cut, hits, want)
			}
			// A prefix cut is always a torn tail or a clean boundary;
			// degraded is reserved for real corruption.
			if st.Degraded {
				t.Fatalf("cut at %d marked store degraded: %+v", cut, st)
			}
		})
	}
}

func TestKillMidWriteTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	walPath := writeCrashFixture(t, dir, 5)
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the last record in half.
	var lastOff int64
	scanBytes(full, func(r *record, off, size int64) { lastOff = off })
	cut := lastOff + (int64(len(full))-lastOff)/2
	if err := os.Truncate(walPath, cut); err != nil {
		t.Fatal(err)
	}

	hits, st := reopenAndCheck(t, dir, 5)
	if hits != 4 {
		t.Fatalf("%d survivors, want 4", hits)
	}
	if st.TruncatedTails == 0 {
		t.Fatal("torn tail not counted")
	}
	if st.Degraded {
		t.Fatal("torn tail is a crash signature, not corruption; store must not be degraded")
	}
	// The file itself must have been truncated back to the good prefix
	// so the next append lands at a valid offset.
	info, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != lastOff {
		t.Fatalf("WAL size %d after reopen, want %d", info.Size(), lastOff)
	}
}

func TestKillMidWriteGarbageTail(t *testing.T) {
	// A crash on some filesystems leaves allocated-but-unwritten junk
	// past the last real record.  The CRC must reject it and the
	// reopen must truncate it away.
	dir := t.TempDir()
	walPath := writeCrashFixture(t, dir, 5)
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	junk := bytes.Repeat([]byte{0xDE, 0xAD}, 300)
	if err := os.WriteFile(walPath, append(full, junk...), 0o644); err != nil {
		t.Fatal(err)
	}
	hits, _ := reopenAndCheck(t, dir, 5)
	if hits != 5 {
		t.Fatalf("%d survivors, want all 5", hits)
	}
	info, _ := os.Stat(walPath)
	if info.Size() != int64(len(full)) {
		t.Fatalf("garbage tail not truncated: %d vs %d", info.Size(), len(full))
	}
}

func TestKillMidWriteThenAppendContinues(t *testing.T) {
	// After a torn-tail recovery the store must keep working: new
	// appends land where the truncation left off and survive the next
	// reopen.
	dir := t.TempDir()
	walPath := writeCrashFixture(t, dir, 5)
	full, _ := os.ReadFile(walPath)
	os.Truncate(walPath, int64(len(full))-3)

	s, err := Open(Options{Dir: dir, SegmentBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 15; i++ {
		if err := s.Put(NSResult, testKey(i), testVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Re-write the record the crash destroyed.
	if err := s.Put(NSResult, testKey(4), testVal(4)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	hits, st := reopenAndCheck(t, dir, 15)
	if hits != 10 { // keys 0..4 and 10..14
		t.Fatalf("%d survivors, want 10 (stats %+v)", hits, st)
	}
}

func TestKillDuringSealLeavesConsistentStore(t *testing.T) {
	// Sealing fsyncs the WAL and renames it, and the rename is atomic,
	// so a crash mid-seal leaves a complete WAL past its seal size.
	// Reopening serves all of it, and the next append seals it.  A
	// stray file that is not NNNNNNNN.seg (an older version's .tmp,
	// say) is ignored and left alone.
	dir := t.TempDir()
	writeCrashFixture(t, dir, 100)
	stray := filepath.Join(dir, segName(99)+".tmp")
	if err := os.WriteFile(stray, []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	hits, st := reopenAndCheck(t, dir, 100)
	if hits != 100 || st.Segments != 0 || st.Degraded {
		t.Fatalf("%d survivors, stats %+v; want 100, no sealed segment, not degraded", hits, st)
	}

	s, err := Open(Options{Dir: dir, SegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(NSResult, testKey(100), testVal(100)); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Segments != 1 || st.Records != 101 {
		t.Fatalf("the append after reopen did not seal the oversized WAL: %+v", st)
	}
	s.Close()
	if _, err := os.Stat(stray); err != nil {
		t.Fatalf("stray file touched: %v", err)
	}
	if hits, _ := reopenAndCheck(t, dir, 101); hits != 101 {
		t.Fatalf("%d survivors after the seal, want 101", hits)
	}
}

// TestRottenSegmentHeaderSkipped: one flipped byte in a sealed
// segment's magic costs that segment, not the store.  Open skips it,
// counts it and serves the rest degraded, and later seals take
// sequence numbers past it instead of renaming onto it.
func TestRottenSegmentHeaderSkipped(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, SegmentBytes: 1 << 10}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if err := s.Put(NSResult, testKey(i), testVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Rot the newest sealed segment, so the next free sequence number
	// can only come from the file Open skips.
	names, _, err := listSegments(dir)
	if err != nil || len(names) < 2 {
		t.Fatalf("want several sealed segments, got %v (%v)", names, err)
	}
	rotten := filepath.Join(dir, names[len(names)-1])
	img, err := os.ReadFile(rotten)
	if err != nil {
		t.Fatal(err)
	}
	img[0] ^= 0xFF
	if err := os.WriteFile(rotten, img, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(opts)
	if err != nil {
		t.Fatalf("Open with one rotten segment header: %v", err)
	}
	defer s2.Close()
	if st := s2.Stats(); !st.Degraded || st.CorruptRecords != 1 || st.Segments != len(names)-1 {
		t.Fatalf("stats %+v; want degraded, 1 corrupt, %d segments", st, len(names)-1)
	}
	hits := 0
	for i := 0; i < 60; i++ {
		got, ok, err := s2.Get(NSResult, testKey(i))
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if ok {
			if !bytes.Equal(got, testVal(i)) {
				t.Fatalf("key %d: payload %q", i, got)
			}
			hits++
		}
	}
	if hits == 0 || hits == 60 {
		t.Fatalf("%d of 60 keys hit; want the skipped segment's keys to miss and the rest to hit", hits)
	}
	for i := 100; i < 160; i++ {
		if err := s2.Put(NSResult, testKey(i), testVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := s2.Stats(); st.Segments < len(names) {
		t.Fatalf("no seal after 60 more puts: %+v", st)
	}
	if after, err := os.ReadFile(rotten); err != nil || !bytes.Equal(after, img) {
		t.Fatalf("a seal replaced the skipped segment (err %v)", err)
	}
}

func TestZeroByteWAL(t *testing.T) {
	// Crash between create and header write: 0-byte WAL.  Must reopen
	// clean (nothing was ever acknowledged).
	dir := t.TempDir()
	writeCrashFixture(t, dir, 0)
	os.Truncate(filepath.Join(dir, walName), 0)
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen with 0-byte WAL: %v", err)
	}
	defer s.Close()
	if s.Stats().Degraded {
		t.Fatal("0-byte WAL marked degraded")
	}
	if err := s.Put(NSResult, testKey(1), testVal(1)); err != nil {
		t.Fatal(err)
	}
}
