package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// testKey derives a deterministic content address the way the rest of
// the system does: by hashing a canonical rendering.
func testKey(i int) Key {
	return sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
}

func testVal(i int) []byte {
	return []byte(fmt.Sprintf(`{"module":"m%d","area":%d.5}`, i, i*100))
}

func openTest(t *testing.T, opts Options) *Store {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustPut(t *testing.T, s *Store, ns Namespace, i int) {
	t.Helper()
	if err := s.Put(ns, testKey(i), testVal(i)); err != nil {
		t.Fatalf("Put %d: %v", i, err)
	}
}

func mustGet(t *testing.T, s *Store, ns Namespace, i int) {
	t.Helper()
	got, ok, err := s.Get(ns, testKey(i))
	if err != nil {
		t.Fatalf("Get %d: %v", i, err)
	}
	if !ok {
		t.Fatalf("Get %d: miss, want hit", i)
	}
	if !bytes.Equal(got, testVal(i)) {
		t.Fatalf("Get %d: payload %q, want %q", i, got, testVal(i))
	}
}

// TestPutGetDelete: puts answer byte-identical gets, namespaces stay
// apart and a newer put supersedes.  The store has no delete: a
// retired tombstone (kind 2) found in the WAL removes nothing — reopen
// cuts it off as a corrupt tail and the key keeps its value.
func TestPutGetDelete(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Options{Dir: dir})
	for i := 0; i < 100; i++ {
		mustPut(t, s, NSResult, i)
	}
	for i := 0; i < 100; i++ {
		mustGet(t, s, NSResult, i)
	}
	// A key written in one namespace must be invisible in another.
	if _, ok, _ := s.Get(NSCongest, testKey(1)); ok {
		t.Fatal("namespace leak: NSResult key visible under NSCongest")
	}
	// Overwrite supersedes.
	if err := s.Put(NSResult, testKey(5), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, ok, _ := s.Get(NSResult, testKey(5))
	if !ok || string(got) != "v2" {
		t.Fatalf("after overwrite: %q ok=%v", got, ok)
	}
	if st := s.Stats(); st.Puts != 101 || st.Hits != 101 || st.Misses != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	tomb := appendRecord(nil, &record{ns: NSResult, key: testKey(7)})
	tomb[0] = 2
	binary.LittleEndian.PutUint32(tomb[len(tomb)-crcLen:], crc32.Checksum(tomb[:len(tomb)-crcLen], castagnoli))
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(tomb); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openTest(t, Options{Dir: dir})
	mustGet(t, s2, NSResult, 7)
	if st := s2.Stats(); st.CorruptRecords != 1 || st.TruncatedTails != 1 {
		t.Fatalf("retired tombstone not cut off as a corrupt tail: %+v", st)
	}
}

// TestHas: Get's ok flag answers whether a key is present; an absent
// key misses without error.
func TestHas(t *testing.T) {
	s := openTest(t, Options{})
	mustPut(t, s, NSResult, 1)
	if _, ok, err := s.Get(NSResult, testKey(1)); err != nil || !ok {
		t.Fatalf("present key: ok=%v err=%v", ok, err)
	}
	if _, ok, err := s.Get(NSResult, testKey(2)); err != nil || ok {
		t.Fatalf("absent key: ok=%v err=%v", ok, err)
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestGetHitAllocs pins a hit's allocations: the record read buffer
// (whose payload is handed to the caller without a second copy) and
// the decoded record header.
func TestGetHitAllocs(t *testing.T) {
	s := openTest(t, Options{})
	mustPut(t, s, NSResult, 1)
	key := testKey(1)
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok, err := s.Get(NSResult, key); !ok || err != nil {
			t.Fatalf("Get: ok=%v err=%v", ok, err)
		}
	})
	if allocs > 2 {
		t.Fatalf("Get hit allocates %v times, want at most 2", allocs)
	}
}

func TestReopenRecovers(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Options{Dir: dir, SegmentBytes: 4 << 10})
	for i := 0; i < 200; i++ {
		mustPut(t, s, NSResult, i)
	}
	// Key 3's first record is sealed by now; its rewrite lands in the
	// WAL and must still win after the reopen.
	if err := s.Put(NSResult, testKey(3), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := openTest(t, Options{Dir: dir, SegmentBytes: 4 << 10})
	for i := 0; i < 200; i++ {
		if i == 3 {
			if got, ok, _ := s2.Get(NSResult, testKey(3)); !ok || string(got) != "v2" {
				t.Fatalf("rewrite lost across reopen: %q ok=%v", got, ok)
			}
			continue
		}
		mustGet(t, s2, NSResult, i)
	}
	if st := s2.Stats(); st.Segments == 0 {
		t.Fatalf("expected sealed segments after 200 puts at 4 KiB, got %+v", st)
	}
	if st := s2.Stats(); st.Degraded {
		t.Fatal("clean reopen marked degraded")
	}
}

func TestSealingAndSegmentFiles(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Options{Dir: dir, SegmentBytes: 2 << 10})
	for i := 0; i < 100; i++ {
		mustPut(t, s, NSResult, i)
	}
	names, _, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 2 {
		t.Fatalf("want several sealed segments, got %v", names)
	}
	// Every record must remain reachable across the WAL/sealed split.
	for i := 0; i < 100; i++ {
		mustGet(t, s, NSResult, i)
	}
}

// TestReopenIndexesEverySegment: a reopened multi-segment store indexes
// every key it holds, in every segment, and answers each from the index.
func TestReopenIndexesEverySegment(t *testing.T) {
	dir := t.TempDir()
	const keys = 120
	s := openTest(t, Options{Dir: dir, SegmentBytes: 2 << 10})
	for i := 0; i < keys; i++ {
		mustPut(t, s, NSResult, i)
	}
	s.Close()

	s2 := openTest(t, Options{Dir: dir, SegmentBytes: 2 << 10})
	st := s2.Stats()
	if st.Segments < 2 {
		t.Fatalf("want several sealed segments, got %+v", st)
	}
	if st.IndexedKeys != keys {
		t.Fatalf("IndexedKeys = %d after reopen, want %d", st.IndexedKeys, keys)
	}
	for i := 0; i < keys; i++ {
		mustGet(t, s2, NSResult, i)
	}
	for i := 1000; i < 1050; i++ {
		if _, ok, err := s2.Get(NSResult, testKey(i)); err != nil || ok {
			t.Fatalf("absent key %d: ok=%v err=%v", i, ok, err)
		}
	}
}

// TestFailedSealLatchesDegraded: a seal that fails leaves no usable
// WAL, so the store must say it is degraded rather than fail every
// later Put while reporting healthy.
func TestFailedSealLatchesDegraded(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Options{Dir: dir, SegmentBytes: 1 << 10})
	// Appends still land in the unlinked WAL; the seal's rename fails.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	var err error
	for i := 0; i < 100 && err == nil; i++ {
		err = s.Put(NSResult, testKey(i), testVal(i))
	}
	if err == nil {
		t.Fatal("no Put failed after the store directory was removed")
	}
	if !s.Stats().Degraded {
		t.Fatalf("failed seal (%v) left the store healthy", err)
	}
	if err := s.Put(NSResult, testKey(500), testVal(500)); err == nil {
		t.Fatal("Put after a failed seal succeeded")
	}
}

func TestEvictionBudget(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Options{Dir: dir, SegmentBytes: 2 << 10, MaxBytes: 8 << 10})
	for i := 0; i < 500; i++ {
		mustPut(t, s, NSResult, i)
	}
	st := s.Stats()
	if st.Bytes > 8<<10 {
		t.Fatalf("store exceeds budget: %d bytes", st.Bytes)
	}
	if st.EvictedSegments == 0 {
		t.Fatalf("expected evictions, got %+v", st)
	}
	// Recent keys survive; the oldest are gone (cache semantics).
	mustGet(t, s, NSResult, 499)
	if _, ok, _ := s.Get(NSResult, testKey(0)); ok {
		t.Fatal("oldest key survived a budget 60x smaller than the data")
	}
}

func TestVerifyClean(t *testing.T) {
	s := openTest(t, Options{SegmentBytes: 2 << 10})
	for i := 0; i < 50; i++ {
		mustPut(t, s, NSResult, i)
	}
	rep, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		t.Fatalf("fresh store not clean: %s", rep)
	}
	if rep.Records != 50 {
		t.Fatalf("verify counted %d records, want 50", rep.Records)
	}
}

// TestVerifyReportString pins the text maest-store verify prints for a
// clean store, a torn WAL and a corrupt sealed segment.
func TestVerifyReportString(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, dir string)
		want   string
	}{
		{"clean", func(*testing.T, string) {}, `00000000.seg          216 B        3 rec        3 keys  ok
active.wal            148 B        2 rec        2 keys  ok
total: 5 records, 364 bytes, clean
`},
		{"torn WAL", func(t *testing.T, dir string) {
			// Half a record appended behind the open store's back.
			f, err := os.OpenFile(filepath.Join(dir, walName), os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			r := &record{ns: NSResult, key: testKey(99), payload: testVal(99)}
			if _, err := f.Write(appendRecord(nil, r)[:r.size()/2]); err != nil {
				t.Fatal(err)
			}
		}, `00000000.seg          216 B        3 rec        3 keys  ok
active.wal            148 B        2 rec        2 keys  CORRUPT(1)
total: 5 records, 364 bytes, 1 corrupt records
`},
		{"torn segment", func(t *testing.T, dir string) {
			// Cut behind the open store's back: the report says TORN but
			// clean; a reopen is what counts the tail corrupt.
			if err := os.Truncate(filepath.Join(dir, segName(0)), 200); err != nil {
				t.Fatal(err)
			}
		}, `00000000.seg          216 B        2 rec        2 keys  TORN
active.wal            148 B        2 rec        2 keys  ok
total: 4 records, 364 bytes, clean
`},
		{"corrupt segment", func(t *testing.T, dir string) {
			path := filepath.Join(dir, segName(0))
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			buf[len(buf)/2] ^= 0xFF
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
		}, `00000000.seg          216 B        1 rec        1 keys  CORRUPT(1)
active.wal            148 B        2 rec        2 keys  ok
total: 3 records, 364 bytes, 1 corrupt records
`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openTest(t, Options{Dir: dir, SegmentBytes: 200})
			for i := 0; i < 5; i++ {
				mustPut(t, s, NSResult, i)
			}
			tc.damage(t, dir)
			rep, err := s.Verify()
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.String(); got != tc.want {
				t.Errorf("report:\n%s\nwant:\n%s", got, tc.want)
			}
		})
	}
}

func TestCorruptSealedRecordNeverServed(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Options{Dir: dir, SegmentBytes: 1 << 10})
	for i := 0; i < 60; i++ {
		mustPut(t, s, NSResult, i)
	}
	s.Close()

	// Flip a byte in the middle of the first sealed segment's payload
	// region.
	names, _, err := listSegments(dir)
	if err != nil || len(names) == 0 {
		t.Fatalf("listSegments: %v %v", names, err)
	}
	path := filepath.Join(dir, names[0])
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0xFF
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, Options{Dir: dir, SegmentBytes: 1 << 10})
	st := s2.Stats()
	if !st.Degraded || st.CorruptRecords == 0 {
		t.Fatalf("corruption not surfaced: %+v", st)
	}
	// Every Get must either hit with the exact original payload or
	// miss — never return mangled bytes.
	for i := 0; i < 60; i++ {
		got, ok, err := s2.Get(NSResult, testKey(i))
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if ok && !bytes.Equal(got, testVal(i)) {
			t.Fatalf("corrupt payload served for key %d: %q", i, got)
		}
	}
	rep, err := s2.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean {
		t.Fatal("Verify calls a corrupted store clean")
	}
}

func TestBitRotAfterOpenCaughtAtRead(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Options{Dir: dir, SegmentBytes: 1 << 10})
	for i := 0; i < 60; i++ {
		mustPut(t, s, NSResult, i)
	}
	// Rot a sealed segment BEHIND the open store's back: the index
	// still points at the record, so only the read-time CRC can save
	// us.
	names, _, err := listSegments(dir)
	if err != nil || len(names) == 0 {
		t.Fatal("no sealed segments")
	}
	path := filepath.Join(dir, names[0])
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	info, _ := f.Stat()
	one := make([]byte, 1)
	if _, err := f.ReadAt(one, info.Size()/2); err != nil {
		t.Fatal(err)
	}
	one[0] ^= 0xFF
	if _, err := f.WriteAt(one, info.Size()/2); err != nil {
		t.Fatal(err)
	}
	f.Close()

	misses := 0
	for i := 0; i < 60; i++ {
		got, ok, err := s.Get(NSResult, testKey(i))
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if !ok {
			misses++
			continue
		}
		if !bytes.Equal(got, testVal(i)) {
			t.Fatalf("rotten payload served for key %d", i)
		}
	}
	if misses == 0 {
		t.Fatal("bit flip changed nothing — test not exercising the read path")
	}
	if st := s.Stats(); !st.Degraded {
		t.Fatal("read-time corruption did not latch degraded")
	}
}

func TestClosedStoreErrors(t *testing.T) {
	s := openTest(t, Options{})
	mustPut(t, s, NSResult, 1)
	s.Close()
	if _, _, err := s.Get(NSResult, testKey(1)); err != ErrClosed {
		t.Fatalf("Get after close: %v", err)
	}
	if err := s.Put(NSResult, testKey(2), nil); err != ErrClosed {
		t.Fatalf("Put after close: %v", err)
	}
	if _, err := s.Verify(); err != ErrClosed {
		t.Fatalf("Verify after close: %v", err)
	}
	// Double close is a no-op.
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestConcurrentReadersWriters(t *testing.T) {
	s := openTest(t, Options{SegmentBytes: 2 << 10})
	const keys = 64
	done := make(chan struct{})
	var readers sync.WaitGroup
	go func() {
		defer close(done)
		for round := 0; round < 20; round++ {
			for i := 0; i < keys; i++ {
				if err := s.Put(NSResult, testKey(i), testVal(i)); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}
	}()
	for j := 0; j < 4; j++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for i := 0; i < keys; i++ {
					got, ok, err := s.Get(NSResult, testKey(i))
					if err != nil {
						t.Errorf("Get: %v", err)
						return
					}
					if ok && !bytes.Equal(got, testVal(i)) {
						t.Errorf("torn read for key %d", i)
						return
					}
				}
			}
		}()
	}
	<-done
	readers.Wait()
	for i := 0; i < keys; i++ {
		mustGet(t, s, NSResult, i)
	}
}

func TestPayloadCap(t *testing.T) {
	s := openTest(t, Options{})
	if err := s.Put(NSResult, testKey(1), make([]byte, MaxPayload+1)); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for _, tc := range []record{
		{ns: NSResult, key: testKey(1), payload: []byte("hello")},
		{ns: NSCongest, key: testKey(2), payload: nil},
		{ns: NSFloorplan, key: testKey(3), payload: bytes.Repeat([]byte{0xFF}, 4096)},
	} {
		buf := appendRecord(nil, &tc)
		got, n, err := decodeRecord(buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if n != int64(len(buf)) {
			t.Fatalf("size %d, want %d", n, len(buf))
		}
		if got.ns != tc.ns || got.key != tc.key || !bytes.Equal(got.payload, tc.payload) {
			t.Fatalf("round trip mismatch: %+v vs %+v", got, tc)
		}
	}
}

func TestDecodeRejectsLyingLength(t *testing.T) {
	r := &record{ns: NSResult, key: testKey(1), payload: []byte("abcdef")}
	buf := appendRecord(nil, r)
	// Claim a shorter payload: CRC must catch the lie (the bytes at the
	// shifted CRC position are payload bytes, not the right checksum).
	binary.LittleEndian.PutUint32(buf[2:6], 2)
	if _, _, err := decodeRecord(buf); err == nil {
		t.Fatal("shortened length field accepted")
	}
	// Claim a huge payload: must fail shape validation, not allocate.
	binary.LittleEndian.PutUint32(buf[2:6], MaxPayload+1)
	if _, _, err := decodeRecord(buf); err == nil {
		t.Fatal("oversized length field accepted")
	}
}

// fixtureKey and fixtureVal are the keys and payloads of
// testdata/parent-store, a directory written by the store as it was
// before it became write-once (it still had a compactor, and the
// server still wrote namespace 3).  It was made with SegmentBytes 1 KiB
// by writing, in order, six keys each of NSResult, NSCongest,
// NSFloorplan and namespace 3 (version 1), then NSResult key 0 again
// (version 2).  That left one sealed segment, holding the first
// version of the rewritten key, and a WAL holding the second.
func fixtureKey(ns Namespace, i int) Key {
	return sha256.Sum256([]byte(fmt.Sprintf("fixture-%d-%d", ns, i)))
}

func fixtureVal(ns Namespace, i, version int) []byte {
	return []byte(fmt.Sprintf(`{"ns":%d,"i":%d,"v":%d,"area":%d.25}`, ns, i, version, i*37))
}

// TestOpensOlderDirectory: a directory the older store wrote opens
// clean and answers every record byte-identically, the rewritten key
// with its newer payload.
func TestOpensOlderDirectory(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{segName(0), walName} {
		b, err := os.ReadFile(filepath.Join("testdata", "parent-store", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := openTest(t, Options{Dir: dir})
	if st := s.Stats(); st.Segments != 1 || st.Records != 25 || st.Degraded {
		t.Fatalf("stats %+v, want 1 sealed segment, 25 records, not degraded", st)
	}
	for _, ns := range []Namespace{NSResult, NSCongest, NSFloorplan, 3} {
		for i := 0; i < 6; i++ {
			want := fixtureVal(ns, i, 1)
			if ns == NSResult && i == 0 {
				want = fixtureVal(ns, i, 2)
			}
			got, ok, err := s.Get(ns, fixtureKey(ns, i))
			if err != nil || !ok || !bytes.Equal(got, want) {
				t.Fatalf("ns %d key %d: %q ok=%v err=%v, want %q", ns, i, got, ok, err, want)
			}
		}
	}
	rep, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean || rep.Records != 25 {
		t.Fatalf("verify: %s", rep)
	}
}
