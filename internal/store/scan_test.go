package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func scanAll(t *testing.T, s *Store, ns Namespace) map[Key][]byte {
	t.Helper()
	out := make(map[Key][]byte)
	if err := s.Scan(ns, func(key Key, payload []byte) error {
		if _, dup := out[key]; dup {
			t.Fatalf("Scan yielded key %x twice", key[:8])
		}
		out[key] = payload
		return nil
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return out
}

func TestScanNamespaceIsolationAndSupersede(t *testing.T) {
	s := openTest(t, Options{})
	for i := 0; i < 20; i++ {
		mustPut(t, s, NSTrace, i)
	}
	for i := 0; i < 5; i++ {
		mustPut(t, s, NSResult, 100+i)
	}
	// Overwrite: only the newest version may surface.
	if err := s.Put(NSTrace, testKey(3), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	// An empty payload is a value like any other, not a deletion.
	if err := s.Put(NSTrace, testKey(7), nil); err != nil {
		t.Fatal(err)
	}

	got := scanAll(t, s, NSTrace)
	if len(got) != 20 {
		t.Fatalf("scanned %d keys, want 20", len(got))
	}
	if v, ok := got[testKey(7)]; !ok || len(v) != 0 {
		t.Fatalf("key rewritten empty yielded %q ok=%v, want an empty payload", v, ok)
	}
	if v := got[testKey(3)]; string(v) != "v2" {
		t.Fatalf("superseded key yielded %q, want v2", v)
	}
	for i := 0; i < 20; i++ {
		if i == 3 || i == 7 {
			continue
		}
		if !bytes.Equal(got[testKey(i)], testVal(i)) {
			t.Fatalf("key %d: payload %q, want %q", i, got[testKey(i)], testVal(i))
		}
	}
	// The other namespace is untouched by the NSTrace scan and scans
	// independently.
	if other := scanAll(t, s, NSResult); len(other) != 5 {
		t.Fatalf("NSResult scan saw %d keys, want 5", len(other))
	}
}

func TestScanSpansSealedSegmentsAndReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Options{Dir: dir, SegmentBytes: 1 << 10})
	for i := 0; i < 80; i++ {
		mustPut(t, s, NSTrace, i)
	}
	if st := s.Stats(); st.Segments == 0 {
		t.Fatalf("test needs sealed segments, got %+v", st)
	}
	if got := scanAll(t, s, NSTrace); len(got) != 80 {
		t.Fatalf("live store: scanned %d, want 80", len(got))
	}
	s.Close()

	// Reopened store: sealed segments are cold (index dropped), so
	// Scan must reindex them on the fly.
	s2 := openTest(t, Options{Dir: dir, SegmentBytes: 1 << 10})
	got := scanAll(t, s2, NSTrace)
	if len(got) != 80 {
		t.Fatalf("reopened store: scanned %d, want 80", len(got))
	}
	for i := 0; i < 80; i++ {
		if !bytes.Equal(got[testKey(i)], testVal(i)) {
			t.Fatalf("key %d payload mismatch after reopen", i)
		}
	}
}

func TestScanSkipsCorruptRecordsAndDegrades(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Options{Dir: dir, SegmentBytes: 1 << 10})
	for i := 0; i < 60; i++ {
		mustPut(t, s, NSTrace, i)
	}
	s.Close()

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
	got := scanAll(t, s2, NSTrace)
	if len(got) >= 60 {
		t.Fatalf("scan of a corrupted store yielded all %d records", len(got))
	}
	// Whatever did surface must be byte-exact; the corrupt record is
	// skipped, not served mangled.
	for i := 0; i < 60; i++ {
		if v, ok := got[testKey(i)]; ok && !bytes.Equal(v, testVal(i)) {
			t.Fatalf("scan served mangled payload for key %d", i)
		}
	}
	if st := s2.Stats(); !st.Degraded {
		t.Fatal("scan over corruption did not latch degraded")
	}
}

func TestScanPropagatesCallbackError(t *testing.T) {
	s := openTest(t, Options{})
	for i := 0; i < 10; i++ {
		mustPut(t, s, NSTrace, i)
	}
	sentinel := errors.New("stop here")
	calls := 0
	err := s.Scan(NSTrace, func(Key, []byte) error {
		calls++
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the callback's sentinel", err)
	}
	if calls != 1 {
		t.Fatalf("callback ran %d times after returning an error", calls)
	}
}

func TestScanEmptyAndClosed(t *testing.T) {
	s := openTest(t, Options{})
	if got := scanAll(t, s, NSTrace); len(got) != 0 {
		t.Fatalf("empty store scan yielded %d keys", len(got))
	}
	s.Close()
	err := s.Scan(NSTrace, func(Key, []byte) error { return nil })
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("scan after Close: err = %v, want ErrClosed", err)
	}
}

func TestScanPayloadIsACopy(t *testing.T) {
	// Scan hands the callback its own copy: mutating it must not
	// poison a later Get of the same key.
	s := openTest(t, Options{})
	mustPut(t, s, NSTrace, 1)
	if err := s.Scan(NSTrace, func(_ Key, payload []byte) error {
		for i := range payload {
			payload[i] = 0xAA
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	mustGet(t, s, NSTrace, 1)
}
