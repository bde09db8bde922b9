package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"maest/internal/store"
)

// populate writes n keys (and rewrites the first third, leaving
// superseded records on disk) across several small segments, then
// closes the store.
func populate(t *testing.T, dir string, n int) {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		key := store.Key(sha256.Sum256([]byte(fmt.Sprintf("cli-key-%d", i))))
		val := []byte(fmt.Sprintf(`{"module":"m%d","area":%d.5}`, i, i*100))
		if err := st.Put(store.NSResult, key, val); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n/3; i++ {
		key := store.Key(sha256.Sum256([]byte(fmt.Sprintf("cli-key-%d", i))))
		if err := st.Put(store.NSResult, key, []byte(`{"rewritten":true}`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// capture runs fn with os.Stdout redirected and returns what it wrote.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	ferr := fn()
	os.Stdout = old
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), ferr
}

func TestStatsTextAndJSON(t *testing.T) {
	dir := t.TempDir()
	populate(t, dir, 60)

	out, err := capture(t, func() error { return runStats([]string{"-dir", dir}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"status:       ok", "segments:", "records:"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}

	out, err = capture(t, func() error { return runStats([]string{"-dir", dir, "-json"}) })
	if err != nil {
		t.Fatal(err)
	}
	var stats store.Stats
	if err := json.Unmarshal([]byte(out), &stats); err != nil {
		t.Fatalf("stats -json not parseable: %v\n%s", err, out)
	}
	// 60 keys plus 20 rewrites: the store is write-once, so all 80
	// physical records stay on disk.
	if stats.Records != 80 || stats.Degraded {
		t.Fatalf("stats = %+v, want 80 records, not degraded", stats)
	}
}

func TestVerifyCleanAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	populate(t, dir, 60)

	out, err := capture(t, func() error { return runVerify([]string{"-dir", dir}) })
	if err != nil {
		t.Fatalf("verify on a clean store: %v\n%s", err, out)
	}
	if !strings.Contains(out, "clean") {
		t.Errorf("verify output missing verdict:\n%s", out)
	}

	// Flip one byte in the middle of a sealed segment; verify must
	// fail (the CLI's non-zero exit).
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no sealed segments: %v %v", segs, err)
	}
	seg := segs[0]
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = capture(t, func() error { return runVerify([]string{"-dir", dir, "-json"}) })
	if err == nil {
		t.Fatalf("verify passed on a corrupted store:\n%s", out)
	}
	var rep store.VerifyReport
	if jerr := json.Unmarshal([]byte(out), &rep); jerr != nil {
		t.Fatalf("verify -json not parseable: %v\n%s", jerr, out)
	}
	if rep.Clean || rep.Corrupt == 0 {
		t.Fatalf("report = %+v, want corruption flagged", rep)
	}
}

// TestVerifyWALCorruption: corruption in the active WAL is repaired
// by open (the bad record and everything after it are truncated away)
// before Verify ever rescans the file, so the post-repair report
// alone looks clean.  The verify command must still fail: it folds
// the open-time repair evidence into its verdict.
func TestVerifyWALCorruption(t *testing.T) {
	// corruptWAL flips a byte inside the first WAL record's key:
	// 8 bytes of segment magic, then the 6-byte record header, then
	// the key.  The record's CRC no longer matches, which open treats
	// as mid-file corruption (skip and truncate).  Each observation
	// needs its own directory: the first open repairs the file, so a
	// second verify over the same directory would see a clean store.
	corruptWAL := func(t *testing.T, dir string) {
		t.Helper()
		wal := filepath.Join(dir, "active.wal")
		b, err := os.ReadFile(wal)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) < 15 {
			t.Fatalf("WAL too small to corrupt: %d bytes", len(b))
		}
		b[14] ^= 0xFF
		if err := os.WriteFile(wal, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("text", func(t *testing.T) {
		dir := t.TempDir()
		populate(t, dir, 60)
		corruptWAL(t, dir)
		out, err := capture(t, func() error { return runVerify([]string{"-dir", dir}) })
		if err == nil {
			t.Fatalf("verify passed on a store whose WAL repair consumed corruption:\n%s", out)
		}
		if !strings.Contains(out, "corrupt records skipped during WAL repair") {
			t.Errorf("verify output does not explain the open-time repair:\n%s", out)
		}

		// The repair is the fix: a second verify over the now-truncated
		// store is clean and exits zero.
		out, err = capture(t, func() error { return runVerify([]string{"-dir", dir}) })
		if err != nil {
			t.Fatalf("verify after repair still failing: %v\n%s", err, out)
		}
	})

	t.Run("json", func(t *testing.T) {
		dir := t.TempDir()
		populate(t, dir, 60)
		corruptWAL(t, dir)
		out, err := capture(t, func() error { return runVerify([]string{"-dir", dir, "-json"}) })
		if err == nil {
			t.Fatalf("verify -json passed on open-time corruption:\n%s", out)
		}
		var rep struct {
			store.VerifyReport
			OpenCorrupt int64 `json:"open_corrupt_records_skipped"`
		}
		if jerr := json.Unmarshal([]byte(out), &rep); jerr != nil {
			t.Fatalf("verify -json not parseable: %v\n%s", jerr, out)
		}
		if rep.OpenCorrupt == 0 {
			t.Fatalf("report = %+v, want open-time corruption surfaced", rep)
		}
	})
}

// TestVerifyRottenSegmentHeader: a sealed segment whose magic is
// unreadable does not stop the store from opening, but open skips it,
// so verify must fail on the open-time evidence.
func TestVerifyRottenSegmentHeader(t *testing.T) {
	dir := t.TempDir()
	populate(t, dir, 60)
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no sealed segments: %v %v", segs, err)
	}
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if err := os.WriteFile(segs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error { return runVerify([]string{"-dir", dir}) })
	if err == nil {
		t.Fatalf("verify passed with a skipped segment:\n%s", out)
	}
	if !strings.Contains(out, "corrupt records skipped") {
		t.Errorf("verify output does not report the skipped segment:\n%s", out)
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := open(""); err == nil {
		t.Error("open with no -dir did not fail")
	}
	if _, err := open(filepath.Join(t.TempDir(), "nonexistent")); err == nil {
		t.Error("open on a missing directory did not fail")
	}
}
