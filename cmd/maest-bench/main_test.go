package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"maest/internal/report"
)

const goldenDir = "../../testdata/golden"

func benchOptions(t *testing.T, label string) *options {
	t.Helper()
	return &options{
		label:     label,
		out:       filepath.Join(t.TempDir(), "BENCH_"+label+".json"),
		goldenDir: goldenDir,
		tolPP:     0.5,
	}
}

// TestBenchEmitsValidSnapshot runs the accuracy rerun and validates the
// emitted BENCH_*.json: exactly the schema-2 header plus the accuracy
// block, with every Table 1/2 configuration reproduced to golden print
// precision.
func TestBenchEmitsValidSnapshot(t *testing.T) {
	o := benchOptions(t, "test")
	var out bytes.Buffer
	regressions, err := run(o, &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(regressions) != 0 {
		t.Fatalf("no -compare given but regressions returned: %v", regressions)
	}

	raw, err := os.ReadFile(o.out)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range doc {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"accuracy", "created_at", "go_version", "label", "schema"}; !slices.Equal(keys, want) {
		t.Fatalf("snapshot top-level keys %v, want exactly %v", keys, want)
	}
	if doc["schema"] != float64(2) {
		t.Fatalf("schema %v, want 2", doc["schema"])
	}

	snap, err := report.ReadBenchSnapshot(o.out)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Schema != report.BenchSchema || snap.Label != "test" ||
		snap.CreatedAt == "" || snap.GoVersion == "" {
		t.Fatalf("snapshot header: %+v", snap)
	}
	if snap.Accuracy.Process != "nmos25" || snap.Accuracy.Seed != 1 {
		t.Fatalf("accuracy not rebuilt at the goldens' nmos25 / seed 1: %+v", snap.Accuracy)
	}
	if len(snap.Accuracy.Modules) != 15 {
		t.Fatalf("accuracy has %d module configs, want 15", len(snap.Accuracy.Modules))
	}
	// The rerun must reproduce the goldens to print precision: this is
	// the paper-anchored baseline the comparator guards.
	if snap.Accuracy.MaxDriftPP > 0.05+1e-9 {
		t.Fatalf("max drift %.4fpp exceeds golden print precision", snap.Accuracy.MaxDriftPP)
	}
}

// TestBenchCompareFlagsInjectedRegression is the CI-gate acceptance
// test: against an honest reference the compare is clean, and against
// a reference doctored to claim zero drift for a module that really
// drifts (within print precision) the same run is flagged.
func TestBenchCompareFlagsInjectedRegression(t *testing.T) {
	// First run produces the reference.
	ref := benchOptions(t, "ref")
	var out bytes.Buffer
	if _, err := run(ref, &out); err != nil {
		t.Fatal(err)
	}

	// Honest compare: clean.
	again := benchOptions(t, "again")
	again.compare = ref.out
	regressions, err := run(again, &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(regressions) != 0 {
		t.Fatalf("self-compare regressed: %v", regressions)
	}

	// Inject a regression: rewrite the reference so fc-rslatch_xtor
	// claims zero drift, then compare with a tolerance below the
	// module's real (rounding-level) drift of ~0.026pp.
	snap, err := report.ReadBenchSnapshot(ref.out)
	if err != nil {
		t.Fatal(err)
	}
	var doctored bool
	for i, m := range snap.Accuracy.Modules {
		if m.Module == "fc-rslatch_xtor" && m.Config == "exact" {
			snap.Accuracy.Modules[i].DriftPP = 0
			doctored = true
		}
	}
	if !doctored {
		t.Fatal("fc-rslatch_xtor/exact not present in reference")
	}
	doctoredPath := filepath.Join(t.TempDir(), "BENCH_doctored.json")
	if err := report.WriteBenchSnapshot(doctoredPath, snap); err != nil {
		t.Fatal(err)
	}

	flagged := benchOptions(t, "flagged")
	flagged.compare = doctoredPath
	flagged.tolPP = 0.01
	regressions, err = run(flagged, &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(regressions) != 1 || !strings.Contains(regressions[0], "fc-rslatch_xtor/exact") {
		t.Fatalf("injected regression not flagged: %v", regressions)
	}
}

// TestBenchCompareAgainstCheckedInReference is the CI accuracy gate: a
// fresh run must match the repository's reference snapshot exactly
// (tolerance 0 — estimator changes are required to be bit-identical,
// so zero drift is the contract).  Regenerate the reference with `go
// run ./cmd/maest-bench -label reference -o
// testdata/bench/BENCH_reference.json` after intentional model changes.
func TestBenchCompareAgainstCheckedInReference(t *testing.T) {
	o := benchOptions(t, "ci")
	o.tolPP = 0
	o.compare = filepath.Join("..", "..", "testdata", "bench", "BENCH_reference.json")
	var out bytes.Buffer
	regressions, err := run(o, &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(regressions) != 0 {
		t.Fatalf("regressions vs checked-in reference: %v", regressions)
	}
}
