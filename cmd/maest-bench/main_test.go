package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"maest/internal/report"
)

const goldenDir = "../../testdata/golden"

func benchOptions(t *testing.T, label string) *options {
	t.Helper()
	return &options{
		label:         label,
		out:           filepath.Join(t.TempDir(), "BENCH_"+label+".json"),
		goldenDir:     goldenDir,
		proc:          "nmos25",
		seed:          1,
		requests:      12,
		estimateIters: 1,
		tolPP:         0.5,
	}
}

// TestBenchEmitsValidSnapshot runs the full harness — accuracy rerun,
// estimator timing, serve pipeline over a real socket — and validates
// the emitted BENCH_*.json has the accuracy and quantile sections the
// schema promises.
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

	snap, err := report.ReadBenchSnapshot(o.out)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Schema != report.BenchSchema || snap.Label != "test" ||
		snap.CreatedAt == "" || snap.GoVersion == "" {
		t.Fatalf("snapshot header: %+v", snap)
	}
	if len(snap.Accuracy.Modules) != 15 {
		t.Fatalf("accuracy has %d module configs, want 15", len(snap.Accuracy.Modules))
	}
	// The rerun must reproduce the goldens to print precision: this is
	// the paper-anchored baseline the comparator guards.
	if snap.Accuracy.MaxDriftPP > 0.05+1e-9 {
		t.Fatalf("max drift %.4fpp exceeds golden print precision", snap.Accuracy.MaxDriftPP)
	}
	if snap.Perf.EstimateNsPerOp <= 0 {
		t.Fatalf("estimator timing missing: %+v", snap.Perf)
	}
	if len(snap.Perf.Endpoints) != 3 {
		t.Fatalf("perf has %d endpoints, want 3: %+v", len(snap.Perf.Endpoints), snap.Perf.Endpoints)
	}
	for _, ep := range snap.Perf.Endpoints {
		if ep.Count <= 0 || ep.P50Micros <= 0 {
			t.Fatalf("endpoint %s has empty distribution: %+v", ep.Endpoint, ep)
		}
		if ep.P50Micros > ep.P90Micros || ep.P90Micros > ep.P99Micros {
			t.Fatalf("endpoint %s quantiles not monotone: %+v", ep.Endpoint, ep)
		}
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

// TestBenchCompareAgainstCheckedInReference pins the CI smoke: a
// fresh run must stay within tolerance of the repository's reference
// snapshot (regenerate it with `go run ./cmd/maest-bench -label
// reference -o testdata/bench/BENCH_reference.json` after intentional
// model changes).
func TestBenchCompareAgainstCheckedInReference(t *testing.T) {
	o := benchOptions(t, "ci")
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

// TestBenchStoreMode runs the -store benchmark and validates the
// store block: every replayed request in the warm pass is answered
// without a store miss, and the cold/warm timings are real.
func TestBenchStoreMode(t *testing.T) {
	o := benchOptions(t, "store")
	o.store = true
	var out bytes.Buffer
	if _, err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	snap, err := report.ReadBenchSnapshot(o.out)
	if err != nil {
		t.Fatal(err)
	}
	st := snap.Store
	if st == nil {
		t.Fatal("snapshot has no store block with -store set")
	}
	if st.Requests != o.requests || st.Modules <= 0 {
		t.Fatalf("store block shape: %+v", st)
	}
	if st.ColdFirstHitUs <= 0 || st.WarmFirstHitUs <= 0 || st.WarmSpeedup <= 0 {
		t.Fatalf("store timings missing: %+v", st)
	}
	if st.StoreMisses != 0 {
		t.Fatalf("warm replay missed the store %d times: %+v", st.StoreMisses, st)
	}
	// Each distinct module hits the store exactly once in the warm
	// pass; repeats land in the plan memo the hit was installed into.
	want := st.Modules
	if o.requests < want {
		want = o.requests
	}
	if st.StoreHits != int64(want) {
		t.Fatalf("store hits %d, want %d: %+v", st.StoreHits, want, st)
	}
	if !strings.Contains(out.String(), "store cold first-hit") {
		t.Fatalf("run output missing the store line:\n%s", out.String())
	}
}
