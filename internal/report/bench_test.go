package report

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"maest/internal/tech"
)

// TestBuildAccuracyMatchesGoldens reruns both table experiments at
// the golden seed and checks the measured errors land on the golden
// values (within print precision of the rendered tables).
func TestBuildAccuracyMatchesGoldens(t *testing.T) {
	p := tech.NMOS25()
	snap, err := BuildAccuracy(filepath.Join("..", "..", "testdata", "golden"), p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Process != "nmos25" || snap.Seed != 1 {
		t.Fatalf("snapshot header: %+v", snap)
	}
	// 5 Table-1 modules × {exact, average} + 5 Table-2 configs.
	if len(snap.Modules) != 15 {
		t.Fatalf("got %d accuracy entries, want 15", len(snap.Modules))
	}
	// Goldens render with one decimal, so a faithful rerun can drift
	// by at most half a unit in the last place.
	if snap.MaxDriftPP > 0.05+1e-9 {
		t.Fatalf("max drift %.4fpp exceeds print precision", snap.MaxDriftPP)
	}
	tables := map[int]int{}
	for _, m := range snap.Modules {
		tables[m.Table]++
		if m.Config == "" || m.Module == "" {
			t.Fatalf("entry missing identity: %+v", m)
		}
	}
	if tables[1] != 10 || tables[2] != 5 {
		t.Fatalf("table split %v, want 10/5", tables)
	}
}

func TestBenchSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	want := &BenchSnapshot{
		Schema: BenchSchema, Label: "test", CreatedAt: "2026-08-06T00:00:00Z",
		GoVersion: "go0.0",
		Accuracy: AccuracySnapshot{Seed: 1, Process: "nmos25", MaxDriftPP: 0.02,
			Modules: []ModuleAccuracy{{Table: 1, Module: "m", Config: "exact",
				ErrPct: -25.9, GoldenPct: -25.9}}},
	}
	if err := WriteBenchSnapshot(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBenchSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != "test" || got.Schema != BenchSchema ||
		len(got.Accuracy.Modules) != 1 || got.Accuracy.Modules[0] != want.Accuracy.Modules[0] {
		t.Fatalf("round trip: %+v", got)
	}
}

// TestCompareBenchFlagsInjectedRegression is the acceptance test for
// the -compare contract: a snapshot with artificially worsened drift
// must be reported, while the identity comparison stays clean.
func TestCompareBenchFlagsInjectedRegression(t *testing.T) {
	ref := &BenchSnapshot{Schema: BenchSchema,
		Accuracy: AccuracySnapshot{Modules: []ModuleAccuracy{
			{Table: 1, Module: "fc-a", Config: "exact", ErrPct: -25.9, GoldenPct: -25.9, DriftPP: 0},
			{Table: 2, Module: "sc-b", Config: "rows=4", ErrPct: 98.8, GoldenPct: 98.8, DriftPP: 0},
		}},
	}

	if msgs := CompareBench(ref, ref, 0.5); len(msgs) != 0 {
		t.Fatalf("self-compare not clean: %v", msgs)
	}

	// Inject an accuracy regression: fc-a now estimates 3pp further
	// from the golden than the reference run did.
	bad := *ref
	bad.Accuracy.Modules = append([]ModuleAccuracy(nil), ref.Accuracy.Modules...)
	bad.Accuracy.Modules[0] = ModuleAccuracy{Table: 1, Module: "fc-a", Config: "exact",
		ErrPct: -28.9, GoldenPct: -25.9, DriftPP: 3.0}
	msgs := CompareBench(ref, &bad, 0.5)
	if len(msgs) != 1 || !strings.Contains(msgs[0], "fc-a/exact") {
		t.Fatalf("injected drift not flagged: %v", msgs)
	}

	// A missing module is a regression too.
	short := *ref
	short.Accuracy.Modules = ref.Accuracy.Modules[:1]
	if msgs := CompareBench(ref, &short, 0.5); len(msgs) != 1 ||
		!strings.Contains(msgs[0], "missing") {
		t.Fatalf("missing module not flagged: %v", msgs)
	}

	// Schema bumps refuse to compare rather than mislead.
	future := *ref
	future.Schema = BenchSchema + 1
	if msgs := CompareBench(ref, &future, 0.5); len(msgs) != 1 ||
		!strings.Contains(msgs[0], "schema") {
		t.Fatalf("schema mismatch not flagged: %v", msgs)
	}
}

func TestParseGoldenTables(t *testing.T) {
	g1, err := parseGoldenTable1(filepath.Join("..", "..", "testdata", "golden", "table1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(g1) != 5 {
		t.Fatalf("table 1 golden has %d modules, want 5", len(g1))
	}
	if g, ok := g1["fc-rslatch_xtor"]; !ok || g.errExact != -25.9 || g.errAverage != -25.9 {
		t.Fatalf("fc-rslatch_xtor golden: %+v ok=%v", g, ok)
	}
	g2, err := parseGoldenTable2(filepath.Join("..", "..", "testdata", "golden", "table2.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(g2) != 5 {
		t.Fatalf("table 2 golden has %d configs, want 5", len(g2))
	}
	if over, ok := g2["sc-exp1/rows=4"]; !ok || over != 98.8 {
		t.Fatalf("sc-exp1/rows=4 golden: %v ok=%v", over, ok)
	}

	// A malformed row count is an error naming the field, not a row
	// silently keyed as rows=0 that later reads as "not in golden".
	bad := filepath.Join(t.TempDir(), "table2.txt")
	if err := os.WriteFile(bad, []byte("Module Rows\n"+
		"sc-exp1  4x  18  9  405.00  135.50  35  10  54878  27600  +98.8\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := parseGoldenTable2(bad); err == nil ||
		!strings.Contains(err.Error(), "Rows") || !strings.Contains(err.Error(), `"4x"`) {
		t.Fatalf("malformed row count: err = %v, want one naming Rows \"4x\"", err)
	}
}
