package report

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"maest/internal/tech"
)

// The accuracy snapshot: a machine-readable record of how accurate the
// estimator is right now against the paper's Table 1/2 goldens.
// `maest-bench` emits one BENCH_<label>.json per run and compares it
// against a checked-in reference so accuracy drift fails CI instead of
// rotting silently.  Performance is not recorded here; loadbench's
// per-layer ladder measures it against a real maest-serve.

// BenchSchema versions the snapshot layout; CompareBench refuses to
// diff snapshots from different schemas.
const BenchSchema = 2

// BenchSnapshot is the top-level BENCH_<label>.json document.
type BenchSnapshot struct {
	Schema    int              `json:"schema"`
	Label     string           `json:"label"`
	CreatedAt string           `json:"created_at"` // RFC 3339
	GoVersion string           `json:"go_version"`
	Accuracy  AccuracySnapshot `json:"accuracy"`
}

// AccuracySnapshot records per-module estimation error alongside the
// golden (paper-anchored) error, so drift is separable from the
// paper-matching baseline error the model is expected to have.
type AccuracySnapshot struct {
	Seed    int64  `json:"seed"`
	Process string `json:"process"`
	// MaxDriftPP is the largest |ErrPct - GoldenPct| across modules,
	// in percentage points — the single number to watch.
	MaxDriftPP float64          `json:"max_drift_pp"`
	Modules    []ModuleAccuracy `json:"modules"`
}

// ModuleAccuracy is one module×configuration accuracy measurement.
type ModuleAccuracy struct {
	Table  int    `json:"table"`  // 1 or 2
	Module string `json:"module"` // e.g. fc-rslatch_xtor, sc-exp1
	// Config names the estimation mode: "exact"/"average" device
	// areas for Table 1, "rows=N" for Table 2.
	Config    string  `json:"config"`
	ErrPct    float64 `json:"err_pct"`    // measured signed error, percent
	GoldenPct float64 `json:"golden_pct"` // the checked-in golden's error
	DriftPP   float64 `json:"drift_pp"`   // |ErrPct - GoldenPct|
}

// BuildAccuracy reruns the Table 1 and Table 2 experiments and diffs
// each module's error percentage against the golden tables under
// goldenDir (testdata/golden/table{1,2}.txt).
func BuildAccuracy(goldenDir string, p *tech.Process, seed int64) (AccuracySnapshot, error) {
	snap := AccuracySnapshot{Seed: seed, Process: p.Name}

	golden1, err := parseGoldenTable1(filepath.Join(goldenDir, "table1.txt"))
	if err != nil {
		return snap, err
	}
	golden2, err := parseGoldenTable2(filepath.Join(goldenDir, "table2.txt"))
	if err != nil {
		return snap, err
	}

	rows1, err := RunTable1(p, seed)
	if err != nil {
		return snap, fmt.Errorf("bench: table 1: %w", err)
	}
	for _, r := range rows1 {
		g, ok := golden1[r.Module]
		if !ok {
			return snap, fmt.Errorf("bench: module %q not in golden table 1", r.Module)
		}
		snap.add(ModuleAccuracy{Table: 1, Module: r.Module, Config: "exact",
			ErrPct: r.ErrExact * 100, GoldenPct: g.errExact})
		snap.add(ModuleAccuracy{Table: 1, Module: r.Module, Config: "average",
			ErrPct: r.ErrAverage * 100, GoldenPct: g.errAverage})
	}

	rows2, err := RunTable2(p, seed)
	if err != nil {
		return snap, fmt.Errorf("bench: table 2: %w", err)
	}
	for _, r := range rows2 {
		key := fmt.Sprintf("%s/rows=%d", r.Module, r.Rows)
		g, ok := golden2[key]
		if !ok {
			return snap, fmt.Errorf("bench: config %q not in golden table 2", key)
		}
		snap.add(ModuleAccuracy{Table: 2, Module: r.Module,
			Config: fmt.Sprintf("rows=%d", r.Rows),
			ErrPct: r.Overestimate * 100, GoldenPct: g})
	}
	return snap, nil
}

func (a *AccuracySnapshot) add(m ModuleAccuracy) {
	m.DriftPP = math.Abs(m.ErrPct - m.GoldenPct)
	if m.DriftPP > a.MaxDriftPP {
		a.MaxDriftPP = m.DriftPP
	}
	a.Modules = append(a.Modules, m)
}

type goldenErrs struct{ errExact, errAverage float64 }

// goldenRows yields the data lines of a rendered golden table,
// skipping the title, header, and dashed separator.
func goldenRows(path string) ([][]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("bench: golden: %w", err)
	}
	defer f.Close()
	var rows [][]string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "Table") ||
			strings.HasPrefix(line, "Module") || strings.HasPrefix(line, "---") {
			continue
		}
		rows = append(rows, strings.Fields(line))
	}
	return rows, sc.Err()
}

func goldenPct(field string) (float64, error) {
	return strconv.ParseFloat(strings.TrimPrefix(field, "+"), 64)
}

// parseGoldenTable1 maps module name → golden Err(ex)%/Err(av)%
// (columns 10 and 11 of the Table 1 layout).
func parseGoldenTable1(path string) (map[string]goldenErrs, error) {
	rows, err := goldenRows(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string]goldenErrs, len(rows))
	for _, f := range rows {
		if len(f) < 12 {
			return nil, fmt.Errorf("bench: short table 1 row %v", f)
		}
		ex, err := goldenPct(f[10])
		if err != nil {
			return nil, fmt.Errorf("bench: table 1 Err(ex) %q: %w", f[10], err)
		}
		av, err := goldenPct(f[11])
		if err != nil {
			return nil, fmt.Errorf("bench: table 1 Err(av) %q: %w", f[11], err)
		}
		out[f[0]] = goldenErrs{errExact: ex, errAverage: av}
	}
	return out, nil
}

// parseGoldenTable2 maps "module/rows=N" → golden Over% (column 10 of
// the Table 2 layout).
func parseGoldenTable2(path string) (map[string]float64, error) {
	rows, err := goldenRows(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(rows))
	for _, f := range rows {
		if len(f) < 11 {
			return nil, fmt.Errorf("bench: short table 2 row %v", f)
		}
		n, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("bench: table 2 Rows %q: %w", f[1], err)
		}
		over, err := goldenPct(f[10])
		if err != nil {
			return nil, fmt.Errorf("bench: table 2 Over%% %q: %w", f[10], err)
		}
		out[fmt.Sprintf("%s/rows=%d", f[0], n)] = over
	}
	return out, nil
}

// WriteBenchSnapshot writes the snapshot as indented JSON.
func WriteBenchSnapshot(path string, s *BenchSnapshot) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadBenchSnapshot loads a snapshot written by WriteBenchSnapshot.
func ReadBenchSnapshot(path string) (*BenchSnapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s BenchSnapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &s, nil
}

// CompareBench diffs a new snapshot against a reference and returns
// one message per regression (empty = clean): a schema mismatch, or
// any accuracy regression CompareAccuracy reports at tolPP.
func CompareBench(old, new *BenchSnapshot, tolPP float64) []string {
	if old.Schema != new.Schema {
		return []string{fmt.Sprintf("schema mismatch: reference %d vs new %d (regenerate the reference)",
			old.Schema, new.Schema)}
	}
	return CompareAccuracy(&old.Accuracy, &new.Accuracy, tolPP)
}

// CompareAccuracy diffs a fresh accuracy snapshot against a reference
// and returns one message per regression (empty = clean): a module
// whose drift from golden grew by more than tolPP percentage points
// beyond the reference drift, or a reference module missing from the
// fresh snapshot.  CompareBench and loadbench's in-run accuracy gate
// share this judgement.
func CompareAccuracy(old, new *AccuracySnapshot, tolPP float64) []string {
	var regressions []string
	newModules := make(map[string]ModuleAccuracy, len(new.Modules))
	for _, m := range new.Modules {
		newModules[m.Module+"/"+m.Config] = m
	}
	var keys []string
	oldModules := make(map[string]ModuleAccuracy, len(old.Modules))
	for _, m := range old.Modules {
		k := m.Module + "/" + m.Config
		oldModules[k] = m
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		om := oldModules[k]
		nm, ok := newModules[k]
		if !ok {
			regressions = append(regressions,
				fmt.Sprintf("accuracy: %s missing from new snapshot", k))
			continue
		}
		if nm.DriftPP > om.DriftPP+tolPP {
			regressions = append(regressions, fmt.Sprintf(
				"accuracy: %s drifted to %.2fpp from golden (reference %.2fpp, tolerance %.2fpp): err %+.2f%% vs golden %+.2f%%",
				k, nm.DriftPP, om.DriftPP, tolPP, nm.ErrPct, nm.GoldenPct))
		}
	}
	return regressions
}
