package report

import (
	"bufio"
	"context"
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

// The continuous-benchmark snapshot: a machine-readable record of how
// accurate (vs the paper's Table 1/2 goldens) and how fast the
// estimator is right now.  `maest-bench` emits one BENCH_<label>.json
// per run and compares it against a checked-in reference so accuracy
// drift and perf regressions fail CI instead of rotting silently.

// BenchSchema versions the snapshot layout; CompareBench refuses to
// diff snapshots from different schemas.
const BenchSchema = 1

// BenchSnapshot is the top-level BENCH_<label>.json document.
type BenchSnapshot struct {
	Schema    int              `json:"schema"`
	Label     string           `json:"label"`
	CreatedAt string           `json:"created_at"` // RFC 3339
	GoVersion string           `json:"go_version"`
	Accuracy  AccuracySnapshot `json:"accuracy"`
	Perf      PerfSnapshot     `json:"perf"`
	// Runtime captures the Go runtime's state at snapshot time.  It is
	// informational context for perf numbers (a run with heavy GC
	// pressure reads differently), optional so older references stay
	// comparable under the same schema, and ignored by CompareBench.
	Runtime *RuntimeSnapshot `json:"runtime,omitempty"`
	// Eco records the incremental (ECO) re-estimation benchmark —
	// present when the run asked for it, optional so references
	// without it stay comparable.
	Eco *EcoSnapshot `json:"eco,omitempty"`
	// Store records the persistent-store benchmark (-store): present
	// when the run asked for it, informational like Runtime (machine-
	// dependent, so CompareBench ignores it).
	Store *StoreSnapshot `json:"store,omitempty"`
	// Telemetry records the request-telemetry overhead benchmark
	// (-telemetry): present when the run asked for it, informational
	// like Runtime and Store (machine-dependent, so CompareBench
	// ignores it and older references stay comparable under the same
	// schema).
	Telemetry *TelemetrySnapshot `json:"telemetry,omitempty"`
	// Floorplan records the Plan-driven annealer benchmark
	// (-floorplan): present when the run asked for it, informational
	// like Runtime, Store and Telemetry (machine-dependent, so
	// CompareBench ignores it and older references stay comparable
	// under the same schema).
	Floorplan *FloorplanSnapshot `json:"floorplan,omitempty"`
}

// FloorplanSnapshot is the annealer benchmark block: a generated chip
// floor-planned twice — greedy (budget 0) and annealed — with the
// congestion-scored cost, measuring the search's throughput and how
// much cost the anneal recovered over the greedy baseline.
type FloorplanSnapshot struct {
	Modules int   `json:"modules"`
	Budget  int   `json:"budget"`
	Seed    int64 `json:"seed"`
	// NsPerMove is the annealed run's wall time over its move budget.
	NsPerMove  int64   `json:"ns_per_move"`
	GreedyCost float64 `json:"greedy_cost"`
	AnnealCost float64 `json:"anneal_cost"`
	// CostGainPct is (greedy-anneal)/greedy — how much of the cost the
	// anneal recovered; never negative (the search keeps the best).
	CostGainPct float64 `json:"cost_gain_pct"`
	// Routability memo effectiveness over the annealed run.
	RoutLookups  int     `json:"rout_lookups"`
	RoutMemoHits int     `json:"rout_memo_hits"`
	MemoHitRatio float64 `json:"memo_hit_ratio"`
}

// TelemetrySnapshot is the telemetry-overhead benchmark block: the
// same request log replayed against the service bare (no flight
// recorder, no sampler, no trace store) and fully instrumented
// (flight ring + tail sampler at rate 1.0 + persistent trace store),
// plus the allocation pin on the disabled path — the structural
// guarantee that telemetry costs nothing when it is off.
type TelemetrySnapshot struct {
	Requests int `json:"requests"`
	// BareNsPerReq and SampledNsPerReq are mean end-to-end request
	// times over the replay, telemetry off vs fully on.
	BareNsPerReq    int64 `json:"bare_ns_per_req"`
	SampledNsPerReq int64 `json:"sampled_ns_per_req"`
	// OverheadPct is (sampled-bare)/bare.  Noisy on a loaded machine;
	// the honest number is the alloc pin below, which is exact.
	OverheadPct float64 `json:"overhead_pct"`
	// DisabledPathAllocs is allocs/op of the sampling-disabled fast
	// path (nil sampler keep + histogram observe); the run fails if it
	// is not exactly 0.
	DisabledPathAllocs float64 `json:"disabled_path_allocs"`
	// Trace-store counters after the sampled pass.
	TracesSeen    int64 `json:"traces_seen"`
	TracesKept    int64 `json:"traces_kept"`
	TracesDropped int64 `json:"traces_dropped"`
	StoreBytes    int64 `json:"store_bytes"`
	StoreRecords  int64 `json:"store_records"`
}

// StoreSnapshot is the persistent-store benchmark block: a request
// log replayed twice against the real HTTP service over the same
// store directory.  The cold pass starts with an empty store, so its
// first-hit time is the full compute path; the warm pass restarts the
// service (empty plan cache) against the now-populated directory, so
// its first-hit time is a compile plus a disk read.  The hit ratio is
// store hits over replayed requests in the warm pass — repeats within
// the pass land in the plan memos the store hits were installed into,
// which is the intended production shape.
type StoreSnapshot struct {
	Requests       int     `json:"requests"`
	Modules        int     `json:"modules"`
	ColdFirstHitUs float64 `json:"cold_first_hit_us"`
	WarmFirstHitUs float64 `json:"warm_first_hit_us"`
	// WarmSpeedup is ColdFirstHitUs / WarmFirstHitUs.
	WarmSpeedup float64 `json:"warm_speedup"`
	StoreHits   int64   `json:"store_hits"`
	StoreMisses int64   `json:"store_misses"`
	HitRatio    float64 `json:"hit_ratio"`
}

// EcoSnapshot is the incremental-re-estimation benchmark block: the
// same edit sequence replayed through the from-scratch route (parse-
// equivalent circuit, cold distribution memo, full compile) and the
// Plan.Delta route (shared §3 statistics, warm process-wide memo).
// HashMismatches counts edit steps where the two routes disagreed on
// the child plan's content address — any nonzero value is a
// correctness failure, not a perf number.
type EcoSnapshot struct {
	Modules        int     `json:"modules"`
	Edits          int     `json:"edits_per_module"`
	FullNsPerEdit  int64   `json:"full_ns_per_edit"`
	DeltaNsPerEdit int64   `json:"delta_ns_per_edit"`
	Speedup        float64 `json:"speedup"`
	HashMismatches int     `json:"hash_mismatches"`
}

// RuntimeSnapshot is the runtime-telemetry block of a bench snapshot.
type RuntimeSnapshot struct {
	Goroutines        uint64  `json:"goroutines"`
	HeapBytes         uint64  `json:"heap_bytes"`
	GCCycles          uint64  `json:"gc_cycles"`
	GCPauseP50Seconds float64 `json:"gc_pause_p50_seconds"`
	GCPauseP99Seconds float64 `json:"gc_pause_p99_seconds"`
	SchedLatP99Secs   float64 `json:"sched_latency_p99_seconds"`
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

// PerfSnapshot records estimator throughput and service latency.
type PerfSnapshot struct {
	// EstimateNsPerOp is wall time per full suite estimation pass
	// (parse→gather→estimate for every generated module).
	EstimateNsPerOp int64          `json:"estimate_ns_per_op"`
	EstimateOps     int            `json:"estimate_ops"`
	Endpoints       []EndpointPerf `json:"endpoints"`
}

// EndpointPerf is the serve-pipeline latency distribution of one
// endpoint, measured end-to-end over a real socket.
type EndpointPerf struct {
	Endpoint  string  `json:"endpoint"`
	Count     int64   `json:"count"`
	MeanUs    float64 `json:"mean_us"`
	P50Micros float64 `json:"p50_us"`
	P90Micros float64 `json:"p90_us"`
	P99Micros float64 `json:"p99_us"`
}

// BuildAccuracy reruns the Table 1 and Table 2 experiments and diffs
// each module's error percentage against the golden tables under
// goldenDir (testdata/golden/table{1,2}.txt).
func BuildAccuracy(goldenDir string, p *tech.Process, seed int64) (AccuracySnapshot, error) {
	return BuildAccuracyCtx(context.Background(), goldenDir, p, seed, nil)
}

// BuildAccuracyCtx is BuildAccuracy with a caller context and an
// optional plan resolver (nil = engine.CompileCtx) — the serve
// accuracy watchdog passes its live plan cache here so every probe
// exercises the serving stack's own compilation path.
func BuildAccuracyCtx(ctx context.Context, goldenDir string, p *tech.Process, seed int64, compile CompileFunc) (AccuracySnapshot, error) {
	snap := AccuracySnapshot{Seed: seed, Process: p.Name}

	golden1, err := parseGoldenTable1(filepath.Join(goldenDir, "table1.txt"))
	if err != nil {
		return snap, err
	}
	golden2, err := parseGoldenTable2(filepath.Join(goldenDir, "table2.txt"))
	if err != nil {
		return snap, err
	}

	rows1, err := RunTable1Ctx(ctx, p, seed, compile)
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

	rows2, err := RunTable2Ctx(ctx, p, seed, compile)
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
		over, err := goldenPct(f[10])
		if err != nil {
			return nil, fmt.Errorf("bench: table 2 Over%% %q: %w", f[10], err)
		}
		out[fmt.Sprintf("%s/rows=%d", f[0], atoiOr(f[1]))] = over
	}
	return out, nil
}

func atoiOr(s string) int {
	n, _ := strconv.Atoi(s)
	return n
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
// one message per regression (empty = clean).
//
// Accuracy regresses when a module's drift from golden grows by more
// than tolPP percentage points beyond the reference drift, or when a
// reference module disappears.  Perf is compared only when perfTol
// is positive (it is machine-dependent, so CI keeps it off): the
// estimator ns/op and every endpoint p99 may grow by at most the
// given fraction (0.25 = +25%).
func CompareBench(old, new *BenchSnapshot, tolPP, perfTol float64) []string {
	if old.Schema != new.Schema {
		return []string{fmt.Sprintf("schema mismatch: reference %d vs new %d (regenerate the reference)",
			old.Schema, new.Schema)}
	}
	regressions := CompareAccuracy(&old.Accuracy, &new.Accuracy, tolPP)

	if perfTol > 0 {
		if old.Perf.EstimateNsPerOp > 0 {
			limit := float64(old.Perf.EstimateNsPerOp) * (1 + perfTol)
			if float64(new.Perf.EstimateNsPerOp) > limit {
				regressions = append(regressions, fmt.Sprintf(
					"perf: estimator %d ns/op exceeds reference %d ns/op by more than %.0f%%",
					new.Perf.EstimateNsPerOp, old.Perf.EstimateNsPerOp, perfTol*100))
			}
		}
		oldEp := make(map[string]EndpointPerf, len(old.Perf.Endpoints))
		for _, ep := range old.Perf.Endpoints {
			oldEp[ep.Endpoint] = ep
		}
		for _, ep := range new.Perf.Endpoints {
			ref, ok := oldEp[ep.Endpoint]
			if !ok || ref.P99Micros <= 0 {
				continue
			}
			if ep.P99Micros > ref.P99Micros*(1+perfTol) {
				regressions = append(regressions, fmt.Sprintf(
					"perf: %s p99 %.0fus exceeds reference %.0fus by more than %.0f%%",
					ep.Endpoint, ep.P99Micros, ref.P99Micros, perfTol*100))
			}
		}
	}
	if new.Eco != nil {
		// Bit-identity is a hard gate regardless of perf tolerances.
		if new.Eco.HashMismatches > 0 {
			regressions = append(regressions, fmt.Sprintf(
				"eco: %d edit steps diverged from the recompile route (bit-identity broken)",
				new.Eco.HashMismatches))
		}
		if perfTol > 0 && old.Eco != nil && old.Eco.Speedup > 0 &&
			new.Eco.Speedup < old.Eco.Speedup*(1-perfTol) {
			regressions = append(regressions, fmt.Sprintf(
				"eco: speedup %.1fx fell below reference %.1fx by more than %.0f%%",
				new.Eco.Speedup, old.Eco.Speedup, perfTol*100))
		}
	}
	return regressions
}

// CompareAccuracy diffs a fresh accuracy snapshot against a reference
// and returns one message per regression (empty = clean): a module
// whose drift from golden grew by more than tolPP percentage points
// beyond the reference drift, or a reference module missing from the
// fresh snapshot.  CompareBench and the serve accuracy watchdog share
// this judgement.
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
