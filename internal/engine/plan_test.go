package engine

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"maest/internal/cells"
	"maest/internal/congest"
	"maest/internal/core"
	"maest/internal/gen"
	"maest/internal/hdl"
	"maest/internal/netlist"
	"maest/internal/obs"
	"maest/internal/tech"
)

func compileMnet(t testing.TB, src string, p *tech.Process) *Plan {
	t.Helper()
	c, err := hdl.ParseMnet(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Compile(c, p)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// The content address must be invariant under declaration order — the
// property the serving layer's shared-compile cache rests on — and
// sensitive to both the circuit and the process.
func TestPlanHashCanonical(t *testing.T) {
	p := tech.NMOS25()
	a := compileMnet(t, `
module m
port in a
port out y
device g1 INV a n1
device g2 INV n1 y
end
`, p)
	b := compileMnet(t, `
module m
port out y
port in a
device g2 INV n1 y
device g1 INV a n1
end
`, p)
	if a.Hash() != b.Hash() {
		t.Fatal("reordered declarations changed the plan hash")
	}
	if got, want := a.Hash().String(), PlanHash(a.Circuit(), p).String(); got != want {
		t.Fatalf("Hash() = %s, PlanHash = %s", got, want)
	}
	if k, _ := Canonicalize(nil, b.Circuit(), p); k.Hash() != a.Hash() || *k.Midstate() != *a.Midstate() {
		t.Fatalf("Canonicalize hash %s, Hash() = %s (midstates equal: %t)", k.Hash(), a.Hash(), *k.Midstate() == *a.Midstate())
	}
	other := compileMnet(t, `
module m
port in a
port out y
device g1 INV a n1
device g2 NAND2 n1 a y
end
`, p)
	if a.Hash() == other.Hash() {
		t.Fatal("different circuits share a plan hash")
	}
	cmos := compileMnet(t, `
module m
port in a
port out y
device g1 INV a n1
device g2 INV n1 y
end
`, tech.CMOS30())
	if a.Hash() == cmos.Hash() {
		t.Fatal("different processes share a plan hash")
	}
}

// Compile freezes a private process clone: mutating the caller's
// process afterwards must not change what the plan computes.
func TestPlanProcessIsolation(t *testing.T) {
	p := tech.NMOS25()
	pl := compileMnet(t, `
module iso
port in a
port out y
device g1 INV a n1
device g2 INV n1 y
end
`, p)
	before, err := pl.EstimateStandardCell(context.Background(), WithRows(1))
	if err != nil {
		t.Fatal(err)
	}
	p.RowHeight *= 10
	after, err := pl.EstimateStandardCell(context.Background(), WithRows(2))
	if err != nil {
		t.Fatal(err)
	}
	if after.Area <= 0 || before.Area <= 0 {
		t.Fatal("estimates empty")
	}
	if pl.Process().RowHeight == p.RowHeight {
		t.Fatal("plan shares the caller's process")
	}
}

// Every execute method must agree bit-for-bit with the core kernels
// it memoizes — the refactor's zero-drift contract at the unit level.
func TestPlanMatchesCoreKernels(t *testing.T) {
	p := tech.NMOS25()
	c, err := gen.RandomCircuit(gen.RandomConfig{
		Name: "kern", Gates: 60, Inputs: 6, Outputs: 4, Seed: 3,
	}, p)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Compile(c, p)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	s := pl.Stats()

	for _, rows := range []int{0, 2, 5} {
		for _, sharing := range []bool{false, true} {
			got, err := pl.EstimateStandardCell(ctx, WithRows(rows), WithTrackSharing(sharing))
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.EstimateStandardCell(s, p, core.SCOptions{Rows: rows, TrackSharing: sharing})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("rows=%d sharing=%v: plan and kernel estimates differ", rows, sharing)
			}
		}
	}
	x, err := cells.ExpandTransistors(c, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []core.FCMode{core.FCExactAreas, core.FCAverageAreas} {
		got, err := pl.EstimateFullCustom(ctx, WithFCMode(mode))
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.EstimateFullCustom(x, p, mode)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *want || got.Module != "kern_xtor" {
			t.Fatalf("mode %v: plan %+v, expanded-netlist kernel %+v", mode, got, want)
		}
	}
	if _, err := pl.EstimateFullCustom(ctx, WithFCMode(core.FCMode(9))); err == nil || !strings.Contains(err.Error(), "unknown mode 9") {
		t.Fatalf("unknown FC mode: err = %v", err)
	}
	gotC, err := pl.Candidates(ctx, WithCandidates(3))
	if err != nil {
		t.Fatal(err)
	}
	wantC, err := core.EstimateStandardCellCandidates(s, p, core.SCOptions{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotC, wantC) {
		t.Fatal("plan and kernel candidate sweeps differ")
	}
}

// TestEstimateDeterministic pins reproducibility end to end: the
// same seeded random circuit estimated twice yields byte-identical
// results (maps in Stats iterate in sorted order inside the
// estimator, so nothing may depend on traversal order).
func TestEstimateDeterministic(t *testing.T) {
	p, err := tech.Lookup("nmos25")
	if err != nil {
		t.Fatal(err)
	}
	cfg := gen.RandomConfig{Name: "det", Gates: 40, Inputs: 6, Outputs: 5, Seed: 7}
	var results []*core.Result
	for trial := 0; trial < 2; trial++ {
		c, err := gen.RandomCircuit(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := Compile(c, p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pl.Estimate(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatalf("same seed, different estimates:\n%+v\n%+v", results[0], results[1])
	}
}

// Memoization identity: repeat executions at the same knobs return
// the same objects (a map lookup, not a recompute), and the estimate
// bundle shares the kernel memos.
func TestPlanMemoization(t *testing.T) {
	p := tech.NMOS25()
	c, err := gen.Chain("memo", 12, p)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Compile(c, p)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	r1, err := pl.Estimate(ctx, WithRows(3))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := pl.Estimate(ctx, WithRows(3))
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("repeat Estimate did not hit the bundle memo")
	}
	sc, err := pl.EstimateStandardCell(ctx, WithRows(3))
	if err != nil {
		t.Fatal(err)
	}
	if sc != r1.SC {
		t.Fatal("EstimateStandardCell recomputed the bundled kernel result")
	}
	fc, err := pl.EstimateFullCustom(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fc != r1.FCExact {
		t.Fatal("EstimateFullCustom recomputed the bundled kernel result")
	}
	m1, err := pl.Congestion(ctx)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := pl.Congestion(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("repeat Congestion did not hit the map memo")
	}
	// Changing only the scoring knobs scores a new map.  The plan keeps
	// no distributions: each Distributions call computes equal ones
	// afresh.
	d, err := pl.Distributions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	m3, err := pl.Congestion(ctx, WithCapacity(50))
	if err != nil {
		t.Fatal(err)
	}
	if m3 == m1 {
		t.Fatal("capacity change returned the unscored map")
	}
	d2, err := pl.Distributions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if d == d2 || !reflect.DeepEqual(d, d2) {
		t.Fatal("Distributions returned a kept or unequal copy")
	}

	// The memo accessors see exactly what the execute methods memoized;
	// an install fills only an empty slot and is then what execute returns.
	if got, ok := pl.CachedEstimate(WithRows(3)); !ok || got != r1 {
		t.Fatal("CachedEstimate missed the memoized bundle")
	}
	if _, ok := pl.CachedEstimate(WithRows(4)); ok {
		t.Fatal("CachedEstimate answered knobs never estimated")
	}
	if got, ok := pl.CachedCongestion(WithCapacity(50)); !ok || got != m3 {
		t.Fatal("CachedCongestion missed the memoized map")
	}
	pl.InstallEstimate(&core.Result{Module: "stale"}, WithRows(3))
	pl.InstallCongestion(&congest.Map{Module: "stale"})
	if r, _ := pl.Estimate(ctx, WithRows(3)); r != r1 {
		t.Fatal("InstallEstimate replaced a memoized bundle")
	}
	if m, _ := pl.Congestion(ctx); m != m1 {
		t.Fatal("InstallCongestion replaced a memoized map")
	}
	installed := &core.Result{Module: "installed"}
	pl.InstallEstimate(installed, WithRows(4))
	if r, _ := pl.Estimate(ctx, WithRows(4)); r != installed {
		t.Fatal("Estimate recomputed an installed bundle")
	}
	installedMap := &congest.Map{Module: "installed"}
	pl.InstallCongestion(installedMap, WithRows(5))
	if m, _ := pl.Congestion(ctx, WithRows(5)); m != installedMap {
		t.Fatal("Congestion recomputed an installed map")
	}
}

// The strict Candidates contract on the plan surface: the defined
// error classes must survive the memo layer.
func TestPlanCandidatesErrors(t *testing.T) {
	p := tech.NMOS25()
	c, err := gen.Chain("cand", 3, p)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Compile(c, p)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := pl.Candidates(ctx, WithCandidates(0)); !errors.Is(err, core.ErrCandidateCount) {
		t.Fatalf("count=0: err = %v, want ErrCandidateCount", err)
	}
	if _, err := pl.Candidates(ctx, WithCandidates(4)); !errors.Is(err, core.ErrCandidateRange) {
		t.Fatalf("count>N: err = %v, want ErrCandidateRange", err)
	}
	// A full Estimate memoizes the lenient 5-shape sweep for this
	// 3-device module; the strict surface must still reject count=5.
	if _, err := pl.Estimate(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Candidates(ctx, WithCandidates(5)); !errors.Is(err, core.ErrCandidateRange) {
		t.Fatalf("count>N after Estimate: err = %v, want ErrCandidateRange", err)
	}
	if _, err := pl.Candidates(ctx, WithCandidates(2)); err != nil {
		t.Fatalf("feasible count rejected: %v", err)
	}
	// Every candidate error is still an estimator error for the
	// serving layer's 422 mapping.
	_, err = pl.Candidates(ctx, WithCandidates(0))
	if !errors.Is(err, core.ErrEstimate) {
		t.Fatalf("candidate error not wrapped in ErrEstimate: %v", err)
	}
}

// Compile rejects what the historical pipeline rejected, with the
// error text the CLI and service surface.
func TestCompileRejectsMixedModule(t *testing.T) {
	b := netlist.NewBuilder("mixed")
	b.AddDevice("g1", "INV", "a", "b")
	b.AddDevice("m1", "ENH", "b", "", "c")
	b.AddPort("pa", netlist.In, "a")
	b.AddPort("pc", netlist.Out, "c")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = Compile(c, tech.NMOS25())
	if err == nil {
		t.Fatal("mixed module compiled")
	}
	if !errors.Is(err, core.ErrEstimate) {
		t.Fatalf("compile error not wrapped in ErrEstimate: %v", err)
	}
	if !strings.Contains(err.Error(), "mixes") {
		t.Fatalf("unexpected error text: %v", err)
	}
}

// BenchmarkPlanWarmEstimate pins the warm execute path: once a plan
// has answered a question, asking again is a mutex-guarded map lookup
// — zero heap allocations.  A regression here means the compile/
// execute split stopped paying for itself on the serving layer's
// cache-hit path.
func BenchmarkPlanWarmEstimate(b *testing.B) {
	p := tech.NMOS25()
	c, err := gen.Chain("warm", 16, p)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := Compile(c, p)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := pl.Estimate(ctx); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.Estimate(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := pl.Estimate(ctx); err != nil {
			b.Fatal(err)
		}
	}); allocs != 0 {
		b.Fatalf("warm Estimate allocates %.0f objects per call, want 0", allocs)
	}
}

// coldEstimateAllocCeiling is the allocation budget of the serving
// layer's cold path: Compile plus Estimate of a fresh 200-gate module
// with the distribution memo warm.  Reading the Full-Custom statistics
// straight from the cell expander holds it near 63 objects; building
// the transistor netlist instead cost about 8,800.
const coldEstimateAllocCeiling = 100

// BenchmarkPlanColdEstimate times that cold path and holds it to
// coldEstimateAllocCeiling.
func BenchmarkPlanColdEstimate(b *testing.B) {
	p := tech.NMOS25()
	c, err := gen.RandomCircuit(gen.RandomConfig{Name: "cold", Gates: 200, Inputs: 8, Outputs: 6, Seed: 7}, p)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	cold := func() {
		pl, err := Compile(c, p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pl.Estimate(ctx); err != nil {
			b.Fatal(err)
		}
	}
	cold() // warms the process-wide distribution memo
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cold()
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(20, cold); allocs > coldEstimateAllocCeiling {
		b.Fatalf("cold Compile+Estimate allocates %.0f objects, ceiling %d", allocs, coldEstimateAllocCeiling)
	}
}

// BenchmarkPlanSecondConsumer pins the tentpole's claim: the second
// consumer of a compiled plan (an estimate followed by a congestion
// map, the /v1/estimate → /v1/congestion repeat) skips the statistics
// gathering and distribution convolutions entirely.
func BenchmarkPlanSecondConsumer(b *testing.B) {
	p := tech.NMOS25()
	c, err := gen.Chain("second", 16, p)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := Compile(c, p)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := pl.Estimate(ctx); err != nil {
		b.Fatal(err)
	}
	if _, err := pl.Congestion(ctx); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.Congestion(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := pl.Congestion(ctx); err != nil {
			b.Fatal(err)
		}
	}); allocs != 0 {
		b.Fatalf("warm Congestion allocates %.0f objects per call, want 0", allocs)
	}
}

// spanSink collects every completed span.
type spanSink struct {
	mu    sync.Mutex
	spans []*obs.SpanData
}

func (s *spanSink) Record(d *obs.SpanData) {
	s.mu.Lock()
	s.spans = append(s.spans, d)
	s.mu.Unlock()
}

// Plan.Congestion runs the whole analysis, convolutions and scoring,
// under one "congest" (or "congest.grid") span carrying the map's
// summary; a memo hit records none.
func TestCongestionSpanCoversAnalysis(t *testing.T) {
	pl := chipPlans(t, 1)[0]
	for _, c := range []struct {
		gridded bool
		rows    int
		want    string
	}{
		{false, 4, "congest"},
		{true, 0, "congest.grid"},
	} {
		sink := &spanSink{}
		ctx := obs.WithSink(context.Background(), sink)
		m, err := pl.Congestion(ctx, WithGridded(c.gridded), WithRows(c.rows))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pl.Congestion(ctx, WithGridded(c.gridded), WithRows(c.rows)); err != nil {
			t.Fatal(err)
		}
		if len(sink.spans) != 1 || sink.spans[0].Name != c.want {
			var names []string
			for _, d := range sink.spans {
				names = append(names, d.Name)
			}
			t.Fatalf("gridded=%t: spans %q, want one %q", c.gridded, names, c.want)
		}
		attrs := map[string]any{}
		for _, a := range sink.spans[0].Attrs {
			attrs[a.Key] = a.Value
		}
		if len(m.Hotspots) == 0 || c.gridded != (m.TotalExpectedFeeds == 0) {
			t.Fatalf("gridded=%t: test module has %d hotspots, %g expected feed-throughs", c.gridded, len(m.Hotspots), m.TotalExpectedFeeds)
		}
		for key, val := range map[string]any{
			"module":            m.Module,
			"rows":              int64(m.Rows),
			"channels":          int64(len(m.Channels)),
			"expected_tracks":   m.TotalExpectedTracks,
			"expected_feeds":    m.TotalExpectedFeeds,
			"top_hotspot_score": m.Hotspots[0].Score,
		} {
			if got, ok := attrs[key]; !ok || got != val {
				t.Errorf("gridded=%t: span attribute %s = %v (present %t), want %v", c.gridded, key, got, ok, val)
			}
		}
	}
}
