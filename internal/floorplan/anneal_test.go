package floorplan

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"maest/internal/engine"
	"maest/internal/gen"
	"maest/internal/tech"
)

var update = flag.Bool("update", false, "rewrite golden files")

// annealChip compiles a deterministic random chip of small modules
// into the annealer's input shape.
func annealChip(t *testing.T, modules int, seed int64) (string, []PlanModule, []Net) {
	t.Helper()
	mods, nets := estimatorChip(t, gen.ChipConfig{
		Name: "anneal-chip", Modules: modules, MinGates: 12, MaxGates: 40, Seed: seed,
	})
	return "anneal-chip", mods, nets
}

// estimatorChip compiles a generated chip into PlanModules inputs.
func estimatorChip(tb testing.TB, cfg gen.ChipConfig) ([]PlanModule, []Net) {
	tb.Helper()
	p, err := tech.Lookup("nmos25")
	if err != nil {
		tb.Fatal(err)
	}
	chip, err := gen.RandomChip(cfg, p)
	if err != nil {
		tb.Fatal(err)
	}
	mods := make([]PlanModule, len(chip.Modules))
	for i, c := range chip.Modules {
		pl, err := engine.Compile(c, p)
		if err != nil {
			tb.Fatalf("compile %s: %v", c.Name, err)
		}
		mods[i] = PlanModule{Name: c.Name, Plan: pl}
	}
	nets := make([]Net, len(chip.GlobalNets))
	for i, gn := range chip.GlobalNets {
		pins := make([]NetPin, len(gn.Pins))
		for j, pin := range gn.Pins {
			pins[j] = NetPin{Module: pin.Module, Port: pin.Port}
		}
		nets[i] = Net{Name: gn.Name, Pins: pins}
	}
	return mods, nets
}

func TestPlanModulesBasics(t *testing.T) {
	name, mods, nets := annealChip(t, 4, 11)
	plan, err := PlanModules(context.Background(), name, mods, nets,
		WithBudget(120), WithSeed(7), WithCongestWeight(1))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Chip != name || len(plan.Blocks) != 4 {
		t.Fatalf("plan = %+v", plan)
	}
	// One candidate chosen per module, at a real row count.
	for _, b := range plan.Blocks {
		if b.ShapeIndex < 0 || b.Rows < 1 || b.W <= 0 || b.H <= 0 {
			t.Fatalf("bad block %+v", b)
		}
	}
	if u := plan.Utilization(); u <= 0 || u > 1+1e-9 {
		t.Fatalf("utilization = %g", u)
	}
	if plan.Cost <= 0 {
		t.Fatalf("cost = %g", plan.Cost)
	}
	// Congestion detail covers every Plan-backed module.
	if len(plan.Congestion) != 4 {
		t.Fatalf("congestion detail for %d modules, want 4", len(plan.Congestion))
	}
	for _, mc := range plan.Congestion {
		if mc.Rows < 1 || len(mc.Channels) == 0 {
			t.Fatalf("bad congestion detail %+v", mc)
		}
	}
	if plan.Stats.Iterations != 120 {
		t.Fatalf("iterations = %d, want the full budget", plan.Stats.Iterations)
	}
	if plan.Stats.RoutLookups == 0 || plan.Stats.RoutMemoHits == 0 {
		t.Fatalf("routability memo never exercised: %+v", plan.Stats)
	}
}

func TestPlanModulesDeterministicUnderSeed(t *testing.T) {
	name, mods, nets := annealChip(t, 4, 3)
	render := func() []byte {
		plan, err := PlanModules(context.Background(), name, mods, nets,
			WithBudget(80), WithSeed(42), WithCongestWeight(0.5), WithWireWeight(1))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WritePlanText(&buf, plan); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different plans:\n%s\nvs\n%s", a, b)
	}
}

func TestPlanModulesBudgetZeroIsGreedy(t *testing.T) {
	name, mods, nets := annealChip(t, 3, 5)
	plan, err := PlanModules(context.Background(), name, mods, nets, WithBudget(-1))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Stats.Iterations != 0 {
		t.Fatalf("greedy path annealed: %d iterations", plan.Stats.Iterations)
	}
	if plan.Stats.Evals != 1 {
		t.Fatalf("greedy path evaluated %d times, want 1", plan.Stats.Evals)
	}
	// Area-only objective: cost is the chip area.
	if plan.Cost != plan.Area() {
		t.Fatalf("cost %g != area %g", plan.Cost, plan.Area())
	}
}

func TestPlanModulesAnnealNeverWorseThanGreedy(t *testing.T) {
	name, mods, nets := annealChip(t, 5, 9)
	opts := []Option{WithCongestWeight(1), WithWireWeight(1)}
	greedy, err := PlanModules(context.Background(), name, mods, nets, append(opts, WithBudget(-1))...)
	if err != nil {
		t.Fatal(err)
	}
	annealed, err := PlanModules(context.Background(), name, mods, nets,
		append(opts, WithBudget(150), WithSeed(2))...)
	if err != nil {
		t.Fatal(err)
	}
	if annealed.Cost > greedy.Cost {
		t.Fatalf("anneal regressed: %g > greedy %g", annealed.Cost, greedy.Cost)
	}
}

func TestPlanModulesCancellation(t *testing.T) {
	name, mods, nets := annealChip(t, 3, 1)
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel after the first progress report: the per-move check must
	// surface the context error.
	fired := false
	_, err := PlanModules(ctx, name, mods, nets,
		WithBudget(100000), WithProgress(func(p Progress) {
			if !fired {
				fired = true
				cancel()
			}
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestPlanModulesValidation(t *testing.T) {
	name, mods, nets := annealChip(t, 3, 2)
	ctx := context.Background()
	if _, err := PlanModules(ctx, name, nil, nil); !errors.Is(err, ErrPlan) {
		t.Fatalf("empty modules: %v", err)
	}
	dup := append([]PlanModule{mods[0]}, mods...)
	if _, err := PlanModules(ctx, name, dup, nets); !errors.Is(err, ErrPlan) {
		t.Fatalf("duplicate module: %v", err)
	}
	if _, err := PlanModules(ctx, name, []PlanModule{{Name: "m"}}, nil); !errors.Is(err, ErrPlan) {
		t.Fatalf("nil plan: %v", err)
	}
	bad := []Net{{Name: "n", Pins: []NetPin{{Module: "ghost", Port: "p"}}}}
	if _, err := PlanModules(ctx, name, mods, bad); !errors.Is(err, ErrPlan) {
		t.Fatalf("unknown net module: %v", err)
	}

	square := []Shape{{W: 10, H: 10}}
	both := []PlanModule{{Name: "m", Plan: mods[0].Plan, Shapes: square}}
	if _, err := PlanModules(ctx, name, both, nil); !errors.Is(err, ErrPlan) {
		t.Fatalf("plan and shapes both set: %v", err)
	}
	neither := []PlanModule{{Name: "m", Shapes: []Shape{}}}
	if _, err := PlanModules(ctx, name, neither, nil); !errors.Is(err, ErrPlan) {
		t.Fatalf("empty shape list: %v", err)
	}
	for _, s := range []Shape{
		{W: math.NaN(), H: 10}, {W: 10, H: math.NaN()},
		{W: math.Inf(1), H: 10}, {W: 10, H: math.Inf(-1)},
		{W: 0, H: 10}, {W: 10, H: -1},
	} {
		fixed := []PlanModule{{Name: "ok", Shapes: square}, {Name: "m", Shapes: append(square, s)}}
		if _, err := PlanModules(ctx, name, fixed, nil, WithBudget(0)); !errors.Is(err, ErrPlan) {
			t.Fatalf("shape %gx%g: err = %v", s.W, s.H, err)
		}
	}
	// Finite shapes whose product overflows leave no root shape with a
	// finite weighted cost: an error, not a nil plan.
	huge := []PlanModule{{Name: "m", Shapes: []Shape{{W: 1e200, H: 1e200}}}}
	if _, err := PlanModules(ctx, name, huge, nil, WithBudget(0), WithWireWeight(1)); !errors.Is(err, ErrPlan) {
		t.Fatalf("overflowing area: err = %v", err)
	}
}

func TestPlanModulesProgressReports(t *testing.T) {
	name, mods, nets := annealChip(t, 3, 4)
	var last Progress
	n := 0
	_, err := PlanModules(context.Background(), name, mods, nets,
		WithBudget(25), WithProgress(func(p Progress) { last, n = p, n+1 }))
	if err != nil {
		t.Fatal(err)
	}
	if n != 25 || last.Iteration != 25 || last.Budget != 25 {
		t.Fatalf("progress: %d calls, last %+v", n, last)
	}
	if last.Best <= 0 || last.Current <= 0 {
		t.Fatalf("progress costs missing: %+v", last)
	}
}

// TestGoldenPlanText pins the determinism contract over one §7
// experiment suite: a generated chip, annealed with a fixed seed and
// congestion-scored cost, must reproduce the checked-in plan byte for
// byte.  Run with -update after intentional search changes.
func TestGoldenPlanText(t *testing.T) {
	name, mods, nets := annealChip(t, 4, 88)
	plan, err := PlanModules(context.Background(), name, mods, nets,
		WithBudget(200), WithSeed(1988), WithCongestWeight(1), WithWireWeight(0.5))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePlanText(&buf, plan); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("..", "..", "testdata", "golden", "floorplan_plan.txt")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("plan differs from golden (run with -update after intentional changes)\ngot:\n%s\nwant:\n%s",
			buf.Bytes(), want)
	}
}

// TestFixedShapesMatchSearchCore pins the fixed-shape path: a greedy
// wire-weighted PlanModules over fixed shapes must produce exactly the
// plan the search core yields for those modules under the bare
// objective — resolving fixed shapes adds nothing, and the seed and
// candidate defaults the entry point fills in never reach a greedy
// fixed-shape search.
func TestFixedShapesMatchSearchCore(t *testing.T) {
	chip, mods, nets := sampleChip()
	plan := planGreedy(t, chip, mods, nets, WithWireWeight(10))
	ms, err := resolveModules(context.Background(), mods, nets, config{})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := run(context.Background(), chip, ms, nets, config{wireWeight: 10})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := WritePlanText(&a, plan); err != nil {
		t.Fatal(err)
	}
	if err := WritePlanText(&b, direct); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("fixed-shape plan diverged from search core:\n%s\nvs\n%s", a.Bytes(), b.Bytes())
	}
}
