package floorplan

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"maest/internal/db"
)

// sampleChip is a three-module fixed-shape chip: a has two candidate
// shapes, b and c one each; b connects to both a and c.
func sampleChip() (string, []PlanModule, []Net) {
	mods := []PlanModule{
		{Name: "a", Shapes: []Shape{{W: 100, H: 50, Rows: 2}, {W: 50, H: 100, Rows: 4}}},
		{Name: "b", Shapes: []Shape{{W: 80, H: 40, Rows: 2}}},
		{Name: "c", Shapes: []Shape{{W: 60, H: 60, Rows: 2}}},
	}
	nets := []Net{
		{Name: "n1", Pins: []NetPin{{Module: "a", Port: "x"}, {Module: "b", Port: "y"}}},
		{Name: "n2", Pins: []NetPin{{Module: "b", Port: "z"}, {Module: "c", Port: "w"}}},
	}
	return "demo", mods, nets
}

// planGreedy runs the deterministic greedy pass (no annealing).
func planGreedy(t *testing.T, chip string, mods []PlanModule, nets []Net, opts ...Option) *Plan {
	t.Helper()
	plan, err := PlanModules(context.Background(), chip, mods, nets, append([]Option{WithBudget(0)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// samplePlan is the greedy minimum-area plan of sampleChip.
func samplePlan(t *testing.T) *Plan {
	t.Helper()
	chip, mods, nets := sampleChip()
	return planGreedy(t, chip, mods, nets)
}

func TestPlanFixedShapesBasics(t *testing.T) {
	plan := samplePlan(t)
	if plan.Chip != "demo" || len(plan.Blocks) != 3 {
		t.Fatalf("plan = %+v", plan)
	}
	if plan.Width <= 0 || plan.Height <= 0 {
		t.Fatal("degenerate chip")
	}
	if plan.WireLength <= 0 {
		t.Fatal("no wire length computed")
	}
	if u := plan.Utilization(); u <= 0 || u > 1+1e-9 {
		t.Fatalf("utilization = %g", u)
	}
	// Fixed shapes carry no plan, so no routability or congestion.
	if plan.Routability != 0 || plan.Congestion != nil {
		t.Fatalf("fixed-shape plan scored congestion: %g %+v", plan.Routability, plan.Congestion)
	}
	if plan.Cost != plan.Area() || plan.Stats.Iterations != 0 || plan.Stats.Evals != 1 {
		t.Fatalf("greedy pass: cost %g area %g stats %+v", plan.Cost, plan.Area(), plan.Stats)
	}
}

func TestPlanBlocksDisjointAndInsideChip(t *testing.T) {
	plan := samplePlan(t)
	eps := 1e-9
	for i, a := range plan.Blocks {
		if a.X < -eps || a.Y < -eps || a.X+a.W > plan.Width+eps || a.Y+a.H > plan.Height+eps {
			t.Fatalf("block %s outside chip: %+v (chip %gx%g)", a.Name, a, plan.Width, plan.Height)
		}
		for j := i + 1; j < len(plan.Blocks); j++ {
			b := plan.Blocks[j]
			if a.X < b.X+b.W-eps && b.X < a.X+a.W-eps &&
				a.Y < b.Y+b.H-eps && b.Y < a.Y+a.H-eps {
				t.Fatalf("blocks %s and %s overlap", a.Name, b.Name)
			}
		}
	}
}

func TestPlanUsesShapeCandidates(t *testing.T) {
	// With two shapes for module a, the planner must pick a valid
	// index and the slot must match that shape.
	plan := samplePlan(t)
	a := plan.BlockByName("a")
	if a == nil {
		t.Fatal("module a missing")
	}
	_, mods, _ := sampleChip()
	shapes := mods[0].Shapes
	if a.ShapeIndex < 0 || a.ShapeIndex >= len(shapes) {
		t.Fatalf("shape index = %d", a.ShapeIndex)
	}
	s := shapes[a.ShapeIndex]
	if a.W != s.W || a.H != s.H || a.Rows != s.Rows {
		t.Fatalf("slot %gx%g rows %d != shape %+v", a.W, a.H, a.Rows, s)
	}
}

// BlockByName must point into Blocks itself, not at a copy left behind
// by a growing slice: a write through it is a write to the plan.
func TestBlockByNameAliasesBlocks(t *testing.T) {
	plan := samplePlan(t)
	for i, b := range plan.Blocks {
		if got := plan.BlockByName(b.Name); got != &plan.Blocks[i] {
			t.Fatalf("BlockByName(%q) = %p, want &Blocks[%d] = %p", b.Name, got, i, &plan.Blocks[i])
		}
	}
	plan.BlockByName("a").X = 7
	for _, b := range plan.Blocks {
		if b.Name == "a" && b.X != 7 {
			t.Fatalf("write through BlockByName lost: Blocks holds X = %g", b.X)
		}
	}
}

func TestPlanSingleModule(t *testing.T) {
	plan := planGreedy(t, "one", []PlanModule{{Name: "m", Shapes: []Shape{{W: 30, H: 20}}}}, nil)
	if plan.Width != 30 || plan.Height != 20 {
		t.Fatalf("plan = %gx%g", plan.Width, plan.Height)
	}
}

// sampleDB is sampleChip as an estimate database.
func sampleDB() *db.Database {
	return &db.Database{
		Chip: "demo",
		Modules: []db.Module{
			{Name: "a", Devices: 10, Nets: 8, Ports: 4, Shapes: []db.Shape{
				{Label: "s1", Rows: 2, W: 100, H: 50},
				{Label: "s2", Rows: 4, W: 50, H: 100},
			}},
			{Name: "b", Devices: 10, Nets: 8, Ports: 4, Shapes: []db.Shape{
				{Label: "s1", Rows: 2, W: 80, H: 40},
			}},
			{Name: "c", Devices: 10, Nets: 8, Ports: 4, Shapes: []db.Shape{
				{Label: "s1", Rows: 2, W: 60, H: 60},
			}},
		},
		Nets: []db.GlobalNet{
			{Name: "n1", Pins: []db.GlobalPin{{Module: "a", Port: "x"}, {Module: "b", Port: "y"}}},
			{Name: "n2", Pins: []db.GlobalPin{{Module: "b", Port: "z"}, {Module: "c", Port: "w"}}},
		},
	}
}

// FromDB keeps shape order (ShapeIndex indexes the record's shapes)
// and the nets, and nothing else.
func TestFromDB(t *testing.T) {
	mods, nets := FromDB(sampleDB())
	_, wantMods, wantNets := sampleChip()
	if !reflect.DeepEqual(mods, wantMods) || !reflect.DeepEqual(nets, wantNets) {
		t.Fatalf("FromDB = %+v %+v\nwant %+v %+v", mods, nets, wantMods, wantNets)
	}
}

func TestPlanRejectsInvalidDB(t *testing.T) {
	ctx := context.Background()
	d := sampleDB()
	d.Modules[0].Shapes = nil
	mods, nets := FromDB(d)
	if _, err := PlanModules(ctx, d.Chip, mods, nets, WithBudget(0)); !errors.Is(err, ErrPlan) {
		t.Fatalf("shapeless module: err = %v", err)
	}
	mods, nets = FromDB(&db.Database{Chip: "e"})
	if _, err := PlanModules(ctx, "e", mods, nets, WithBudget(0)); !errors.Is(err, ErrPlan) {
		t.Fatalf("empty database: err = %v", err)
	}
}

func TestParetoPruning(t *testing.T) {
	cs := []combo{
		{w: 10, h: 10}, {w: 10, h: 12}, // dominated (same w, taller)
		{w: 12, h: 8}, {w: 20, h: 8}, // second dominated (wider, same h)
		{w: 15, h: 5},
	}
	out := pareto(cs)
	if len(out) != 3 {
		t.Fatalf("pareto kept %d: %+v", len(out), out)
	}
	for i := 1; i < len(out); i++ {
		if out[i].w <= out[i-1].w || out[i].h >= out[i-1].h {
			t.Fatalf("not a staircase: %+v", out)
		}
	}
}

func TestParetoCap(t *testing.T) {
	var cs []combo
	for i := 0; i < 100; i++ {
		cs = append(cs, combo{w: float64(10 + i), h: float64(200 - i)})
	}
	out := pareto(cs)
	if len(out) > maxCombos {
		t.Fatalf("cap not applied: %d", len(out))
	}
}

func TestClusterOrderPutsConnectedAdjacent(t *testing.T) {
	_, mods, nets := sampleChip()
	ms, err := resolveModules(context.Background(), mods, nets, config{})
	if err != nil {
		t.Fatal(err)
	}
	order := clusterOrder(ms, nets)
	if len(order) != 3 {
		t.Fatalf("order = %d modules", len(order))
	}
	pos := map[string]int{}
	for i, m := range order {
		pos[m.name] = i
	}
	// b connects to both a and c; it must not be separated from both.
	if abs(pos["a"]-pos["b"]) > 1 && abs(pos["b"]-pos["c"]) > 1 {
		t.Fatalf("clustering ignored connectivity: %v", pos)
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func TestWireLengthReflectsDistance(t *testing.T) {
	// Two modules connected by a net: wire length equals the centre
	// distance (half-perimeter).
	square := []Shape{{W: 10, H: 10}}
	plan := planGreedy(t, "two",
		[]PlanModule{{Name: "a", Shapes: square}, {Name: "b", Shapes: square}},
		[]Net{{Name: "n", Pins: []NetPin{{Module: "a", Port: "p"}, {Module: "b", Port: "q"}}}})
	a, b := plan.BlockByName("a"), plan.BlockByName("b")
	want := math.Abs(a.X-b.X) + math.Abs(a.Y-b.Y)
	if math.Abs(plan.WireLength-want) > 1e-9 {
		t.Fatalf("wirelength = %g, want %g", plan.WireLength, want)
	}
}

func TestPlanFixedShapesWireAware(t *testing.T) {
	chip, mods, nets := sampleChip()
	areaPlan := planGreedy(t, chip, mods, nets)
	wirePlan := planGreedy(t, chip, mods, nets, WithWireWeight(10))
	// The wire-aware plan never has a worse combined score, and the
	// area-only plan never has a larger area.
	if wirePlan.Area() < areaPlan.Area() {
		t.Fatalf("area-only plan not minimal: %g vs %g", areaPlan.Area(), wirePlan.Area())
	}
	scoreOf := func(p *Plan, w float64) float64 {
		return p.Area() + w*p.WireLength*math.Sqrt(p.Area())
	}
	if scoreOf(wirePlan, 10) > scoreOf(areaPlan, 10)+1e-9 {
		t.Fatalf("wire-aware plan scored worse: %g vs %g",
			scoreOf(wirePlan, 10), scoreOf(areaPlan, 10))
	}
	if wirePlan.Cost != scoreOf(wirePlan, 10) {
		t.Fatalf("cost %g != area + wire score %g", wirePlan.Cost, scoreOf(wirePlan, 10))
	}
	// Both remain legal.
	for _, plan := range []*Plan{areaPlan, wirePlan} {
		if len(plan.Blocks) != 3 || plan.Utilization() <= 0 {
			t.Fatal("degenerate plan")
		}
	}
}
