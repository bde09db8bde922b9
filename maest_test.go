package maest_test

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"maest"
	"maest/internal/baseline"
	"maest/internal/core"
	"maest/internal/floorplan"
	"maest/internal/hdl"
	"maest/internal/layout"
	"maest/internal/netlist"
	"maest/internal/prob"
	"maest/internal/route"
	"maest/internal/sim"
	"maest/internal/tech"
)

const demoMnet = `
module demo
port in a
port in b
port out y
device g1 NAND2 a b n1
device g2 INV n1 n2
device g3 NOR2 n1 b n3
device g4 NAND2 n2 n3 y
end
`

// estimate is the public Fig. 1 flow on a parsed circuit: compile
// once, then estimate the plan.
func estimate(t *testing.T, c *maest.Circuit, p *maest.Process, opts ...maest.EngineOption) *maest.Result {
	t.Helper()
	pl, err := maest.Compile(context.Background(), c, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.Estimate(context.Background(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPublicPipeline(t *testing.T) {
	p := maest.NMOS25()
	c, err := maest.ParseMnet(context.Background(), strings.NewReader(demoMnet))
	if err != nil {
		t.Fatal(err)
	}
	res := estimate(t, c, p, maest.WithRows(2))
	if res.SC == nil || res.FCExact == nil || res.FCAverage == nil {
		t.Fatal("missing estimates")
	}
	if res.SC.Area <= 0 || res.FCExact.Area <= 0 {
		t.Fatal("degenerate estimates")
	}
}

func TestPublicBuilderFlow(t *testing.T) {
	p := tech.CMOS30()
	b := maest.NewCircuitBuilder("pub")
	b.AddDevice("g1", "NAND2", "a", "b", "y")
	b.AddDevice("g2", "INV", "y", "z")
	b.AddPort("a", maest.In, "a")
	b.AddPort("b", maest.In, "b")
	b.AddPort("z", maest.Out, "z")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := netlist.Gather(c, p)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 2 || s.NumPorts != 3 {
		t.Fatalf("stats = %+v", s)
	}
	sc, err := core.EstimateStandardCell(s, p, core.SCOptions{Rows: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Area <= 0 {
		t.Fatal("empty estimate")
	}
	x, err := maest.ExpandTransistors(c, p)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := maest.EstimateFullCustom(x, p, maest.FCExactAreas)
	if err != nil {
		t.Fatal(err)
	}
	if fc.Area <= 0 {
		t.Fatal("empty FC estimate")
	}
}

func TestPublicGroundTruthFlow(t *testing.T) {
	p := maest.NMOS25()
	c, err := maest.RandomCircuit(maest.RandomConfig{Gates: 30, Inputs: 4, Outputs: 3, Seed: 1}, p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := maest.LayoutStandardCell(context.Background(), c, p, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Area() <= 0 {
		t.Fatal("empty layout")
	}
	pl, err := maest.PlaceCircuit(context.Background(), c, p, maest.PlaceOptions{Rows: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := route.RouteModule(context.Background(), pl, route.Options{TrackSharing: true})
	if err != nil {
		t.Fatal(err)
	}
	if rr.TotalTracks <= 0 {
		t.Fatal("no routing")
	}
}

func TestPublicFloorplanFlow(t *testing.T) {
	p := maest.NMOS25()
	chip, err := maest.RandomChip(maest.ChipConfig{Modules: 3, MinGates: 10, MaxGates: 20, Seed: 2}, p)
	if err != nil {
		t.Fatal(err)
	}
	d := &maest.EstimateDB{Chip: chip.Name}
	for _, mod := range chip.Modules {
		d.Modules = append(d.Modules, maest.ModuleRecordFromResult(estimate(t, mod, p)))
	}
	for _, gn := range chip.GlobalNets {
		rec := maest.GlobalNet{Name: gn.Name}
		for _, pin := range gn.Pins {
			rec.Pins = append(rec.Pins, maest.GlobalPin{Module: pin.Module, Port: pin.Port})
		}
		d.Nets = append(d.Nets, rec)
	}
	var buf bytes.Buffer
	if err := maest.WriteEstimateDB(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := maest.ReadEstimateDB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	mods, nets := maest.FloorplanInputs(back)
	plan, err := maest.PlanModules(context.Background(), back.Chip, mods, nets, maest.WithBudget(0))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Area() <= 0 || len(plan.Blocks) != 3 {
		t.Fatalf("plan = %+v", plan)
	}
}

func TestPublicProbability(t *testing.T) {
	e, err := prob.ExpectedRowSpan(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-5.0/3) > 1e-12 {
		t.Fatalf("E = %g", e)
	}
	pft, err := prob.CentralFeedThroughProb(3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pft-2.0/9) > 1e-12 {
		t.Fatalf("p = %g", pft)
	}
}

func TestPublicProcessRoundTrip(t *testing.T) {
	p, err := maest.LookupProcess("nmos25")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tech.Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	back, err := maest.ReadProcess(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "nmos25" {
		t.Fatalf("name = %q", back.Name)
	}
}

func TestPublicSuitesAndBaselines(t *testing.T) {
	p := maest.NMOS25()
	fc, err := maest.FullCustomSuite(p)
	if err != nil || len(fc) != 5 {
		t.Fatalf("FC suite: %v %d", err, len(fc))
	}
	sc, err := maest.StandardCellSuite(p)
	if err != nil || len(sc) != 2 {
		t.Fatalf("SC suite: %v %d", err, len(sc))
	}
	model, err := baseline.CalibratePLEST(sc[:1], p, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if model.Density <= 0 {
		t.Fatal("bad PLEST calibration")
	}
	if _, err := maest.SynthesizeFullCustom(context.Background(), fc[0], p, 1); err != nil {
		t.Fatal(err)
	}
}

func TestPublicExtendedSurface(t *testing.T) {
	p := maest.NMOS25()
	c, err := maest.RandomCircuit(maest.RandomConfig{Gates: 40, Inputs: 5, Outputs: 4, Seed: 3}, p)
	if err != nil {
		t.Fatal(err)
	}
	// Parallel chip estimation.
	cpl, err := maest.Compile(context.Background(), c, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := maest.EstimatePlans(context.Background(), []*maest.Plan{cpl}, maest.WithWorkers(2))
	if err != nil || len(res) != 1 {
		t.Fatalf("EstimatePlans: %v", err)
	}
	// Geometry + DRC + SVG + CIF.
	pl, err := maest.PlaceCircuit(context.Background(), c, p, maest.PlaceOptions{Rows: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	det, err := maest.DetailRoutePlacement(pl)
	if err != nil {
		t.Fatal(err)
	}
	g, err := maest.BuildGeometry(pl, det, p)
	if err != nil {
		t.Fatal(err)
	}
	if vs := layout.CheckDRC(g, p); len(vs) != 0 {
		t.Fatalf("DRC violations on engine output: %v", vs[0])
	}
	var buf bytes.Buffer
	if err := maest.WriteSVG(&buf, g, 2); err != nil {
		t.Fatal(err)
	}
	// Rescaled process conversions.
	q, err := p.Rescale("shrunk", 1250)
	if err != nil {
		t.Fatal(err)
	}
	if q.PhysicalArea(100) >= p.PhysicalArea(100) {
		t.Fatal("shrink did not reduce physical area")
	}
	// HDL surfaces: Verilog + bench writers.
	var v, bb bytes.Buffer
	if err := hdl.WriteVerilog(&v, c); err != nil {
		t.Fatal(err)
	}
	back, err := hdl.ParseVerilog(&v, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := maest.WriteBench(&bb, back); err != nil {
		t.Fatal(err)
	}
	// Chain generator.
	if _, err := maest.Chain("c", 5, p); err != nil {
		t.Fatal(err)
	}
	// Plan SVG + global route on a tiny chip.
	chip, err := maest.RandomChip(maest.ChipConfig{Modules: 2, MinGates: 8, MaxGates: 12, Seed: 1}, p)
	if err != nil {
		t.Fatal(err)
	}
	d := &maest.EstimateDB{Chip: chip.Name}
	for _, m := range chip.Modules {
		d.Modules = append(d.Modules, maest.ModuleRecordFromResult(estimate(t, m, p)))
	}
	for _, gn := range chip.GlobalNets {
		rec := maest.GlobalNet{Name: gn.Name}
		for _, pin := range gn.Pins {
			rec.Pins = append(rec.Pins, maest.GlobalPin{Module: pin.Module, Port: pin.Port})
		}
		d.Nets = append(d.Nets, rec)
	}
	mods, nets := maest.FloorplanInputs(d)
	plan, err := maest.PlanModules(context.Background(), d.Chip, mods, nets, maest.WithBudget(0))
	if err != nil {
		t.Fatal(err)
	}
	var psvg bytes.Buffer
	if err := maest.WritePlanSVG(&psvg, plan, 1); err != nil {
		t.Fatal(err)
	}
	if len(nets) > 0 {
		if _, err := maest.GlobalRoute(nets, plan, p, 4); err != nil {
			t.Fatal(err)
		}
	}
	// PLA surface.
	q2, err := maest.RandomPLA(3, 2, 5, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q2.Circuit("pla", p); err != nil {
		t.Fatal(err)
	}
	// Degree metrics.
	if deg := maest.CircuitDegrees(c); deg.RoutableNets == 0 {
		t.Fatal("no degrees")
	}
}

func TestPublicSimAndPlanOpt(t *testing.T) {
	b := maest.NewCircuitBuilder("s")
	b.AddDevice("g1", "XOR2", "a", "b", "y")
	b.AddPort("a", maest.In, "a")
	b.AddPort("b", maest.In, "b")
	b.AddPort("y", maest.Out, "y")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	vals, err := sim.Eval(c, map[string]bool{"a": true, "b": false})
	if err != nil {
		t.Fatal(err)
	}
	if !vals["y"] {
		t.Fatal("XOR(1,0) != 1")
	}
	mods := []maest.PlanModule{{Name: "m", Shapes: []floorplan.Shape{{W: 10, H: 10}}}}
	if _, err := maest.PlanModules(context.Background(), "x", mods, nil,
		maest.WithBudget(0), floorplan.WithWireWeight(1)); err != nil {
		t.Fatal(err)
	}
}
