package db

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"maest/internal/cells"
	"maest/internal/core"
	"maest/internal/gen"
	"maest/internal/netlist"
	"maest/internal/tech"
)

func sample() *Database {
	return &Database{
		Chip: "demo",
		Modules: []Module{
			{
				Name: "alu", Devices: 120, Nets: 90, Ports: 14,
				Shapes: []Shape{
					{Label: "sc-rows2", Rows: 2, W: 400, H: 200},
					{Label: "sc-rows3", Rows: 3, W: 280, H: 260},
					{Label: "fc-exact", W: 310, H: 310},
				},
				Congestion: &Congestion{
					Model: "crossing", Rows: 3, PeakUtil: 1.25,
					PeakOverflow: 0.375, HotChannel: 2, ExpectedFeeds: 4.5,
				},
			},
			{
				Name: "ctl", Devices: 40, Nets: 30, Ports: 8,
				Shapes: []Shape{{Label: "sc-rows2", Rows: 2, W: 150, H: 120}},
			},
		},
		Nets: []GlobalNet{
			{Name: "g1", Pins: []GlobalPin{{"alu", "a"}, {"ctl", "y"}}},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	d := sample()
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("%v\ninput:\n%s", err, buf.String())
	}
	if !reflect.DeepEqual(d, back) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, d)
	}
}

func TestShapeHelpers(t *testing.T) {
	s := Shape{W: 100, H: 50}
	if s.Area() != 5000 {
		t.Fatalf("area = %g", s.Area())
	}
	if s.Aspect() != 2 {
		t.Fatalf("aspect = %g", s.Aspect())
	}
	if (Shape{W: 5}).Aspect() != 0 {
		t.Fatal("degenerate aspect should be 0")
	}
}

func TestModuleByName(t *testing.T) {
	d := sample()
	if d.ModuleByName("alu") == nil || d.ModuleByName("nope") != nil {
		t.Fatal("ModuleByName broken")
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	cases := []struct{ name, in string }{
		{"empty", ""},
		{"no chip", "module m 1 1 1\nend\n"},
		{"dup chip", "chip a\nchip b\nend\n"},
		{"bad module", "chip a\nmodule m 1 1\nend\n"},
		{"bad int", "chip a\nmodule m one 1 1\nend\n"},
		{"orphan shape", "chip a\nshape s 1 1 1\nend\n"},
		{"bad shape", "chip a\nmodule m 1 1 1\nshape s 1 1\nend\n"},
		{"bad shape rows", "chip a\nmodule m 1 1 1\nshape s x 1 1\nend\n"},
		{"bad shape dims", "chip a\nmodule m 1 1 1\nshape s 1 x 1\nend\n"},
		{"short net", "chip a\nmodule m 1 1 1\nshape s 1 1 1\nnet n\nend\n"},
		{"bad pin", "chip a\nmodule m 1 1 1\nshape s 1 1 1\nnet n m.a nodot\nend\n"},
		{"unknown directive", "chip a\nwombat\nend\n"},
		{"no end", "chip a\n"},
		{"trailing", "chip a\nend\nchip b\n"},
		{"moduleless net", "chip a\nmodule m 1 1 1\nshape s 1 1 1\nnet n m.a q.b\nend\n"},
		{"single pin net", "chip a\nmodule m 1 1 1\nshape s 1 1 1\nnet n m.a\nend\n"},
		{"shapeless module", "chip a\nmodule m 1 1 1\nend\n"},
		{"orphan congest", "chip a\ncongest occupancy 2 0.5 0.1 0 1.0\nend\n"},
		{"short congest", "chip a\nmodule m 1 1 1\nshape s 1 1 1\ncongest occupancy 2 0.5\nend\n"},
		{"bad congest rows", "chip a\nmodule m 1 1 1\nshape s 1 1 1\ncongest occupancy x 0.5 0.1 0 1.0\nend\n"},
		{"bad congest float", "chip a\nmodule m 1 1 1\nshape s 1 1 1\ncongest occupancy 2 x 0.1 0 1.0\nend\n"},
		{"dup congest", "chip a\nmodule m 1 1 1\nshape s 1 1 1\ncongest occupancy 2 0.5 0.1 0 1.0\ncongest occupancy 2 0.5 0.1 0 1.0\nend\n"},
		{"congest overflow > 1", "chip a\nmodule m 1 1 1\nshape s 1 1 1\ncongest occupancy 2 0.5 1.5 0 1.0\nend\n"},
		{"congest rows < 1", "chip a\nmodule m 1 1 1\nshape s 1 1 1\ncongest occupancy 0 0.5 0.1 0 1.0\nend\n"},
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: accepted malformed input", c.name)
		}
	}
}

// TestReadRejectsNonFinite pins that NaN and ±Inf, which ParseFloat
// accepts, never reach the planner through a shape size or a
// congestion figure.
func TestReadRejectsNonFinite(t *testing.T) {
	const head = "chip a\nmodule m 1 1 1\n"
	const shape = "shape s 1 10 10\n"
	cases := []struct{ name, body string }{
		{"NaN width", "shape s 1 NaN 10\n"},
		{"NaN height", "shape s 1 10 NaN\n"},
		{"+Inf width", "shape s 1 +Inf 10\n"},
		{"Inf height", "shape s 1 10 Inf\n"},
		{"-Inf width", "shape s 1 -Inf 10\n"},
		{"NaN and +Inf shapes", "shape s 1 NaN 10\nshape s 1 +Inf 10\n"},
		{"NaN peak util", shape + "congest occupancy 2 NaN 0.1 0 1.0\n"},
		{"+Inf peak util", shape + "congest occupancy 2 +Inf 0.1 0 1.0\n"},
		{"NaN peak overflow", shape + "congest occupancy 2 0.5 NaN 0 1.0\n"},
		{"NaN expected feeds", shape + "congest occupancy 2 0.5 0.1 0 NaN\n"},
		{"-Inf expected feeds", shape + "congest occupancy 2 0.5 0.1 0 -Inf\n"},
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(head + c.body + "end\n")); !errors.Is(err, ErrDB) {
			t.Errorf("%s: err = %v, want ErrDB", c.name, err)
		}
	}
	// The finite neighbours of those inputs still parse.
	if _, err := Read(strings.NewReader(head + shape + "congest occupancy 2 0.5 0.1 0 1.0\nend\n")); err != nil {
		t.Fatalf("finite record rejected: %v", err)
	}
}

func TestValidateDuplicateModule(t *testing.T) {
	d := sample()
	d.Modules = append(d.Modules, d.Modules[0])
	if err := Validate(d); err == nil {
		t.Fatal("duplicate module accepted")
	}
	d2 := sample()
	d2.Modules[0].Shapes[0].W = -1
	if err := Validate(d2); err == nil {
		t.Fatal("negative shape accepted")
	}
}

func TestValidateCongestionBounds(t *testing.T) {
	mut := []func(c *Congestion){
		func(c *Congestion) { c.Rows = 0 },
		func(c *Congestion) { c.PeakOverflow = -0.1 },
		func(c *Congestion) { c.PeakOverflow = 1.1 },
		func(c *Congestion) { c.PeakUtil = -1 },
		func(c *Congestion) { c.HotChannel = -2 },
	}
	for i, f := range mut {
		d := sample()
		f(d.Modules[0].Congestion)
		if err := Validate(d); err == nil {
			t.Errorf("mutation %d: invalid congestion record accepted", i)
		}
	}
}

func TestFromResult(t *testing.T) {
	p := tech.NMOS25()
	c, err := gen.Chain("mod", 12, p)
	if err != nil {
		t.Fatal(err)
	}
	// Assemble the estimate bundle from the core kernels directly:
	// this package sits below the engine (congest depends on db), so
	// the test cannot use engine.Estimate without an import cycle.
	s, err := netlist.Gather(c, p)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.SCOptions{Rows: 2}
	sc, err := core.EstimateStandardCell(s, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := core.SweepStandardCellShapes(s, p, opts, 5)
	if err != nil {
		t.Fatal(err)
	}
	xt, err := cells.ExpandTransistors(c, p)
	if err != nil {
		t.Fatal(err)
	}
	fcExact, err := core.EstimateFullCustom(xt, p, core.FCExactAreas)
	if err != nil {
		t.Fatal(err)
	}
	fcAvg, err := core.EstimateFullCustom(xt, p, core.FCAverageAreas)
	if err != nil {
		t.Fatal(err)
	}
	res := &core.Result{
		Module: c.Name, Stats: s,
		SC: sc, SCCandidates: cands,
		FCExact: fcExact, FCAverage: fcAvg,
	}
	m := FromResult(res)
	if m.Name != "mod" || m.Devices != 12 {
		t.Fatalf("record = %+v", m)
	}
	// 5 SC candidates + 2 FC shapes.
	if len(m.Shapes) != 7 {
		t.Fatalf("shapes = %d, want 7", len(m.Shapes))
	}
	sawFC := false
	for _, s := range m.Shapes {
		if s.W <= 0 || s.H <= 0 {
			t.Fatalf("bad shape %+v", s)
		}
		if s.Label == "fc-exact" {
			sawFC = true
		}
	}
	if !sawFC {
		t.Fatal("missing fc-exact shape")
	}
	// The record must pass database validation inside a chip.
	d := &Database{Chip: "c", Modules: []Module{m}}
	if err := Validate(d); err != nil {
		t.Fatal(err)
	}
}
