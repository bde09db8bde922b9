package engine

import (
	"context"
	"strings"
	"testing"

	"maest/internal/core"
	"maest/internal/hdl"
	"maest/internal/netlist"
	"maest/internal/tech"
)

const pipeMnet = `
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

// estimateMnet is the Fig. 1 flow over the engine: parse the .mnet
// schematic, compile it against the process, estimate the plan.
func estimateMnet(t *testing.T, src string, p *tech.Process, opts ...Option) *core.Result {
	t.Helper()
	c, err := hdl.ParseMnet(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Compile(c, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.Estimate(context.Background(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPipelineEndToEnd(t *testing.T) {
	res := estimateMnet(t, pipeMnet, tech.NMOS25(), WithRows(2))
	if res.Module != "demo" {
		t.Fatalf("module = %q", res.Module)
	}
	if res.SC == nil || res.FCExact == nil || res.FCAverage == nil {
		t.Fatal("pipeline missing estimates")
	}
	if len(res.SCCandidates) != 5 {
		t.Fatalf("candidates = %d", len(res.SCCandidates))
	}
	if res.Stats.N != 4 {
		t.Fatalf("stats N = %d", res.Stats.N)
	}
	// The full-custom estimate runs on the expanded transistor
	// netlist, which has more devices than the gate netlist.
	if res.FCExact.DeviceArea <= 0 || res.FCExact.Area < res.FCExact.DeviceArea {
		t.Fatal("full-custom estimate inconsistent")
	}
	if res.SC.Area <= 0 {
		t.Fatal("standard-cell estimate empty")
	}
}

func TestPipelineParseFailure(t *testing.T) {
	if _, err := hdl.ParseMnet(strings.NewReader("not a module")); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestEstimateTransistorLevelCircuit(t *testing.T) {
	// A transistor-level module gets no standard-cell estimate.
	b := netlist.NewBuilder("xtors")
	b.AddDevice("m0", "ENH", "a", "", "x")
	b.AddDevice("m1", "DEP", "x", "x", "")
	b.AddPort("pa", netlist.In, "a")
	b.AddPort("px", netlist.Out, "x")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Compile(c, tech.NMOS25())
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.Estimate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.SC != nil || res.SCCandidates != nil {
		t.Fatal("transistor circuit should have no SC estimate")
	}
	if res.FCExact == nil || res.FCAverage == nil {
		t.Fatal("missing FC estimates")
	}
}

func TestEstimateRejectsMixedModule(t *testing.T) {
	b := netlist.NewBuilder("mixed")
	b.AddDevice("g1", "INV", "a", "b")
	b.AddDevice("m1", "ENH", "b", "", "c")
	b.AddPort("pa", netlist.In, "a")
	b.AddPort("pc", netlist.Out, "c")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(c, tech.NMOS25()); err == nil {
		t.Fatal("mixed module accepted")
	}
}

func TestEstimateUnknownType(t *testing.T) {
	b := netlist.NewBuilder("u")
	b.AddDevice("g1", "NOPE", "a", "b")
	b.AddDevice("g2", "INV", "b", "a")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(c, tech.NMOS25()); err == nil {
		t.Fatal("unknown type accepted")
	}
}

func TestEstimateCMOSProcess(t *testing.T) {
	// The estimator must "deal with different chip fabrication
	// technologies": the same RTL shape estimates under CMOS too.
	res := estimateMnet(t, pipeMnet, tech.CMOS30(), WithRows(2))
	if res.SC == nil || res.SC.Area <= 0 || res.FCExact.Area <= 0 {
		t.Fatal("CMOS estimation failed")
	}
}
