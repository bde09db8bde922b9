package maest_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"maest"
	"maest/internal/core"
	"maest/internal/hdl"
	"maest/internal/netlist"
	"maest/internal/prob"
)

// randNativeCircuit builds a random circuit out of native 2-input
// cells with .mnet-safe names (the gen package's mapper can emit
// reserved "$" names for decomposed gates, which WriteMnet rightly
// refuses).
func randNativeCircuit(seed int64, gates int) (*maest.Circuit, error) {
	rng := rand.New(rand.NewSource(seed))
	b := maest.NewCircuitBuilder(fmt.Sprintf("nat%d", seed))
	nets := []string{"i0", "i1", "i2"}
	for _, n := range nets {
		b.AddPort("p"+n, maest.In, n)
	}
	types := []string{"NAND2", "NOR2", "XOR2"}
	for g := 0; g < gates; g++ {
		out := fmt.Sprintf("w%d", g)
		if rng.Intn(4) == 0 {
			b.AddDevice(fmt.Sprintf("u%d", g), "INV", nets[rng.Intn(len(nets))], out)
		} else {
			typ := types[rng.Intn(len(types))]
			b.AddDevice(fmt.Sprintf("u%d", g), typ,
				nets[rng.Intn(len(nets))], nets[rng.Intn(len(nets))], out)
		}
		nets = append(nets, out)
	}
	b.AddPort("po", maest.Out, nets[len(nets)-1])
	return b.Build()
}

// Property: .mnet round trip preserves the circuit exactly (shape,
// types, connectivity) for arbitrary native circuits.
func TestMnetRoundTripProperty(t *testing.T) {
	f := func(seed int64, g uint8) bool {
		gates := int(g%40) + 1
		c, err := randNativeCircuit(seed, gates)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := maest.WriteMnet(&buf, c); err != nil {
			return false
		}
		back, err := maest.ParseMnet(context.Background(), &buf)
		if err != nil {
			return false
		}
		if back.NumDevices() != c.NumDevices() || back.NumNets() != c.NumNets() ||
			back.NumPorts() != c.NumPorts() {
			return false
		}
		for _, n := range c.Nets {
			n2 := back.NetByName(n.Name)
			if n2 == nil || n2.Degree() != n.Degree() || n2.External() != n.External() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: the estimators are invariant under device insertion
// order — the same circuit built in a different order estimates
// identically.
func TestEstimateOrderInvariance(t *testing.T) {
	p := maest.NMOS25()
	build := func(order []int) *maest.Circuit {
		devs := [][3]string{
			{"g0", "NAND2", "a b n1"},
			{"g1", "INV", "n1 n2"},
			{"g2", "NOR2", "n1 b n3"},
			{"g3", "NAND2", "n2 n3 y"},
			{"g4", "XOR2", "n2 y n4"},
		}
		b := maest.NewCircuitBuilder("perm")
		for _, i := range order {
			d := devs[i]
			pins := []string{}
			for _, f := range splitFields(d[2]) {
				pins = append(pins, f)
			}
			b.AddDevice(d[0], d[1], pins...)
		}
		b.AddPort("pa", maest.In, "a")
		b.AddPort("pb", maest.In, "b")
		b.AddPort("pn4", maest.Out, "n4")
		c, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	orders := [][]int{{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}, {2, 0, 4, 1, 3}}
	var scAreas, fcAreas []float64
	for _, ord := range orders {
		c := build(ord)
		res := estimate(t, c, p, maest.WithRows(3))
		scAreas = append(scAreas, res.SC.Area)
		fcAreas = append(fcAreas, res.FCExact.Area)
	}
	for i := 1; i < len(orders); i++ {
		if scAreas[i] != scAreas[0] || fcAreas[i] != fcAreas[0] {
			t.Fatalf("estimates depend on insertion order: %v %v", scAreas, fcAreas)
		}
	}
}

func splitFields(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == ' ' {
			if cur != "" {
				out = append(out, cur)
				cur = ""
			}
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}

// Property: adding a device never decreases the Full-Custom estimate
// (monotonicity of Eq. 13 in the device set).
func TestFullCustomMonotoneInDevices(t *testing.T) {
	p := maest.NMOS25()
	prev := 0.0
	for k := 2; k <= 24; k += 2 {
		b := maest.NewCircuitBuilder(fmt.Sprintf("mono%d", k))
		for i := 0; i < k; i++ {
			b.AddDevice(fmt.Sprintf("m%d", i), "ENH",
				fmt.Sprintf("g%d", i), fmt.Sprintf("s%d", i), fmt.Sprintf("s%d", i+1))
			b.AddPort(fmt.Sprintf("pg%d", i), maest.In, fmt.Sprintf("g%d", i))
		}
		b.AddPort("pin", maest.In, "s0")
		b.AddPort("pout", maest.Out, fmt.Sprintf("s%d", k))
		c, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		est, err := maest.EstimateFullCustom(c, p, maest.FCExactAreas)
		if err != nil {
			t.Fatal(err)
		}
		if est.Area < prev {
			t.Fatalf("k=%d: area %g < previous %g", k, est.Area, prev)
		}
		prev = est.Area
	}
}

// Integration: both built-in processes run the complete flow —
// estimate, layout, compare — on both benchmark suites.
func TestFullFlowBothProcesses(t *testing.T) {
	for _, procName := range []string{"nmos25", "cmos30"} {
		p, err := maest.LookupProcess(procName)
		if err != nil {
			t.Fatal(err)
		}
		scSuite, err := maest.StandardCellSuite(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range scSuite {
			s, err := netlist.Gather(c, p)
			if err != nil {
				t.Fatal(err)
			}
			est, err := core.EstimateStandardCell(s, p, core.SCOptions{Rows: 3})
			if err != nil {
				t.Fatalf("%s/%s: %v", procName, c.Name, err)
			}
			real, err := maest.LayoutStandardCell(context.Background(), c, p, 3, 1)
			if err != nil {
				t.Fatalf("%s/%s: %v", procName, c.Name, err)
			}
			if est.Area <= float64(real.Area()) {
				t.Errorf("%s/%s: estimator not an upper bound (%g <= %d)",
					procName, c.Name, est.Area, real.Area())
			}
		}
	}
	// The Full-Custom suite is nMOS-only (pass ladder needs ENH).
	p := maest.NMOS25()
	fcSuite, err := maest.FullCustomSuite(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range fcSuite {
		est, err := maest.EstimateFullCustom(c, p, maest.FCExactAreas)
		if err != nil {
			t.Fatal(err)
		}
		real, err := maest.SynthesizeFullCustom(context.Background(), c, p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if ratio := est.Area / float64(real.Area()); ratio < 0.5 || ratio > 1.5 {
			t.Errorf("%s: estimate/real ratio %.2f outside the small-module band", c.Name, ratio)
		}
	}
}

// Integration: geometry emission and both serializations work for
// every suite module.
func TestGeometryFlowOnSuite(t *testing.T) {
	p := maest.NMOS25()
	suite, err := maest.StandardCellSuite(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range suite {
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
		if err := g.CheckCellsDisjoint(); err != nil {
			t.Fatal(err)
		}
		var cif, svg bytes.Buffer
		if err := maest.WriteCIF(&cif, g, p); err != nil {
			t.Fatal(err)
		}
		if err := maest.WriteSVG(&svg, g, 2); err != nil {
			t.Fatal(err)
		}
		if cif.Len() == 0 || svg.Len() == 0 {
			t.Fatal("empty serialization")
		}
	}
}

// Property: the SC estimate's area decomposes exactly into its
// published parts for any row count.
func TestSCEstimateDecomposition(t *testing.T) {
	p := maest.NMOS25()
	c, err := maest.RandomCircuit(maest.RandomConfig{
		Gates: 60, Inputs: 6, Outputs: 5, Seed: 12,
	}, p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := netlist.Gather(c, p)
	if err != nil {
		t.Fatal(err)
	}
	for rows := 1; rows <= 8; rows++ {
		est, err := core.EstimateStandardCell(s, p, core.SCOptions{Rows: rows})
		if err != nil {
			t.Fatal(err)
		}
		wantW := s.AvgWidth()*float64(s.N)/float64(rows) +
			float64(est.FeedThroughs)*float64(p.FeedThroughWidth)
		wantH := float64(rows)*float64(p.RowHeight) +
			float64(est.Tracks)*float64(p.TrackPitch)
		if math.Abs(est.Width-wantW) > 1e-9 || math.Abs(est.Height-wantH) > 1e-9 {
			t.Fatalf("rows=%d: decomposition mismatch", rows)
		}
		if math.Abs(est.Area-wantW*wantH) > 1e-6 {
			t.Fatalf("rows=%d: area mismatch", rows)
		}
	}
}

// Integration: the committed 180-gate .bench workload runs the full
// estimate-vs-layout flow at scale.
func TestRand180BenchWorkload(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "rand180.bench"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p := maest.NMOS25()
	c, err := hdl.ParseBench(f, "rand180", p)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumDevices() < 180 {
		t.Fatalf("N = %d", c.NumDevices())
	}
	s, err := netlist.Gather(c, p)
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.EstimateStandardCell(s, p, core.SCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	real, err := maest.LayoutStandardCell(context.Background(), c, p, est.Rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	if est.Area <= float64(real.Area()) {
		t.Fatalf("upper bound violated at scale: %g <= %d", est.Area, real.Area())
	}
	// Track-count confidence interval brackets the expectation.
	mean, lo, hi, err := prob.TrackInterval(est.Rows, s.DegreeCount, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !(lo <= mean && mean <= hi) || hi <= 0 {
		t.Fatalf("interval broken: %g %g %g", lo, mean, hi)
	}
	// Rent exponent is computable at this scale.
	if _, err := maest.RentExponent(c); err != nil {
		t.Fatal(err)
	}
}
