package floorplan

import (
	"math"
	"testing"

	"maest/internal/tech"
)

func TestGlobalRouteConservation(t *testing.T) {
	_, _, nets := sampleChip()
	plan := samplePlan(t)
	p := tech.NMOS25()
	res, err := GlobalRoute(nets, plan, p, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.WireLength <= 0 {
		t.Fatal("no wire length")
	}
	// Usage conserves wire length.
	if math.Abs(res.TotalUsage()-res.WireLength) > 1e-6*res.WireLength {
		t.Fatalf("usage %g != wirelength %g", res.TotalUsage(), res.WireLength)
	}
	if res.MaxCongestion <= 0 {
		t.Fatal("no congestion recorded")
	}
	if res.WiringArea != res.WireLength*float64(p.TrackPitch) {
		t.Fatal("wiring area inconsistent")
	}
	// Plan wirelength (HPWL) lower-bounds L-route length.
	if res.WireLength < plan.WireLength-1e-9 {
		t.Fatalf("L-routes %g shorter than HPWL %g", res.WireLength, plan.WireLength)
	}
}

func TestGlobalRouteGridSizes(t *testing.T) {
	_, _, nets := sampleChip()
	plan := samplePlan(t)
	p := tech.NMOS25()
	prevLen := -1.0
	for _, grid := range []int{1, 4, 16} {
		res, err := GlobalRoute(nets, plan, p, grid)
		if err != nil {
			t.Fatalf("grid %d: %v", grid, err)
		}
		if prevLen >= 0 && math.Abs(res.WireLength-prevLen) > 1e-9 {
			t.Fatal("wire length depends on grid size")
		}
		prevLen = res.WireLength
		if len(res.Usage) != grid {
			t.Fatalf("grid %d: usage rows %d", grid, len(res.Usage))
		}
	}
}

func TestGlobalRouteErrors(t *testing.T) {
	_, _, nets := sampleChip()
	plan := samplePlan(t)
	p := tech.NMOS25()
	if _, err := GlobalRoute(nets, plan, p, 0); err == nil {
		t.Error("grid 0 accepted")
	}
	if _, err := GlobalRoute(nets, &Plan{}, p, 4); err == nil {
		t.Error("degenerate plan accepted")
	}
	// Net referencing an unplaced module.
	_, _, ghost := sampleChip()
	ghost[0].Pins[0].Module = "ghost"
	if _, err := GlobalRoute(ghost, plan, p, 4); err == nil {
		t.Error("unplaced module accepted")
	}
}
