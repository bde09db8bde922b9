package report

import (
	"testing"

	"maest/internal/floorplan"
	"maest/internal/gen"
	"maest/internal/geom"
	"maest/internal/layout"
	"maest/internal/tech"
)

func testChip(t testing.TB, modules int, seed int64) *gen.Chip {
	t.Helper()
	p := tech.NMOS25()
	chip, err := gen.RandomChip(gen.ChipConfig{
		Name: "x", Modules: modules, MinGates: 20, MaxGates: 50, Seed: seed,
	}, p)
	if err != nil {
		t.Fatal(err)
	}
	return chip
}

func TestEstimatorShapesSource(t *testing.T) {
	p := tech.NMOS25()
	chip := testChip(t, 3, 1)
	ss, err := EstimatorShapes(chip.Modules[0], p)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) == 0 {
		t.Fatal("no shapes")
	}
	for _, s := range ss {
		if s.W <= 0 || s.H <= 0 || s.Rows < 1 {
			t.Fatalf("bad shape %+v", s)
		}
	}
}

func TestNaiveShapesSource(t *testing.T) {
	p := tech.NMOS25()
	chip := testChip(t, 3, 1)
	ss, err := NaiveShapes(1.0)(chip.Modules[0], p)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 1 || ss[0].W != ss[0].H {
		t.Fatalf("naive shapes = %+v", ss)
	}
}

func TestIterationExperimentConvergesWithEstimator(t *testing.T) {
	p := tech.NMOS25()
	chip := testChip(t, 4, 7)
	res, err := IterationExperiment(chip, p, EstimatorShapes, ExperimentOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("estimator-driven plan did not converge: misfits %v", res.Misfits)
	}
	if res.FinalPlan == nil || len(res.FinalPlan.Blocks) != 4 {
		t.Fatal("missing final plan")
	}
	if len(res.Misfits) != res.Iterations {
		t.Fatalf("misfit history %v vs iterations %d", res.Misfits, res.Iterations)
	}
}

func TestEstimatorBeatsNaiveOnIterations(t *testing.T) {
	// The paper's headline claim (E10): accurate estimates reduce
	// floor-planning iterations.  The naive active-area guess
	// underestimates badly (no routing area at all), so its plans
	// must be corrected at least as often as the estimator's, and
	// strictly more in aggregate over several chips.
	p := tech.NMOS25()
	totalEst, totalNaive := 0, 0
	for seed := int64(1); seed <= 3; seed++ {
		chip := testChip(t, 4, seed)
		est, err := IterationExperiment(chip, p, EstimatorShapes, ExperimentOptions{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		naive, err := IterationExperiment(chip, p, NaiveShapes(1.0), ExperimentOptions{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if naive.Iterations < est.Iterations {
			t.Fatalf("seed %d: naive converged faster (%d < %d)",
				seed, naive.Iterations, est.Iterations)
		}
		totalEst += est.Iterations
		totalNaive += naive.Iterations
	}
	if totalNaive <= totalEst {
		t.Fatalf("naive should need more iterations overall: naive=%d est=%d",
			totalNaive, totalEst)
	}
}

func TestFitsTolerance(t *testing.T) {
	slot := floorplan.Placed{W: 100, H: 100}
	mk := func(w, h geom.Lambda) *layout.Module { return &layout.Module{Width: w, Height: h} }
	cases := []struct {
		name string
		m    *layout.Module
		want bool
	}{
		{"exact", mk(100, 100), true},
		{"slightly larger", mk(110, 110), true},
		{"overflow width", mk(130, 100), false},
		{"overflow height", mk(100, 130), false},
		{"slightly smaller", mk(90, 90), true},
		{"too much dead space", mk(50, 50), false},
	}
	for _, c := range cases {
		if got := fits(slot, c.m, 0.25); got != c.want {
			t.Errorf("%s: fits = %v, want %v", c.name, got, c.want)
		}
	}
}
