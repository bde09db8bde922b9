package report

import (
	"context"
	"fmt"
	"math"

	"maest/internal/baseline"
	"maest/internal/engine"
	"maest/internal/floorplan"
	"maest/internal/gen"
	"maest/internal/layout"
	"maest/internal/netlist"
	"maest/internal/tech"
)

// The §1/§7 claim: "more accurate module aspect ratio estimates will
// significantly reduce the number of floor planning iterations".
// IterationExperiment quantifies it: floor-plan a chip from some
// shape source, then actually lay the modules out; any module whose
// real shape disagrees with its planned slot beyond the tolerance
// forces a re-plan with corrected shapes.  The iteration count is the
// number of plans until every module fits.

// ShapeSource produces candidate shapes for a module — the knob the
// experiment varies (estimator vs. naive guess).
type ShapeSource func(c *netlist.Circuit, p *tech.Process) ([]floorplan.Shape, error)

// EstimatorShapes is the paper's estimator in its §7-extended
// configuration (track sharing on, so the shapes track what a real
// sharing router produces): standard-cell shape candidates across row
// counts.
func EstimatorShapes(c *netlist.Circuit, p *tech.Process) ([]floorplan.Shape, error) {
	pl, err := engine.Compile(c, p)
	if err != nil {
		return nil, err
	}
	res, err := pl.Estimate(context.Background(), engine.WithTrackSharing(true))
	if err != nil {
		return nil, err
	}
	var out []floorplan.Shape
	for _, sc := range res.SCCandidates {
		out = append(out, floorplan.Shape{W: sc.Width, H: sc.Height, Rows: sc.Rows})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("floorplan: module %q produced no shapes", c.Name)
	}
	return out, nil
}

// NaiveShapes is the designer rule of thumb the estimator replaces: a
// single square of active area × factor.
func NaiveShapes(factor float64) ShapeSource {
	return func(c *netlist.Circuit, p *tech.Process) ([]floorplan.Shape, error) {
		s, err := netlist.Gather(c, p)
		if err != nil {
			return nil, err
		}
		a, err := baseline.Naive(s, factor)
		if err != nil {
			return nil, err
		}
		side := math.Sqrt(a)
		return []floorplan.Shape{{W: side, H: side}}, nil
	}
}

// ExperimentResult reports one experiment run.
type ExperimentResult struct {
	// Iterations is the number of floor plans built until all
	// modules fit (≥ 1); it equals MaxIters+1 when the run did not
	// converge.
	Iterations int
	Converged  bool
	// FinalPlan is the accepted (or last) plan.
	FinalPlan *floorplan.Plan
	// Misfits[i] is the number of modules that failed the fit check
	// after plan i.
	Misfits []int
}

// ExperimentOptions tunes the iteration experiment.
type ExperimentOptions struct {
	// Tolerance is the acceptable relative mismatch between the
	// planned slot and the real layout (both directions).  Zero
	// selects 0.25.
	Tolerance float64
	// MaxIters caps the loop.  Zero selects 12.
	MaxIters int
	// Seed drives the layout engine.
	Seed int64
}

// IterationExperiment runs the re-planning loop for one chip and
// shape source.
func IterationExperiment(chip *gen.Chip, p *tech.Process, src ShapeSource, opts ExperimentOptions) (*ExperimentResult, error) {
	tol := opts.Tolerance
	if tol == 0 {
		tol = 0.25
	}
	maxIters := opts.MaxIters
	if maxIters == 0 {
		maxIters = 12
	}

	// Current shape belief per module.
	shapes := make(map[string][]floorplan.Shape, len(chip.Modules))
	circuits := make(map[string]*netlist.Circuit, len(chip.Modules))
	for _, c := range chip.Modules {
		ss, err := src(c, p)
		if err != nil {
			return nil, fmt.Errorf("floorplan: shapes for %q: %v", c.Name, err)
		}
		shapes[c.Name] = ss
		circuits[c.Name] = c
	}
	// Real layouts are deterministic; cache by (module, rows).
	type layKey struct {
		name string
		rows int
	}
	layCache := map[layKey]*layout.Module{}
	realize := func(name string, rows int) (*layout.Module, error) {
		k := layKey{name, rows}
		if m, ok := layCache[k]; ok {
			return m, nil
		}
		m, err := layout.LayoutStandardCell(context.TODO(), circuits[name], p, rows, opts.Seed)
		if err != nil {
			return nil, err
		}
		layCache[k] = m
		return m, nil
	}

	nets := make([]floorplan.Net, len(chip.GlobalNets))
	for i, gn := range chip.GlobalNets {
		pins := make([]floorplan.NetPin, len(gn.Pins))
		for j, pin := range gn.Pins {
			pins[j] = floorplan.NetPin{Module: pin.Module, Port: pin.Port}
		}
		nets[i] = floorplan.Net{Name: gn.Name, Pins: pins}
	}

	res := &ExperimentResult{}
	mods := make([]floorplan.PlanModule, len(chip.Modules))
	for iter := 1; iter <= maxIters; iter++ {
		res.Iterations = iter
		for i, c := range chip.Modules {
			mods[i] = floorplan.PlanModule{Name: c.Name, Shapes: shapes[c.Name]}
		}
		// The deterministic greedy pass: each iteration re-plans from
		// the corrected shapes alone.
		plan, err := floorplan.PlanModules(context.Background(), chip.Name, mods, nets, floorplan.WithBudget(0))
		if err != nil {
			return nil, err
		}
		res.FinalPlan = plan

		misfits := 0
		for _, b := range plan.Blocks {
			chosen := shapes[b.Name][b.ShapeIndex]
			rows := chosen.Rows
			if rows < 1 {
				rows = bestRowsForShape(circuits[b.Name], p, b.W, b.H)
			}
			real, err := realize(b.Name, rows)
			if err != nil {
				return nil, err
			}
			if fits(b, real, tol) {
				continue
			}
			misfits++
			// Correct the belief: the measured shape at this and
			// neighbouring row counts.
			var corrected []floorplan.Shape
			for _, r := range []int{rows - 1, rows, rows + 1} {
				if r < 1 {
					continue
				}
				m, err := realize(b.Name, r)
				if err != nil {
					return nil, err
				}
				corrected = append(corrected, floorplan.Shape{W: float64(m.Width), H: float64(m.Height), Rows: r})
			}
			shapes[b.Name] = corrected
		}
		res.Misfits = append(res.Misfits, misfits)
		if misfits == 0 {
			res.Converged = true
			return res, nil
		}
	}
	res.Iterations = maxIters + 1
	return res, nil
}

// fits accepts a slot when the real layout neither overflows it nor
// leaves more than the tolerated dead space.
func fits(b floorplan.Placed, real *layout.Module, tol float64) bool {
	rw, rh := float64(real.Width), float64(real.Height)
	if rw > b.W*(1+tol) || rh > b.H*(1+tol) {
		return false
	}
	slotArea, realArea := b.W*b.H, rw*rh
	return slotArea <= realArea*(1+tol)*(1+tol)
}

// bestRowsForShape picks the row count whose quick shape estimate
// (cell width / rows × stacked rows) comes closest to the target
// aspect ratio.
func bestRowsForShape(c *netlist.Circuit, p *tech.Process, w, h float64) int {
	target := 1.0
	if h > 0 {
		target = w / h
	}
	s, err := netlist.Gather(c, p)
	if err != nil || s.N == 0 {
		return 1
	}
	totalW := s.AvgWidth() * float64(s.N)
	best, bestDiff := 1, math.Inf(1)
	for rows := 1; rows <= 12; rows++ {
		width := totalW / float64(rows)
		height := float64(rows) * float64(p.RowHeight) * 2 // rows + channels
		ar := width / height
		diff := math.Abs(math.Log(ar / target))
		if diff < bestDiff {
			best, bestDiff = rows, diff
		}
	}
	return best
}
