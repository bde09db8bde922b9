package floorplan

import (
	"fmt"
	"math"

	"maest/internal/tech"
)

// Global routing: after the floor plan fixes the module slots, the
// chip-level nets still need wiring area between the modules.  The
// paper's database carries exactly these "global interconnections
// for the whole chip" (§3); GlobalRoute estimates their demand on a
// coarse congestion grid so a floor plan can be judged by wiring
// feasibility, not area alone.

// GlobalRouteResult reports the chip-level wiring estimate.
type GlobalRouteResult struct {
	// Grid is the bin count per axis.
	Grid int
	// WireLength is the total routed length in λ (L-shaped routes
	// over a star topology per net).
	WireLength float64
	// Usage[i][j] is the wire length crossing bin (i, j).
	Usage [][]float64
	// MaxCongestion is the worst bin's demanded tracks divided by
	// the bin's track capacity at the process pitch.
	MaxCongestion float64
	// WiringArea is WireLength × track pitch — the extra area a
	// channel-based chip assembly would add between modules.
	WiringArea float64
}

// GlobalRoute routes every global net over the plan with L-shaped
// (one-bend) star routes from each net's first pin, accumulating
// usage on a grid×grid congestion map.
func GlobalRoute(nets []Net, plan *Plan, p *tech.Process, grid int) (*GlobalRouteResult, error) {
	if grid < 1 {
		return nil, fmt.Errorf("%w: grid %d < 1", ErrPlan, grid)
	}
	if plan.Width <= 0 || plan.Height <= 0 {
		return nil, fmt.Errorf("%w: degenerate plan %gx%g", ErrPlan, plan.Width, plan.Height)
	}
	res := &GlobalRouteResult{Grid: grid}
	res.Usage = make([][]float64, grid)
	for i := range res.Usage {
		res.Usage[i] = make([]float64, grid)
	}
	binW := plan.Width / float64(grid)
	binH := plan.Height / float64(grid)

	center := func(name string) (float64, float64, bool) {
		b := plan.BlockByName(name)
		if b == nil {
			return 0, 0, false
		}
		return b.X + b.W/2, b.Y + b.H/2, true
	}
	for _, net := range nets {
		var sx, sy float64
		first := true
		for _, pin := range net.Pins {
			x, y, ok := center(pin.Module)
			if !ok {
				return nil, fmt.Errorf("%w: net %q references unplaced module %q",
					ErrPlan, net.Name, pin.Module)
			}
			if first {
				sx, sy = x, y
				first = false
				continue
			}
			// L-route: horizontal at sy from sx to x, then vertical
			// at x from sy to y.
			res.addSegment(sx, sy, x, sy, binW, binH)
			res.addSegment(x, sy, x, y, binW, binH)
			res.WireLength += math.Abs(x-sx) + math.Abs(y-sy)
		}
	}
	// Congestion: a bin offers roughly binW/pitch horizontal tracks
	// across binH of height; demanded tracks in a bin ≈ usage/binW
	// horizontal-equivalent wires, each at one pitch.
	pitch := float64(p.TrackPitch)
	capacity := binW * binH / pitch // total wire length a bin can host
	if capacity > 0 {
		for i := range res.Usage {
			for j := range res.Usage[i] {
				cong := res.Usage[i][j] / capacity
				if cong > res.MaxCongestion {
					res.MaxCongestion = cong
				}
			}
		}
	}
	res.WiringArea = res.WireLength * pitch
	return res, nil
}

// addSegment spreads an axis-aligned segment's length over the bins
// it crosses.
func (r *GlobalRouteResult) addSegment(x0, y0, x1, y1, binW, binH float64) {
	if x0 == x1 && y0 == y1 {
		return
	}
	steps := 32 // fine enough for coarse congestion maps
	dx := (x1 - x0) / float64(steps)
	dy := (y1 - y0) / float64(steps)
	segLen := math.Abs(x1-x0) + math.Abs(y1-y0)
	per := segLen / float64(steps)
	for s := 0; s < steps; s++ {
		x := x0 + dx*(float64(s)+0.5)
		y := y0 + dy*(float64(s)+0.5)
		i := clamp(int(x/binW), 0, r.Grid-1)
		j := clamp(int(y/binH), 0, r.Grid-1)
		r.Usage[i][j] += per
	}
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// TotalUsage sums the congestion map; it equals WireLength by
// construction (verified by tests).
func (r *GlobalRouteResult) TotalUsage() float64 {
	sum := 0.0
	for i := range r.Usage {
		for j := range r.Usage[i] {
			sum += r.Usage[i][j]
		}
	}
	return sum
}
