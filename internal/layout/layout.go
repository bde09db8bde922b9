// Package layout turns placement and routing results into concrete
// module geometry — the "real" areas the estimator is compared
// against.  AssembleStandardCell plays the role of the paper's
// TimberWolf layouts (Table 2); SynthesizeFullCustom stands in for
// the manually created Newkirk & Mathews layouts (Table 1) by
// actually constructing a transistor-row layout and measuring it.
package layout

import (
	"context"
	"errors"
	"fmt"

	"maest/internal/geom"
	"maest/internal/netlist"
	"maest/internal/obs"
	"maest/internal/place"
	"maest/internal/route"
	"maest/internal/tech"
)

// ErrLayout wraps layout failures.
var ErrLayout = errors.New("layout: layout failed")

// Module is a finished module layout's measured geometry.
type Module struct {
	Name   string
	Rows   int
	Width  geom.Lambda
	Height geom.Lambda
	// RowWidths includes inserted feed-through columns.
	RowWidths []geom.Lambda
	// ChannelTracks records each channel's final track count.
	ChannelTracks []int
	// FeedThroughs is the total number of inserted feed-through
	// columns.
	FeedThroughs int
	// WireLength is the placement's half-perimeter wire length.
	WireLength geom.Lambda
}

// Area returns the module's bounding-box area in λ².
func (m *Module) Area() geom.Area { return geom.Mul(m.Width, m.Height) }

// AspectRatio returns width / height.
func (m *Module) AspectRatio() float64 {
	if m.Height == 0 {
		return 0
	}
	return float64(m.Width) / float64(m.Height)
}

// AssembleStandardCell measures the module produced by a placement
// and its routing:
//
//	width  = max over rows of (cell widths + feed-through columns)
//	height = Σ row heights + Σ channel tracks × track pitch
func AssembleStandardCell(pl *place.Placement, rr *route.Result, p *tech.Process) (*Module, error) {
	return assemble(pl, rr, p, p.TrackPitch, p.FeedThroughWidth)
}

// assemble measures the module with explicit channel-track pitch and
// feed-through width: the metal pitch and feed-through cells of
// standard-cell channels, or the tighter poly/diffusion pitch (and
// over-the-device metal crossings, costing no feed-through column)
// that manual full-custom wiring achieves.
func assemble(pl *place.Placement, rr *route.Result, p *tech.Process, pitch, ftWidth geom.Lambda) (*Module, error) {
	if err := pl.Check(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrLayout, err)
	}
	if len(rr.FeedThroughs) != len(pl.Rows) || len(rr.ChannelTracks) != len(pl.Rows)+1 {
		return nil, fmt.Errorf("%w: routing result shape does not match placement (%d rows, %d ft rows, %d channels)",
			ErrLayout, len(pl.Rows), len(rr.FeedThroughs), len(rr.ChannelTracks))
	}
	m := &Module{
		Name:          pl.Circuit.Name,
		Rows:          len(pl.Rows),
		RowWidths:     make([]geom.Lambda, len(pl.Rows)),
		ChannelTracks: append([]int(nil), rr.ChannelTracks...),
		FeedThroughs:  rr.TotalFeedThroughs,
		WireLength:    pl.WireLength(),
	}
	for r := range pl.Rows {
		w := pl.RowWidth(r) + geom.Lambda(rr.FeedThroughs[r])*ftWidth
		m.RowWidths[r] = w
		if w > m.Width {
			m.Width = w
		}
		m.Height += pl.RowHeight(r)
	}
	for _, tracks := range rr.ChannelTracks {
		if tracks > 0 {
			m.Height += geom.Lambda(tracks) * pitch
		}
	}
	if m.Width == 0 || m.Height == 0 {
		return nil, fmt.Errorf("%w: module %q has degenerate size %dx%d",
			ErrLayout, m.Name, m.Width, m.Height)
	}
	return m, nil
}

// LayoutStandardCell is the full ground-truth flow for one row count:
// place (simulated annealing), route with the era-router sharing
// model (TimberWolf 3.2-generation layouts shared tracks weakly in
// single-metal nMOS; see route.Options.MaxShare), and measure, under
// a "layout.sc" span parenting the place and route spans.
func LayoutStandardCell(ctx context.Context, c *netlist.Circuit, p *tech.Process, rows int, seed int64) (m *Module, err error) {
	ctx, sp := obs.Start(ctx, "layout.sc")
	sp.SetString("module", c.Name)
	sp.SetInt("rows", int64(rows))
	defer func() {
		if m != nil {
			sp.SetInt("width", int64(m.Width))
			sp.SetInt("height", int64(m.Height))
		}
		sp.EndErr(err)
	}()
	pl, err := place.Place(ctx, c, p, place.Options{Rows: rows, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrLayout, err)
	}
	rr, err := route.RouteModule(ctx, pl, route.Options{TrackSharing: true, MaxShare: 2})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrLayout, err)
	}
	return AssembleStandardCell(pl, rr, p)
}

// SynthesizeFullCustom constructs a transistor-level layout the way a
// careful manual designer would shape a small module: it sweeps
// candidate row counts, places each with annealing, routes with track
// sharing, and keeps the minimum-area result (ties broken toward
// squareness).  The circuit must be transistor-level.  A "layout.fc"
// span parents one place/route pair per candidate row count.
func SynthesizeFullCustom(ctx context.Context, c *netlist.Circuit, p *tech.Process, seed int64) (m *Module, err error) {
	ctx, sp := obs.Start(ctx, "layout.fc")
	sp.SetString("module", c.Name)
	defer func() {
		if m != nil {
			sp.SetInt("rows", int64(m.Rows))
			sp.SetInt("width", int64(m.Width))
			sp.SetInt("height", int64(m.Height))
		}
		sp.EndErr(err)
	}()
	if c.NumDevices() == 0 {
		return nil, fmt.Errorf("%w: circuit %q has no devices", ErrLayout, c.Name)
	}
	for _, d := range c.Devices {
		dt, err := p.Device(d.Type)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrLayout, err)
		}
		if dt.Class != tech.ClassTransistor {
			return nil, fmt.Errorf("%w: %q is not transistor-level (device %q is a %s)",
				ErrLayout, c.Name, d.Name, dt.Class)
		}
	}
	maxRows := isqrt(c.NumDevices()) + 2
	var best *Module
	for rows := 1; rows <= maxRows; rows++ {
		pl, err := place.Place(ctx, c, p, place.Options{Rows: rows, Seed: seed + int64(rows)})
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrLayout, err)
		}
		// Manual-style full-custom wiring: share tracks and abut
		// adjacent two-pin neighbours (diffusion sharing).
		rr, err := route.RouteModule(ctx, pl, route.Options{TrackSharing: true, AbutAdjacentPairs: true})
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrLayout, err)
		}
		// Manual layouts wire local hops in poly/diffusion at roughly
		// half the metal pitch and cross rows in metal over the
		// devices rather than through feed-through columns.
		m, err := assemble(pl, rr, p, (p.TrackPitch+1)/2, 0)
		if err != nil {
			return nil, err
		}
		if best == nil || m.Area() < best.Area() ||
			(m.Area() == best.Area() && squarer(m, best)) {
			best = m
		}
	}
	return best, nil
}

func squarer(a, b *Module) bool {
	return absf(a.AspectRatio()-1) < absf(b.AspectRatio()-1)
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func isqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}
