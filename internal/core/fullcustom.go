package core

import (
	"math"

	"maest/internal/netlist"
	"maest/internal/tech"
)

// FCMode selects which device-area model Eq. 13 runs with; the paper
// performs the estimation "first ... using exact device areas and
// again ... using the average device area" (Table 1 reports both).
type FCMode int

const (
	// FCExactAreas uses each device type's exact footprint.
	FCExactAreas FCMode = iota
	// FCAverageAreas uses N × W_avg × h_avg.
	FCAverageAreas
)

// String implements fmt.Stringer.
func (m FCMode) String() string {
	if m == FCExactAreas {
		return "exact"
	}
	return "average"
}

// FCEstimate is the Full-Custom estimation result (lengths in λ,
// areas in λ²).
type FCEstimate struct {
	Module string
	Mode   FCMode
	// DeviceArea is the active-device contribution.
	DeviceArea float64
	// WireArea is Σ Aⱼ, the per-net minimum interconnection areas.
	WireArea float64
	// Area is the Eq. 13 total.
	Area float64
	// Width and Height realize the §5 aspect-ratio algorithm: 1:1
	// unless the port perimeter forces a stretch.
	Width, Height float64
	// AspectRatio is Width / Height.
	AspectRatio float64
}

// EstimateFullCustom runs the §4.2 minimum-interconnection-area model
// on a transistor-level circuit.  Per-net interconnect follows the
// paper's two-row/one-track-channel model: the net's D devices are
// assumed split into two rows of ⌈D/2⌉ with a single-track channel
// between them, so
//
//	Aⱼ = trackPitch × ⌈D/2⌉ × w̄(net),
//
// where w̄ is the mean width of the net's devices (exact mode) or the
// module-wide W_avg (average mode).  Two-component nets contribute
// nothing — the two devices abut and connect directly, matching the
// Table 1 footnote ("All nets in this module were two-component nets,
// and therefore contributed nothing to wire area").
//
// It gathers the circuit's netlist.FCStats and runs
// EstimateFullCustomStats on them.
func EstimateFullCustom(c *netlist.Circuit, p *tech.Process, mode FCMode) (*FCEstimate, error) {
	if err := p.Validate(); err != nil {
		return nil, estErr("full-custom %q: %v", c.Name, err)
	}
	s, err := netlist.GatherFC(c, p)
	if err != nil {
		return nil, estErr("full-custom %q: %v", c.Name, err)
	}
	return EstimateFullCustomStats(s, p, mode)
}

// EstimateFullCustomStats is the Eq. 13 kernel over gathered
// statistics, with p already validated.  The engine feeds it straight
// from the cell expander (cells.ExpandStats), so a gate-level module
// is estimated without building its transistor netlist.
func EstimateFullCustomStats(s *netlist.FCStats, p *tech.Process, mode FCMode) (*FCEstimate, error) {
	if mode != FCExactAreas && mode != FCAverageAreas {
		return nil, estErr("full-custom %q: unknown mode %d", s.CircuitName, int(mode))
	}
	if s.N == 0 {
		return nil, estErr("full-custom %q: no devices", s.CircuitName)
	}

	deviceArea := float64(s.ExactDeviceArea)
	if mode == FCAverageAreas {
		deviceArea = float64(s.N) * s.AvgDeviceArea()
	}

	wire := 0.0
	pitch := float64(p.TrackPitch)
	for _, net := range s.Nets {
		d := net.D
		if d <= 2 {
			continue
		}
		var w float64
		if mode == FCExactAreas {
			w = float64(net.SumWidth) / float64(d)
		} else {
			w = s.AvgWidth()
		}
		rowLen := math.Ceil(float64(d)/2) * w
		wire += pitch * rowLen
	}

	total := deviceArea + wire
	width, height := fitPorts(total, float64(s.NumPorts)*float64(p.PortPitch))
	est := &FCEstimate{
		Module:     s.CircuitName,
		Mode:       mode,
		DeviceArea: deviceArea,
		WireArea:   wire,
		Area:       total,
		Width:      width,
		Height:     height,
	}
	if height > 0 {
		est.AspectRatio = width / height
	}
	return est, nil
}

// fitPorts implements the §5 Full-Custom aspect-ratio algorithm:
// assume 1:1 (side = √area); if the total port length exceeds the
// side, stretch the module so one edge carries all ports (width =
// port length, height = area / width).
func fitPorts(area, portLen float64) (width, height float64) {
	if area <= 0 {
		return 0, 0
	}
	side := math.Sqrt(area)
	if portLen <= side {
		return side, side
	}
	return portLen, area / portLen
}
