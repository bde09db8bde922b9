package netlist

import (
	"fmt"
	"sort"

	"maest/internal/geom"
	"maest/internal/tech"
)

// Stats gathers exactly the quantities §4 of the paper parameterizes
// the estimator with:
//
//	N   the number of devices
//	H   the number of (routable, D ≥ 2) nets
//	Wᵢ  the width of each distinct device type
//	Xᵢ  the number of devices sharing that width
//	yᵢ  the number of nets having i components
//
// plus the derived averages W_avg (Eq. 1) and H_avg, total exact
// device area, and the port count that drives the §5 aspect-ratio
// control criterion.
type Stats struct {
	// CircuitName records which module the stats describe.
	CircuitName string
	// N is the device count.
	N int
	// H is the number of routable nets: nets connecting at least two
	// distinct devices.  Single-pin nets carry no interconnect and
	// are excluded (counted in DegenerateNets instead).
	H int
	// DegenerateNets counts nets with fewer than two distinct
	// devices.
	DegenerateNets int
	// NumPorts is the number of external I/O ports.
	NumPorts int
	// WidthCount maps each distinct device width Wᵢ to its
	// multiplicity Xᵢ.
	WidthCount map[geom.Lambda]int
	// DegreeCount maps each net component count D to yᵢ, the number
	// of nets with that many components.  Only D ≥ 2 appears.
	DegreeCount map[int]int
	// MaxDegree is the largest net component count (0 when H = 0).
	MaxDegree int
	// ExactDeviceArea is Σ width×height over devices, in λ².
	ExactDeviceArea geom.Area
	// SumWidth and SumHeight accumulate device dimensions for the
	// average-device model of §4.2.
	SumWidth, SumHeight geom.Lambda
}

// AvgWidth returns W_avg = Σ XᵢWᵢ / N (Eq. 1) as a float to avoid
// compounding rounding before it enters the area formulas.
func (s *Stats) AvgWidth() float64 { return mean(s.SumWidth, s.N) }

// AvgHeight returns h_avg, the average device height used by the
// Full-Custom average-area mode (Eq. 13).
func (s *Stats) AvgHeight() float64 { return mean(s.SumHeight, s.N) }

// AvgDeviceArea returns W_avg × h_avg in λ².
func (s *Stats) AvgDeviceArea() float64 { return s.AvgWidth() * s.AvgHeight() }

func mean(sum geom.Lambda, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// FCStats gathers exactly what the §4.2 Full-Custom model (Eq. 13)
// reads: N, the device dimension sums, the port count, and each net's
// component count D with the summed width of those components.  Nets
// keep the circuit's order: Eq. 13's wire term is a floating-point
// sum, so its bits depend on the order it visits them.
type FCStats struct {
	// CircuitName records which module the stats describe.
	CircuitName string
	// N is the device count.
	N int
	// NumPorts is the number of external I/O ports.
	NumPorts int
	// ExactDeviceArea is Σ width×height over devices, in λ².
	ExactDeviceArea geom.Area
	// SumWidth and SumHeight accumulate device dimensions for the
	// average-device mode.
	SumWidth, SumHeight geom.Lambda
	// Nets holds every net's Eq. 13 inputs, in circuit net order.
	Nets []FCNet
}

// FCNet is one net's Eq. 13 input.
type FCNet struct {
	// D is the number of distinct devices on the net.
	D int
	// SumWidth is the total width of those devices.
	SumWidth geom.Lambda
}

// AvgWidth returns W_avg, as Stats.AvgWidth does.
func (s *FCStats) AvgWidth() float64 { return mean(s.SumWidth, s.N) }

// AvgDeviceArea returns W_avg × h_avg in λ², as Stats.AvgDeviceArea
// does.
func (s *FCStats) AvgDeviceArea() float64 { return s.AvgWidth() * mean(s.SumHeight, s.N) }

// Degrees returns the distinct net component counts in ascending
// order, for deterministic iteration over yᵢ.
func (s *Stats) Degrees() []int {
	ds := make([]int, 0, len(s.DegreeCount))
	for d := range s.DegreeCount {
		ds = append(ds, d)
	}
	sort.Ints(ds)
	return ds
}

// Widths returns the distinct device widths in ascending order.
func (s *Stats) Widths() []geom.Lambda {
	ws := make([]geom.Lambda, 0, len(s.WidthCount))
	for w := range s.WidthCount {
		ws = append(ws, w)
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
	return ws
}

// Gather scans the circuit against the process database, resolving
// device dimensions, and returns the estimator inputs.  It fails if a
// device instance references a type the process cannot fabricate —
// the schematic and process database are the estimator's two input
// files (Fig. 1), and a mismatch between them is a user error worth
// reporting precisely.
func Gather(c *Circuit, p *tech.Process) (*Stats, error) {
	s := &Stats{
		CircuitName: c.Name,
		N:           len(c.Devices),
		NumPorts:    len(c.Ports),
		WidthCount:  map[geom.Lambda]int{},
		DegreeCount: map[int]int{},
	}
	for _, dev := range c.Devices {
		dt, err := p.Device(dev.Type)
		if err != nil {
			return nil, fmt.Errorf("netlist: device %q: %w", dev.Name, err)
		}
		s.WidthCount[dt.Width]++
		s.SumWidth += dt.Width
		s.SumHeight += dt.Height
		s.ExactDeviceArea += dt.Area()
	}
	for _, n := range c.Nets {
		d := n.Degree()
		if d < 2 {
			s.DegenerateNets++
			continue
		}
		s.H++
		s.DegreeCount[d]++
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
	}
	return s, nil
}

// GatherFC scans a transistor-level circuit for the Eq. 13 inputs,
// failing as Gather does on a device type the process lacks.
func GatherFC(c *Circuit, p *tech.Process) (*FCStats, error) {
	widths, heights, err := DeviceDims(c, p)
	if err != nil {
		return nil, err
	}
	s := &FCStats{
		CircuitName: c.Name,
		N:           len(c.Devices),
		NumPorts:    len(c.Ports),
		Nets:        make([]FCNet, len(c.Nets)),
	}
	for i, w := range widths {
		s.SumWidth += w
		s.SumHeight += heights[i]
		s.ExactDeviceArea += geom.Mul(w, heights[i])
	}
	for i, n := range c.Nets {
		s.Nets[i].D = n.Degree()
		for _, dev := range n.Devices {
			s.Nets[i].SumWidth += widths[dev.Index]
		}
	}
	return s, nil
}

// DeviceDims resolves the width/height of every device instance in
// order; the layout engines use it to avoid re-resolving types per
// operation.
func DeviceDims(c *Circuit, p *tech.Process) ([]geom.Lambda, []geom.Lambda, error) {
	ws := make([]geom.Lambda, len(c.Devices))
	hs := make([]geom.Lambda, len(c.Devices))
	for i, dev := range c.Devices {
		dt, err := p.Device(dev.Type)
		if err != nil {
			return nil, nil, fmt.Errorf("netlist: device %q: %w", dev.Name, err)
		}
		ws[i] = dt.Width
		hs[i] = dt.Height
	}
	return ws, hs, nil
}
