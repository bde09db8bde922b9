// Package db is the estimate database of Fig. 1: the module area and
// aspect-ratio records, together with the chip's global module
// interconnections, that the estimator writes and the floor planner
// reads.  Records serialize to a line-oriented text format so the two
// tools can run as separate processes, as in the paper's CAD flow.
package db

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"maest/internal/core"
)

// ErrDB wraps database format errors.
var ErrDB = errors.New("db: invalid database")

// Shape is one candidate realization of a module.
type Shape struct {
	// Label identifies the estimate source, e.g. "sc-rows3",
	// "fc-exact".
	Label string
	// Rows is the standard-cell row count (0 for full-custom
	// shapes).
	Rows int
	// W, H are the estimated dimensions in λ.
	W, H float64
}

// Area returns the shape's area in λ².
func (s Shape) Area() float64 { return s.W * s.H }

// Aspect returns W/H (0 for degenerate shapes).
func (s Shape) Aspect() float64 {
	if s.H == 0 {
		return 0
	}
	return s.W / s.H
}

// Module is one module's estimate record.
type Module struct {
	Name    string
	Devices int
	Nets    int
	Ports   int
	Shapes  []Shape
	// Congestion optionally summarizes the module's congestion map
	// (internal/congest) for the floor planner: a planner packing
	// modules can keep high-overflow modules away from each other and
	// from the chip's routing-dense regions.
	Congestion *Congestion
}

// Congestion is the floor-planner-facing summary of a congestion map.
type Congestion struct {
	// Model names the demand accounting ("occupancy" or "crossing").
	Model string
	// Rows is the row (or grid-row) count the map was analyzed at.
	Rows int
	// PeakUtil is the highest channel demand/capacity ratio.
	PeakUtil float64
	// PeakOverflow is the highest channel P(tracks > capacity).
	PeakOverflow float64
	// HotChannel is the hottest channel index (-1 when demand-free).
	HotChannel int
	// ExpectedFeeds is the total expected feed-through count.
	ExpectedFeeds float64
}

// GlobalNet is a chip-level net connecting module ports.
type GlobalNet struct {
	Name string
	Pins []GlobalPin
}

// GlobalPin is one endpoint of a global net.
type GlobalPin struct {
	Module, Port string
}

// Database is the full floor-planner input.
type Database struct {
	Chip    string
	Modules []Module
	Nets    []GlobalNet
}

// ModuleByName returns the named module record, or nil.
func (d *Database) ModuleByName(name string) *Module {
	for i := range d.Modules {
		if d.Modules[i].Name == name {
			return &d.Modules[i]
		}
	}
	return nil
}

// FromResult converts an estimator pipeline result into a module
// record carrying every candidate shape: the standard-cell candidates
// (one per row count) and both full-custom modes.
func FromResult(res *core.Result) Module {
	m := Module{
		Name:    res.Module,
		Devices: res.Stats.N,
		Nets:    res.Stats.H,
		Ports:   res.Stats.NumPorts,
	}
	for _, sc := range res.SCCandidates {
		m.Shapes = append(m.Shapes, Shape{
			Label: fmt.Sprintf("sc-rows%d", sc.Rows),
			Rows:  sc.Rows,
			W:     sc.Width,
			H:     sc.Height,
		})
	}
	if res.SC != nil && len(m.Shapes) == 0 {
		m.Shapes = append(m.Shapes, Shape{
			Label: fmt.Sprintf("sc-rows%d", res.SC.Rows),
			Rows:  res.SC.Rows,
			W:     res.SC.Width,
			H:     res.SC.Height,
		})
	}
	if res.FCExact != nil {
		m.Shapes = append(m.Shapes, Shape{Label: "fc-exact", W: res.FCExact.Width, H: res.FCExact.Height})
	}
	if res.FCAverage != nil {
		m.Shapes = append(m.Shapes, Shape{Label: "fc-average", W: res.FCAverage.Width, H: res.FCAverage.Height})
	}
	return m
}

// Write serializes the database.
func Write(w io.Writer, d *Database) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "chip %s\n", d.Chip)
	for _, m := range d.Modules {
		fmt.Fprintf(bw, "module %s %d %d %d\n", m.Name, m.Devices, m.Nets, m.Ports)
		for _, s := range m.Shapes {
			fmt.Fprintf(bw, "shape %s %d %.3f %.3f\n", s.Label, s.Rows, s.W, s.H)
		}
		if c := m.Congestion; c != nil {
			fmt.Fprintf(bw, "congest %s %d %.4f %.4f %d %.3f\n",
				c.Model, c.Rows, c.PeakUtil, c.PeakOverflow, c.HotChannel, c.ExpectedFeeds)
		}
	}
	for _, n := range d.Nets {
		fmt.Fprintf(bw, "net %s", n.Name)
		for _, pin := range n.Pins {
			fmt.Fprintf(bw, " %s.%s", pin.Module, pin.Port)
		}
		fmt.Fprintln(bw)
	}
	fmt.Fprintln(bw, "end")
	return bw.Flush()
}

// Read parses a database written by Write.
func Read(r io.Reader) (*Database, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var (
		d      *Database
		line   int
		closed bool
	)
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if d == nil && fields[0] != "chip" {
			return nil, fmt.Errorf("%w: line %d: %q before chip header", ErrDB, line, fields[0])
		}
		if closed {
			return nil, fmt.Errorf("%w: line %d: content after 'end'", ErrDB, line)
		}
		switch fields[0] {
		case "chip":
			if d != nil {
				return nil, fmt.Errorf("%w: line %d: duplicate chip header", ErrDB, line)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("%w: line %d: want 'chip <name>'", ErrDB, line)
			}
			d = &Database{Chip: fields[1]}
		case "module":
			if len(fields) != 5 {
				return nil, fmt.Errorf("%w: line %d: want 'module <name> <devices> <nets> <ports>'", ErrDB, line)
			}
			nums, err := atois(fields[2:], line)
			if err != nil {
				return nil, err
			}
			d.Modules = append(d.Modules, Module{
				Name: fields[1], Devices: nums[0], Nets: nums[1], Ports: nums[2],
			})
		case "shape":
			if len(d.Modules) == 0 {
				return nil, fmt.Errorf("%w: line %d: shape before any module", ErrDB, line)
			}
			if len(fields) != 5 {
				return nil, fmt.Errorf("%w: line %d: want 'shape <label> <rows> <w> <h>'", ErrDB, line)
			}
			rows, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("%w: line %d: bad rows %q", ErrDB, line, fields[2])
			}
			wv, err1 := strconv.ParseFloat(fields[3], 64)
			hv, err2 := strconv.ParseFloat(fields[4], 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("%w: line %d: bad shape dimensions", ErrDB, line)
			}
			mod := &d.Modules[len(d.Modules)-1]
			mod.Shapes = append(mod.Shapes, Shape{Label: fields[1], Rows: rows, W: wv, H: hv})
		case "congest":
			if len(d.Modules) == 0 {
				return nil, fmt.Errorf("%w: line %d: congest before any module", ErrDB, line)
			}
			if len(fields) != 7 {
				return nil, fmt.Errorf("%w: line %d: want 'congest <model> <rows> <peakutil> <peakoverflow> <hotchannel> <expfeeds>'", ErrDB, line)
			}
			rows, err1 := strconv.Atoi(fields[2])
			hot, err2 := strconv.Atoi(fields[5])
			util, err3 := strconv.ParseFloat(fields[3], 64)
			over, err4 := strconv.ParseFloat(fields[4], 64)
			feeds, err5 := strconv.ParseFloat(fields[6], 64)
			if err1 != nil || err2 != nil || err3 != nil || err4 != nil || err5 != nil {
				return nil, fmt.Errorf("%w: line %d: bad congest fields", ErrDB, line)
			}
			mod := &d.Modules[len(d.Modules)-1]
			if mod.Congestion != nil {
				return nil, fmt.Errorf("%w: line %d: duplicate congest for module %q", ErrDB, line, mod.Name)
			}
			mod.Congestion = &Congestion{
				Model: fields[1], Rows: rows, PeakUtil: util,
				PeakOverflow: over, HotChannel: hot, ExpectedFeeds: feeds,
			}
		case "net":
			if len(fields) < 3 {
				return nil, fmt.Errorf("%w: line %d: want 'net <name> <mod.port>...'", ErrDB, line)
			}
			n := GlobalNet{Name: fields[1]}
			for _, pin := range fields[2:] {
				mod, port, ok := strings.Cut(pin, ".")
				if !ok || mod == "" || port == "" {
					return nil, fmt.Errorf("%w: line %d: bad pin %q", ErrDB, line, pin)
				}
				n.Pins = append(n.Pins, GlobalPin{Module: mod, Port: port})
			}
			d.Nets = append(d.Nets, n)
		case "end":
			closed = true
		default:
			return nil, fmt.Errorf("%w: line %d: unknown directive %q", ErrDB, line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%w: read: %v", ErrDB, err)
	}
	if d == nil {
		return nil, fmt.Errorf("%w: empty input", ErrDB)
	}
	if !closed {
		return nil, fmt.Errorf("%w: missing 'end'", ErrDB)
	}
	return d, Validate(d)
}

// Validate checks referential integrity — every net pin must reference
// an existing module, and every module must carry at least one shape —
// and that every size and congestion figure is a finite number in its
// range.  The text format parses NaN and ±Inf like any other float, so
// this is where they are refused.
func Validate(d *Database) error {
	names := make(map[string]bool, len(d.Modules))
	for _, m := range d.Modules {
		if names[m.Name] {
			return fmt.Errorf("%w: duplicate module %q", ErrDB, m.Name)
		}
		names[m.Name] = true
		if len(m.Shapes) == 0 {
			return fmt.Errorf("%w: module %q has no shapes", ErrDB, m.Name)
		}
		for _, s := range m.Shapes {
			if !(s.W > 0 && s.H > 0) || math.IsInf(s.W, 0) || math.IsInf(s.H, 0) {
				return fmt.Errorf("%w: module %q shape %q size %gx%g is not positive and finite", ErrDB, m.Name, s.Label, s.W, s.H)
			}
		}
		if c := m.Congestion; c != nil {
			if c.Rows < 1 {
				return fmt.Errorf("%w: module %q congest rows %d < 1", ErrDB, m.Name, c.Rows)
			}
			if !(c.PeakOverflow >= 0 && c.PeakOverflow <= 1) {
				return fmt.Errorf("%w: module %q congest overflow %g outside [0,1]", ErrDB, m.Name, c.PeakOverflow)
			}
			if !(c.PeakUtil >= 0) || math.IsInf(c.PeakUtil, 1) {
				return fmt.Errorf("%w: module %q congest utilization %g is not finite and ≥ 0", ErrDB, m.Name, c.PeakUtil)
			}
			if math.IsNaN(c.ExpectedFeeds) || math.IsInf(c.ExpectedFeeds, 0) {
				return fmt.Errorf("%w: module %q congest expected feeds %g is not finite", ErrDB, m.Name, c.ExpectedFeeds)
			}
			if c.HotChannel < -1 {
				return fmt.Errorf("%w: module %q congest hot channel %d", ErrDB, m.Name, c.HotChannel)
			}
		}
	}
	for _, n := range d.Nets {
		if len(n.Pins) < 2 {
			return fmt.Errorf("%w: net %q has fewer than 2 pins", ErrDB, n.Name)
		}
		for _, pin := range n.Pins {
			if !names[pin.Module] {
				return fmt.Errorf("%w: net %q references unknown module %q", ErrDB, n.Name, pin.Module)
			}
		}
	}
	return nil
}

func atois(fields []string, line int) ([]int, error) {
	out := make([]int, len(fields))
	for i, f := range fields {
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: bad integer %q", ErrDB, line, f)
		}
		out[i] = v
	}
	return out, nil
}
