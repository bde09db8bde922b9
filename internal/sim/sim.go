// Package sim is a combinational gate-level logic simulator.  Its job
// in this repository is verification: the technology mapper rewrites
// generic gates into library-cell networks (NAND trees, XOR chains,
// MUX decompositions), and the simulator proves those rewrites
// function-preserving by exhaustive truth-table comparison — the
// equivalence check any credible netlist-transforming tool ships
// with.
package sim

import (
	"errors"
	"fmt"

	"maest/internal/cells"
	"maest/internal/netlist"
)

// ErrSim wraps simulation failures.
var ErrSim = errors.New("sim: simulation failed")

// Eval evaluates a combinational circuit on the given input
// assignment (net name → value).  Every primary input net (driven by
// no device output) must be assigned; sequential cells and
// combinational cycles are rejected.  The result maps every net to
// its computed value.
func Eval(c *netlist.Circuit, inputs map[string]bool) (map[string]bool, error) {
	// Driver analysis: each device's last pin is its output.
	driverOf := map[*netlist.Net]*netlist.Device{}
	for _, d := range c.Devices {
		if len(d.Pins) < 2 {
			return nil, fmt.Errorf("%w: device %q has no output pin", ErrSim, d.Name)
		}
		out := d.Pins[len(d.Pins)-1]
		if out == nil {
			continue // unloaded output drives nothing observable
		}
		if prev, dup := driverOf[out]; dup {
			return nil, fmt.Errorf("%w: net %q driven by both %q and %q",
				ErrSim, out.Name, prev.Name, d.Name)
		}
		driverOf[out] = d
	}
	// Built circuits carry no by-name index, so resolve the inputs
	// through one map rather than a scan per input.
	netOf := make(map[string]*netlist.Net, len(c.Nets))
	for _, n := range c.Nets {
		netOf[n.Name] = n
	}
	values := map[string]bool{}
	for name, v := range inputs {
		n := netOf[name]
		if n == nil {
			return nil, fmt.Errorf("%w: unknown input net %q", ErrSim, name)
		}
		if _, driven := driverOf[n]; driven {
			return nil, fmt.Errorf("%w: net %q is driven but assigned as input", ErrSim, name)
		}
		values[name] = v
	}
	// Check all primary inputs assigned.
	for _, n := range c.Nets {
		if _, driven := driverOf[n]; driven {
			continue
		}
		if _, ok := values[n.Name]; !ok && n.PinCount > 0 {
			return nil, fmt.Errorf("%w: primary input %q unassigned", ErrSim, n.Name)
		}
	}
	// Evaluate devices with memoized recursion; gray-marking detects
	// combinational cycles.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	state := map[*netlist.Device]int{}
	var evalNet func(n *netlist.Net) (bool, error)
	var evalDev func(d *netlist.Device) (bool, error)
	evalNet = func(n *netlist.Net) (bool, error) {
		if v, ok := values[n.Name]; ok {
			return v, nil
		}
		d, driven := driverOf[n]
		if !driven {
			return false, fmt.Errorf("%w: net %q has no value", ErrSim, n.Name)
		}
		return evalDev(d)
	}
	evalDev = func(d *netlist.Device) (bool, error) {
		out := d.Pins[len(d.Pins)-1]
		if v, ok := values[out.Name]; ok {
			return v, nil
		}
		switch state[d] {
		case gray:
			return false, fmt.Errorf("%w: combinational cycle through %q", ErrSim, d.Name)
		case black:
			return values[out.Name], nil
		}
		state[d] = gray
		v, err := evalCell(d, evalNet)
		if err != nil {
			return false, err
		}
		state[d] = black
		values[out.Name] = v
		return v, nil
	}
	for _, d := range c.Devices {
		out := d.Pins[len(d.Pins)-1]
		if out == nil {
			continue
		}
		if _, err := evalDev(d); err != nil {
			return nil, err
		}
	}
	return values, nil
}

// evalCell computes one cell's output from its input nets.
func evalCell(d *netlist.Device, evalNet func(*netlist.Net) (bool, error)) (bool, error) {
	f, _, err := cells.CellFunc(d.Type)
	if err != nil {
		return false, fmt.Errorf("%w: device %q: %v", ErrSim, d.Name, err)
	}
	if f == cells.FuncDFF || f == cells.FuncLatch {
		return false, fmt.Errorf("%w: device %q is sequential; Eval is combinational only", ErrSim, d.Name)
	}
	var ins []bool
	for _, n := range d.Pins[:len(d.Pins)-1] {
		if n == nil {
			return false, fmt.Errorf("%w: device %q has an unconnected input", ErrSim, d.Name)
		}
		v, err := evalNet(n)
		if err != nil {
			return false, err
		}
		ins = append(ins, v)
	}
	if len(ins) == 0 {
		return false, fmt.Errorf("%w: device %q has no inputs", ErrSim, d.Name)
	}
	if d.Type == "AOI22" {
		if len(ins) != 4 {
			return false, fmt.Errorf("%w: AOI22 %q has %d inputs", ErrSim, d.Name, len(ins))
		}
		return !((ins[0] && ins[1]) || (ins[2] && ins[3])), nil
	}
	return EvalFunc(f, ins)
}

// EvalFunc computes a generic gate function over its inputs — the
// specification the mapper's output is checked against.
func EvalFunc(f cells.Func, ins []bool) (bool, error) {
	switch f {
	case cells.FuncBuf:
		return ins[0], nil
	case cells.FuncNot:
		return !ins[0], nil
	case cells.FuncAnd, cells.FuncNand:
		acc := true
		for _, v := range ins {
			acc = acc && v
		}
		if f == cells.FuncNand {
			return !acc, nil
		}
		return acc, nil
	case cells.FuncOr, cells.FuncNor:
		acc := false
		for _, v := range ins {
			acc = acc || v
		}
		if f == cells.FuncNor {
			return !acc, nil
		}
		return acc, nil
	case cells.FuncXor, cells.FuncXnor:
		acc := false
		for _, v := range ins {
			acc = acc != v
		}
		if f == cells.FuncXnor {
			return !acc, nil
		}
		return acc, nil
	case cells.FuncMux:
		if len(ins) != 3 {
			return false, fmt.Errorf("%w: MUX needs 3 inputs, got %d", ErrSim, len(ins))
		}
		if ins[0] {
			return ins[1], nil
		}
		return ins[2], nil
	default:
		return false, fmt.Errorf("%w: no evaluation for %v", ErrSim, f)
	}
}
