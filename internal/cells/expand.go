package cells

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"maest/internal/geom"
	"maest/internal/netlist"
	"maest/internal/tech"
)

// ExpandTransistors lowers a gate-level circuit to the transistor
// level: each library cell is replaced by its transistor network,
// preserving the external nets.  Supply rails are not modeled as nets
// — they run inside device rows in both the paper's layout style and
// ours — so transistor source/drain pins tied to VDD/GND are left
// unconnected.
//
// Two transistor styles are recognized from the process library:
// nMOS (enhancement pull-downs "ENH" with a depletion load "DEP") and
// static CMOS (complementary "NFET"/"PFET" networks).  Devices that
// are already transistors pass through unchanged.
//
// The estimate path does not build this netlist: the engine reads the
// Eq. 13 inputs straight from the same expansion through ExpandStats.
// ExpandTransistors is the oracle those statistics are tested against,
// and the route for callers that want the transistor netlist itself,
// such as the fullcustom example and gen.FullCustomSuite.
func ExpandTransistors(c *netlist.Circuit, p *tech.Process) (*netlist.Circuit, error) {
	e, err := newExpander(p)
	if err != nil {
		return nil, err
	}
	b := netlist.NewBuilder(c.Name + "_xtor")
	e.k = &nameSink{b: b, gate: c.Nets, types: e.types}
	if err := e.walk(c); err != nil {
		return nil, err
	}
	out, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("cells: expand %q: %w", c.Name, err)
	}
	return out, nil
}

// ExpandStats returns the Full-Custom (Eq. 13) statistics of c's
// transistor-level expansion without building it.  It runs the walk
// ExpandTransistors runs into a sink that only counts, so the result
// equals netlist.GatherFC of ExpandTransistors' output, net order
// included, and the two reject the same inputs with the same errors.
func ExpandStats(c *netlist.Circuit, p *tech.Process) (*netlist.FCStats, error) {
	e, err := newExpander(p)
	if err != nil {
		return nil, err
	}
	// Presized for a typical cell's minted nets; append grows past it.
	size := len(c.Nets) + 2*len(c.Devices)
	k := &statSink{pos: make([]int32, len(c.Nets), size)}
	k.s.CircuitName = c.Name + "_xtor"
	k.s.Nets = make([]netlist.FCNet, 0, size)
	for i := range k.pos {
		k.pos[i] = -1
	}
	for r, typ := range e.types {
		k.dims[r] = p.Devices[typ]
	}
	e.k = k
	if err := e.walk(c); err != nil {
		return nil, err
	}
	return &k.s, nil
}

// handle names a net of the expansion: a gate-level net's Index, a net
// the expansion minted (handles past the gate-level nets), or rail.
type handle int32

// rail is an unmodeled supply connection, or an unconnected pin.
const rail handle = -1

func netHandle(n *netlist.Net) handle {
	if n == nil {
		return rail
	}
	return handle(n.Index)
}

// role is a transistor's part in its network; newExpander binds each
// role to one of the process's transistor types.
type role uint8

const (
	pull   role = iota // pull-down: ENH (nMOS) or NFET (CMOS)
	load               // nMOS depletion load: DEP
	pullUp             // CMOS pull-up: PFET
)

// sink receives the expansion.  The expander owns the sequence number
// that generated names are built from; a sink that names nothing
// ignores it.
type sink interface {
	// mint returns the handle of a fresh internal net.
	mint(prefix byte, seq int) handle
	// tx places one transistor of cell base; pins are gate, source,
	// drain.
	tx(base string, seq int, r role, gate, source, drain handle)
	// keep passes through a device that already is a transistor.
	keep(d *netlist.Device, dt tech.Device)
	// port carries over one external port.
	port(p *netlist.Port)
}

// transistorStyle selects the expansion family.
type transistorStyle int

const (
	styleNMOS transistorStyle = iota
	styleCMOS
)

type expander struct {
	p     *tech.Process
	k     sink
	style transistorStyle
	types [3]string // device type per role
	seq   int
	ins   []handle // the connected inputs of the cell being expanded
}

func newExpander(p *tech.Process) (*expander, error) {
	hasT := func(name string) bool {
		d, ok := p.Devices[name]
		return ok && d.Class == tech.ClassTransistor
	}
	switch {
	case hasT("ENH") && hasT("DEP"):
		return &expander{p: p, style: styleNMOS, types: [3]string{pull: "ENH", load: "DEP"}}, nil
	case hasT("NFET") && hasT("PFET"):
		return &expander{p: p, style: styleCMOS, types: [3]string{pull: "NFET", pullUp: "PFET"}}, nil
	default:
		return nil, fmt.Errorf("cells: process %q offers no known transistor family", p.Name)
	}
}

// mintPrefixes are the letters fresh names internal nets with
// ("$s1", "$x7", ...).
const mintPrefixes = "sobarpxmqg"

// reserved reports whether a gate-level net name has the form of a
// minted one.  Nets are interned by name, so such a net would silently
// merge with a generated net in the transistor netlist.  The mapper's
// own "$n" nets cannot collide and stay legal.
func reserved(name string) bool {
	if len(name) < 3 || name[0] != '$' || strings.IndexByte(mintPrefixes, name[1]) < 0 {
		return false
	}
	for i := 2; i < len(name); i++ {
		if name[i] < '0' || name[i] > '9' {
			return false
		}
	}
	return true
}

// walk expands every device of c into e.k, then carries the ports
// over.
func (e *expander) walk(c *netlist.Circuit) error {
	if len(c.Devices) == 0 {
		return fmt.Errorf("cells: expand %q: no devices", c.Name)
	}
	checked := false
	for _, d := range c.Devices {
		dt, err := e.p.Device(d.Type)
		if err != nil {
			return fmt.Errorf("cells: expand %q: %w", d.Name, err)
		}
		if dt.Class == tech.ClassTransistor {
			e.k.keep(d, dt)
			continue
		}
		// Only cells mint nets, so only a circuit with a cell can clash.
		if !checked {
			for _, n := range c.Nets {
				if reserved(n.Name) {
					return fmt.Errorf("cells: expand %q: net %q: name is reserved for generated names", c.Name, n.Name)
				}
			}
			checked = true
		}
		if err := e.expandCell(d); err != nil {
			return err
		}
	}
	for _, port := range c.Ports {
		e.k.port(port)
	}
	return nil
}

func (e *expander) fresh(prefix byte) handle {
	e.seq++
	return e.k.mint(prefix, e.seq)
}

// tx places one transistor.  Pin order is gate, source, drain.
func (e *expander) tx(base string, r role, gate, source, drain handle) {
	e.seq++
	e.k.tx(base, e.seq, r, gate, source, drain)
}

// series places a chain of r transistors gated by gates, from the
// (unmodelled) rail to out.
func (e *expander) series(base string, r role, gates []handle, out handle) {
	prev := rail
	for i, g := range gates {
		next := out
		if i != len(gates)-1 {
			next = e.fresh('s')
		}
		e.tx(base, r, g, prev, next)
		prev = next
	}
}

// parallel places one r transistor per gate, each from the rail to
// out.
func (e *expander) parallel(base string, r role, gates []handle, out handle) {
	for _, g := range gates {
		e.tx(base, r, g, rail, out)
	}
}

// inverter emits a NOT stage from in to out.
func (e *expander) inverter(base string, in, out handle) {
	e.tx(base, pull, in, rail, out)
	if e.style == styleNMOS {
		e.tx(base, load, out, out, rail)
		return
	}
	e.tx(base, pullUp, in, rail, out)
}

// nand emits an inverting AND stage (series pull-down).
func (e *expander) nand(base string, ins []handle, out handle) {
	e.series(base, pull, ins, out)
	if e.style == styleNMOS {
		e.tx(base, load, out, out, rail)
		return
	}
	e.parallel(base, pullUp, ins, out)
}

// nor emits an inverting OR stage (parallel pull-down).
func (e *expander) nor(base string, ins []handle, out handle) {
	e.parallel(base, pull, ins, out)
	if e.style == styleNMOS {
		e.tx(base, load, out, out, rail)
		return
	}
	e.series(base, pullUp, ins, out)
}

// expandCell replaces one placed standard cell with its transistor
// network.
func (e *expander) expandCell(d *netlist.Device) error {
	f, fanin, err := CellFunc(d.Type)
	if err != nil {
		return fmt.Errorf("cells: expand %q: %w", d.Name, err)
	}
	if len(d.Pins) == 0 {
		return fmt.Errorf("cells: expand %q: cell has no pins", d.Name)
	}
	out := netHandle(d.Pins[len(d.Pins)-1])
	if out == rail {
		// An unloaded output still exists physically; give it a net so
		// the transistor netlist stays well formed.
		out = e.fresh('o')
	}
	named := e.ins[:0]
	for _, n := range d.Pins[:len(d.Pins)-1] {
		if n != nil {
			named = append(named, netHandle(n))
		}
	}
	e.ins = named
	switch f {
	case FuncNot:
		if len(named) < 1 {
			return fmt.Errorf("cells: expand %q: inverter with no input", d.Name)
		}
		e.inverter(d.Name, named[0], out)
	case FuncBuf:
		if len(named) < 1 {
			return fmt.Errorf("cells: expand %q: buffer with no input", d.Name)
		}
		mid := e.fresh('b')
		e.inverter(d.Name, named[0], mid)
		e.inverter(d.Name, mid, out)
	case FuncNand:
		if d.Type == "AOI22" {
			return e.expandAOI22(d.Name, named, out)
		}
		if len(named) == 0 {
			return fmt.Errorf("cells: expand %q: NAND with no inputs", d.Name)
		}
		e.nand(d.Name, named, out)
	case FuncNor:
		if len(named) == 0 {
			return fmt.Errorf("cells: expand %q: NOR with no inputs", d.Name)
		}
		e.nor(d.Name, named, out)
	case FuncAnd:
		mid := e.fresh('a')
		e.nand(d.Name, named, mid)
		e.inverter(d.Name, mid, out)
	case FuncOr:
		mid := e.fresh('r')
		e.nor(d.Name, named, mid)
		e.inverter(d.Name, mid, out)
	case FuncXor, FuncXnor:
		return e.expandXor(d.Name, named, out, f == FuncXnor)
	case FuncMux:
		return e.expandMux(d.Name, named, out)
	case FuncLatch:
		return e.expandLatch(d.Name, named, out, 1)
	case FuncDFF:
		return e.expandLatch(d.Name, named, out, 2)
	default:
		return fmt.Errorf("cells: expand %q: no transistor network for %v (fanin %d)", d.Name, f, fanin)
	}
	return nil
}

// expandAOI22 builds the and-or-invert network: two series pairs in
// parallel pulling down, with the complementary structure (or a load)
// above.
func (e *expander) expandAOI22(base string, ins []handle, out handle) error {
	if len(ins) < 4 {
		return fmt.Errorf("cells: expand %q: AOI22 needs 4 inputs, has %d", base, len(ins))
	}
	e.series(base, pull, ins[0:2], out)
	e.series(base, pull, ins[2:4], out)
	if e.style == styleNMOS {
		e.tx(base, load, out, out, rail)
		return nil
	}
	// CMOS dual: (p0||p1) in series with (p2||p3).
	mid := e.fresh('p')
	e.tx(base, pullUp, ins[0], rail, mid)
	e.tx(base, pullUp, ins[1], rail, mid)
	e.tx(base, pullUp, ins[2], mid, out)
	e.tx(base, pullUp, ins[3], mid, out)
	return nil
}

// expandXor builds xor/xnor from input inverters plus two series
// branches: (a·b) and (a'·b') pull the XNOR node; an extra inverter
// yields XOR.
func (e *expander) expandXor(base string, ins []handle, out handle, xnor bool) error {
	if len(ins) < 2 {
		return fmt.Errorf("cells: expand %q: XOR needs 2 inputs, has %d", base, len(ins))
	}
	a, b := ins[0], ins[1]
	an, bn := e.fresh('x'), e.fresh('x')
	e.inverter(base, a, an)
	e.inverter(base, b, bn)
	xnorNet := out
	if !xnor {
		xnorNet = e.fresh('x')
	}
	// Pull-down: (a·b) + (a'·b') discharges the XNOR node.
	e.series(base, pull, []handle{a, b}, xnorNet)
	e.series(base, pull, []handle{an, bn}, xnorNet)
	if e.style == styleNMOS {
		e.tx(base, load, xnorNet, xnorNet, rail)
	} else {
		// CMOS dual: (a'+b')·(a+b) charges the node.
		mid := e.fresh('x')
		e.tx(base, pullUp, an, rail, mid)
		e.tx(base, pullUp, bn, rail, mid)
		e.tx(base, pullUp, a, mid, xnorNet)
		e.tx(base, pullUp, b, mid, xnorNet)
	}
	if !xnor {
		e.inverter(base, xnorNet, out)
	}
	return nil
}

// expandMux builds the 2:1 multiplexer as pass/transmission gates
// steered by the select and its local inverse.
func (e *expander) expandMux(base string, ins []handle, out handle) error {
	if len(ins) < 3 {
		return fmt.Errorf("cells: expand %q: MUX needs 3 inputs, has %d", base, len(ins))
	}
	s, a, b := ins[0], ins[1], ins[2]
	sn := e.fresh('m')
	e.inverter(base, s, sn)
	if e.style == styleNMOS {
		e.tx(base, pull, s, a, out)
		e.tx(base, pull, sn, b, out)
		return nil
	}
	// CMOS transmission gates: an N and a P device per branch.
	e.tx(base, pull, s, a, out)
	e.tx(base, pullUp, sn, a, out)
	e.tx(base, pull, sn, b, out)
	e.tx(base, pullUp, s, b, out)
	return nil
}

// expandLatch builds `stages` cascaded latch stages (1 = transparent
// latch, 2 = master-slave flip-flop), each two cross-coupled
// inverters plus a pass transistor gated by the clock (if connected).
func (e *expander) expandLatch(base string, ins []handle, out handle, stages int) error {
	if len(ins) < 1 {
		return fmt.Errorf("cells: expand %q: latch with no data input", base)
	}
	data := ins[0]
	clk := rail
	if len(ins) >= 2 {
		clk = ins[1]
	}
	cur := data
	for s := 0; s < stages; s++ {
		stored := out
		if s != stages-1 {
			stored = e.fresh('q')
		}
		gated := e.fresh('g')
		// Pass transistor from current data into the storage node.
		if clk != rail {
			e.tx(base, pull, clk, cur, gated)
		} else {
			e.tx(base, pull, cur, cur, gated)
		}
		// Forward inverter and feedback inverter.
		e.inverter(base, gated, stored)
		e.inverter(base, stored, gated)
		cur = stored
	}
	return nil
}

// nameSink builds the transistor netlist itself, naming each device
// and minted net from the expander's sequence number.
type nameSink struct {
	b      *netlist.Builder
	gate   []*netlist.Net // the gate-level nets, by handle
	minted []string       // minted net names, by handle - len(gate)
	types  [3]string
}

func (k *nameSink) name(h handle) string {
	switch {
	case h == rail:
		return ""
	case int(h) < len(k.gate):
		return k.gate[h].Name
	}
	return k.minted[int(h)-len(k.gate)]
}

func (k *nameSink) mint(prefix byte, seq int) handle {
	k.minted = append(k.minted, "$"+string(prefix)+strconv.Itoa(seq))
	return handle(len(k.gate) + len(k.minted) - 1)
}

func (k *nameSink) tx(base string, seq int, r role, gate, source, drain handle) {
	k.b.AddDevice(base+"$t"+strconv.Itoa(seq), k.types[r], k.name(gate), k.name(source), k.name(drain))
}

func (k *nameSink) keep(d *netlist.Device, _ tech.Device) {
	names := make([]string, len(d.Pins))
	for i, n := range d.Pins {
		if n != nil {
			names[i] = n.Name
		}
	}
	k.b.AddDevice(d.Name, d.Type, names...)
}

func (k *nameSink) port(p *netlist.Port) { k.b.AddPort(p.Name, p.Dir, p.Net.Name) }

// statSink accumulates the expansion's netlist.FCStats.  Nets enter
// s.Nets on first touch, the order netlist.Builder gives the expanded
// circuit's nets, and a device counts once per distinct net it
// touches, as Net.Degree does.
type statSink struct {
	s    netlist.FCStats
	dims [3]tech.Device
	pos  []int32 // handle → index in s.Nets, or -1 before first touch
}

func (k *statSink) mint(byte, int) handle {
	k.pos = append(k.pos, -1)
	return handle(len(k.pos) - 1)
}

func (k *statSink) tx(_ string, _ int, r role, gate, source, drain handle) {
	dt := &k.dims[r]
	k.device(dt)
	k.pin(gate, dt.Width)
	if source != gate {
		k.pin(source, dt.Width)
	}
	if drain != gate && drain != source {
		k.pin(drain, dt.Width)
	}
}

func (k *statSink) keep(d *netlist.Device, dt tech.Device) {
	k.device(&dt)
	for i, n := range d.Pins {
		if n != nil && !slices.Contains(d.Pins[:i], n) {
			k.pin(netHandle(n), dt.Width)
		}
	}
}

func (k *statSink) port(p *netlist.Port) {
	k.net(netHandle(p.Net))
	k.s.NumPorts++
}

func (k *statSink) device(dt *tech.Device) {
	k.s.N++
	k.s.SumWidth += dt.Width
	k.s.SumHeight += dt.Height
	k.s.ExactDeviceArea += dt.Area()
}

// pin attaches the current device, of width w, to net h.
func (k *statSink) pin(h handle, w geom.Lambda) {
	if h == rail {
		return
	}
	n := k.net(h)
	n.D++
	n.SumWidth += w
}

// net returns h's entry, appending it on first touch.
func (k *statSink) net(h handle) *netlist.FCNet {
	i := k.pos[h]
	if i < 0 {
		i = int32(len(k.s.Nets))
		k.pos[h] = i
		k.s.Nets = append(k.s.Nets, netlist.FCNet{})
	}
	return &k.s.Nets[i]
}
