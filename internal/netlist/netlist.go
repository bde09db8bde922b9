// Package netlist models the circuit schematic the estimator analyses
// (paper §3): devices, signal nets, and external I/O ports.
//
// The estimator never needs transistor-level electrical detail — only
// the structural quantities of §4: the number of devices N, the number
// of nets H, each device's type (hence width Wᵢ from the process
// database), the multiplicity Xᵢ of each width, the number of external
// ports, and yᵢ, the number of nets having each component count D.
// This package provides the structure plus a validating builder; the
// derived statistics live in stats.go.
package netlist

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
)

// PortDir is the direction of an external port.
type PortDir int

const (
	// In is a module input.
	In PortDir = iota
	// Out is a module output.
	Out
	// InOut is a bidirectional port.
	InOut
)

// String implements fmt.Stringer.
func (d PortDir) String() string {
	switch d {
	case In:
		return "in"
	case Out:
		return "out"
	case InOut:
		return "inout"
	default:
		return fmt.Sprintf("PortDir(%d)", int(d))
	}
}

// ParsePortDir converts the textual form used by the HDL front end.
func ParsePortDir(s string) (PortDir, error) {
	switch s {
	case "in":
		return In, nil
	case "out":
		return Out, nil
	case "inout":
		return InOut, nil
	default:
		return 0, fmt.Errorf("netlist: unknown port direction %q", s)
	}
}

// Device is one placed instance: a standard cell or a full-custom
// transistor, depending on the layout methodology in force.
type Device struct {
	// Index is the position of the device in Circuit.Devices.
	Index int
	// Name is the unique instance name.
	Name string
	// Type names the device type in the process database.
	Type string
	// Pins lists the nets this device connects to, in pin order.  A
	// pin may be nil (unconnected).
	Pins []*Net
}

// Net is one signal net.
type Net struct {
	// Index is the position of the net in Circuit.Nets.
	Index int
	// Name is the unique net name.
	Name string
	// Devices lists the distinct devices attached to the net, in
	// first-connection order.
	Devices []*Device
	// PinCount is the total number of device pins on the net (a
	// device connecting twice contributes twice here but once to
	// Devices).
	PinCount int
	// Ports lists external ports driven by or driving this net.
	Ports []*Port
}

// Degree returns D, the number of components (distinct devices) in the
// net — the quantity the paper's probability machinery is written in.
func (n *Net) Degree() int { return len(n.Devices) }

// External reports whether the net reaches a module port.
func (n *Net) External() bool { return len(n.Ports) > 0 }

// Port is an external I/O terminal of the module.
type Port struct {
	Name string
	Dir  PortDir
	Net  *Net
}

// Circuit is a flat module netlist.
//
// A circuit carries no by-name index: the Builder interns names in
// maps of its own, and neither a built nor a cloned circuit keeps
// them, so DeviceByName, NetByName and PortByName scan.  Callers
// resolve a handful of names per ECO edit script, which costs less
// than the three maps every cached circuit would otherwise carry (and
// the garbage collector scan); an unindexed circuit is also what keeps
// lookups on shared, read-only circuits race-free.
type Circuit struct {
	Name    string
	Devices []*Device
	Nets    []*Net
	Ports   []*Port
}

// DeviceByName returns the named device instance, or nil.
func (c *Circuit) DeviceByName(name string) *Device {
	for _, d := range c.Devices {
		if d.Name == name {
			return d
		}
	}
	return nil
}

// NetByName returns the named net, or nil.
func (c *Circuit) NetByName(name string) *Net {
	for _, n := range c.Nets {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// PortByName returns the named port, or nil.
func (c *Circuit) PortByName(name string) *Port {
	for _, p := range c.Ports {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// NumDevices returns N.
func (c *Circuit) NumDevices() int { return len(c.Devices) }

// NumNets returns the total net count, including degenerate nets.
func (c *Circuit) NumNets() int { return len(c.Nets) }

// NumPorts returns the external port count.
func (c *Circuit) NumPorts() int { return len(c.Ports) }

// ErrInvalidCircuit wraps all builder validation failures.
var ErrInvalidCircuit = errors.New("netlist: invalid circuit")

// checkName applies the one name rule of every module, device, net
// and port name and device type: it is exactly one .mnet field —
// non-empty, holding no white space (unicode.IsSpace), and not "-",
// the spelling of an unconnected pin.  The canonical rendering
// separates fields with ' ' and lines with '\n' and writes an open
// pin as "-", so the rule is what keeps two different circuits from
// rendering, and content-addressing, alike.
func checkName(kind, name string) error {
	if name == "" {
		return fmt.Errorf("empty %s name", kind)
	}
	if name == "-" || hasSpace(name) {
		return fmt.Errorf("%s name %q is not one field (white space, or the open-pin \"-\")", kind, name)
	}
	return nil
}

// hasSpace reports whether s holds a unicode.IsSpace rune, scanning
// ASCII bytewise.
func hasSpace(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= utf8.RuneSelf:
			return strings.ContainsFunc(s[i:], unicode.IsSpace)
		case c == ' ' || c >= '\t' && c <= '\r':
			return true
		}
	}
	return false
}

// Builder incrementally assembles a Circuit, interning nets by name.
// All errors are deferred to Build so construction code stays linear.
//
// The by-name maps are the Builder's own and die with it (see
// Circuit).  Devices, nets, ports and pin lists are carved from
// chunked arenas, as Clone carves them, so a circuit costs a few
// allocations per chunk rather than one per element.
type Builder struct {
	c    *Circuit
	errs []error

	devices map[string]struct{}
	nets    map[string]*Net
	ports   map[string]struct{}

	devArena  arena[Device]
	netArena  arena[Net]
	portArena arena[Port]
	pinArena  arena[*Net]
}

// arena hands out elements from shared chunks.  Each take is carved
// with a full slice expression, so an append to it (ConnectPin adding
// a pin) copies out instead of clobbering the neighbouring element.
// Chunks it allocates itself double from 8, which bounds the unused
// tail a circuit keeps alive at about half its last chunk, even when
// a reserve fell short.
type arena[T any] struct {
	free  []T
	chunk int
}

// take returns k zeroed elements.
func (a *arena[T]) take(k int) []T {
	if k > len(a.free) {
		a.chunk = max(2*a.chunk, 8)
		a.free = make([]T, max(a.chunk, k))
	}
	s := a.free[:k:k]
	a.free = a.free[k:]
	return s
}

// reserve makes the next n elements come from one chunk.
func (a *arena[T]) reserve(n int) {
	if n > len(a.free) {
		a.free = make([]T, n)
	}
}

// NewBuilder starts a circuit with the given module name.
func NewBuilder(name string) *Builder {
	return &Builder{
		c:       &Circuit{Name: name},
		devices: map[string]struct{}{},
		nets:    map[string]*Net{},
		ports:   map[string]struct{}{},
	}
}

// Grow pre-sizes the builder for about n more devices and n more nets
// with three pins a device, so a front end that can bound its input
// up front builds from one chunk of each.  The reserve outlives the
// build in the circuit's chunks, so n should not exceed what the input
// can really hold (ParseMnet bounds it by the source's device lines).
func (b *Builder) Grow(n int) {
	b.c.Devices = slices.Grow(b.c.Devices, n)
	b.c.Nets = slices.Grow(b.c.Nets, n)
	b.devArena.reserve(n)
	b.netArena.reserve(n)
	b.pinArena.reserve(3 * n)
	if len(b.devices) == 0 {
		b.devices = make(map[string]struct{}, n)
	}
	if len(b.nets) == 0 {
		b.nets = make(map[string]*Net, n)
	}
}

func (b *Builder) fail(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf(format, args...))
}

// Net interns (creating if necessary) the named net.
func (b *Builder) Net(name string) *Net {
	if n, ok := b.nets[name]; ok {
		return n
	}
	if err := checkName("net", name); err != nil {
		b.errs = append(b.errs, err)
		return nil
	}
	n := &b.netArena.take(1)[0]
	n.Index, n.Name = len(b.c.Nets), name
	b.c.Nets = append(b.c.Nets, n)
	b.nets[name] = n
	return n
}

// AddDevice adds an instance of the given type connected to the named
// nets, in pin order.  An empty net name leaves that pin unconnected.
// It counts each net's pins; Build links the nets' component lists.
func (b *Builder) AddDevice(name, typ string, nets ...string) *Device {
	if err := checkName("device", name); err != nil {
		b.errs = append(b.errs, err)
		return nil
	}
	if err := checkName("type", typ); err != nil {
		b.fail("device %q: %v", name, err)
		return nil
	}
	if _, dup := b.devices[name]; dup {
		b.fail("duplicate device %q", name)
		return nil
	}
	d := &b.devArena.take(1)[0]
	d.Index, d.Name, d.Type = len(b.c.Devices), name, typ
	if len(nets) > 0 {
		d.Pins = b.pinArena.take(len(nets))
	}
	for i, netName := range nets {
		if netName != "" {
			if d.Pins[i] = b.Net(netName); d.Pins[i] != nil {
				d.Pins[i].PinCount++
			}
		}
	}
	b.c.Devices = append(b.c.Devices, d)
	b.devices[name] = struct{}{}
	return d
}

// attachNew records one pin of a device an edit adds on the net.  A
// new device's pins are connected one after another, so it is already
// among the net's components exactly when it is the last of them.
func (n *Net) attachNew(d *Device) {
	n.PinCount++
	if k := len(n.Devices); k == 0 || n.Devices[k-1] != d {
		n.Devices = append(n.Devices, d)
	}
}

// AddPort declares an external port on the named net (interned if
// new).
func (b *Builder) AddPort(name string, dir PortDir, netName string) *Port {
	if err := checkName("port", name); err != nil {
		b.errs = append(b.errs, err)
		return nil
	}
	if _, dup := b.ports[name]; dup {
		b.fail("duplicate port %q", name)
		return nil
	}
	n := b.Net(netName)
	if n == nil {
		return nil
	}
	p := &b.portArena.take(1)[0]
	p.Name, p.Dir, p.Net = name, dir, n
	n.Ports = append(n.Ports, p)
	b.c.Ports = append(b.c.Ports, p)
	b.ports[name] = struct{}{}
	return p
}

// Build validates and returns the circuit.  After Build the builder
// must not be reused.
func (b *Builder) Build() (*Circuit, error) {
	if err := checkName("circuit", b.c.Name); err != nil {
		b.errs = append(b.errs, err)
	}
	if len(b.c.Devices) == 0 {
		b.fail("circuit %q has no devices", b.c.Name)
	}
	pins := 0
	for _, n := range b.c.Nets {
		if n.PinCount == 0 && !n.External() {
			b.fail("net %q is dangling (no pins, no ports)", n.Name)
		}
		pins += n.PinCount
	}
	if len(b.errs) > 0 {
		return nil, fmt.Errorf("%w: %s", ErrInvalidCircuit, joinErrs(b.errs))
	}
	// Link every net's components in one pass over the devices, each
	// list carved from one arena with room for the net's pin count.
	// Visiting devices in index order and their pins in pin order is
	// first-connection order, the order attachNew keeps for edits.
	arena := make([]*Device, pins)
	for _, n := range b.c.Nets {
		if n.PinCount > 0 {
			n.Devices, arena = arena[:0:n.PinCount], arena[n.PinCount:]
		}
	}
	for _, d := range b.c.Devices {
		for _, n := range d.Pins {
			if n != nil {
				if k := len(n.Devices); k == 0 || n.Devices[k-1] != d {
					n.Devices = append(n.Devices, d)
				}
			}
		}
	}
	return b.c, nil
}

func joinErrs(errs []error) string {
	msgs := make([]string, len(errs))
	for i, e := range errs {
		msgs[i] = e.Error()
	}
	return fmt.Sprintf("%d problem(s): %s", len(errs), joinLimited(msgs, 8))
}

func joinLimited(msgs []string, limit int) string {
	if len(msgs) > limit {
		msgs = append(msgs[:limit:limit], fmt.Sprintf("... and %d more", len(msgs)-limit))
	}
	out := ""
	for i, m := range msgs {
		if i > 0 {
			out += "; "
		}
		out += m
	}
	return out
}

// TypeHistogram counts device instances by type name, sorted output via
// TypeNames.
func (c *Circuit) TypeHistogram() map[string]int {
	h := make(map[string]int)
	for _, d := range c.Devices {
		h[d.Type]++
	}
	return h
}

// TypeNames returns the distinct device type names in sorted order.
func (c *Circuit) TypeNames() []string {
	h := c.TypeHistogram()
	names := make([]string, 0, len(h))
	for n := range h {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
