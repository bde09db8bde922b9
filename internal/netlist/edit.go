package netlist

// This file is the mutation support behind the engine's ECO edit
// algebra (engine.Edit / Plan.Delta): a deep Clone plus a small set of
// structural mutators that preserve every invariant the Builder
// establishes — contiguous Index fields, distinct Net.Devices lists in
// first-connection order, and PinCount accounting.  The estimator's incremental re-compilation edits a
// *clone* of a compiled circuit, never the original (a compiled Plan
// shares its circuit, so mutating it in place would corrupt the Plan).
//
// One invariant matters beyond bookkeeping: every net of a valid
// circuit is reachable from its canonical rendering (it carries a
// device pin or a port), so a circuit's canonical form determines its
// statistics.  The mutators preserve it by pruning nets that end up
// with no pins and no ports, and by refusing to create dangling nets.

import "fmt"

// Clone returns a deep copy of the circuit: fresh Device/Net/Port
// values with all cross-references rewired into the copy.  Element
// order — and therefore the canonical rendering, the gathered
// statistics, and every float-summation order downstream — is
// preserved exactly.  Cross-references are rewired through the
// contiguous Index fields (not pointer maps) and the element structs
// come from three bulk allocations — Clone runs once per ECO edit, so
// its constant factors are the incremental path's floor.
func (c *Circuit) Clone() *Circuit {
	out := &Circuit{
		Name:    c.Name,
		Devices: make([]*Device, len(c.Devices)),
		Nets:    make([]*Net, len(c.Nets)),
		Ports:   make([]*Port, len(c.Ports)),
	}
	// netOf/devOf map an original element's Index to its copy; Index
	// values are dense in [0, len) by the Builder/mutator invariant.
	netOf := make([]*Net, len(c.Nets))
	netArr := make([]Net, len(c.Nets))
	for i, n := range c.Nets {
		cp := &netArr[i]
		cp.Index, cp.Name, cp.PinCount = n.Index, n.Name, n.PinCount
		out.Nets[i] = cp
		netOf[n.Index] = cp
	}
	devOf := make([]*Device, len(c.Devices))
	devArr := make([]Device, len(c.Devices))
	// One arena per cross-reference kind instead of a slice per
	// element; sub-slices are carved full-capacity so a later append
	// (ConnectPin adding a pin) copies out instead of clobbering a
	// neighbor.
	totalPins, totalOnNet := 0, 0
	for _, d := range c.Devices {
		totalPins += len(d.Pins)
	}
	for _, n := range c.Nets {
		totalOnNet += len(n.Devices)
	}
	pinArena := make([]*Net, totalPins)
	onNetArena := make([]*Device, totalOnNet)
	for i, d := range c.Devices {
		cp := &devArr[i]
		cp.Index, cp.Name, cp.Type = d.Index, d.Name, d.Type
		if d.Pins != nil {
			cp.Pins = pinArena[:len(d.Pins):len(d.Pins)]
			pinArena = pinArena[len(d.Pins):]
			for j, p := range d.Pins {
				if p != nil {
					cp.Pins[j] = netOf[p.Index]
				}
			}
		}
		out.Devices[i] = cp
		devOf[d.Index] = cp
	}
	for i, n := range c.Nets {
		cp := out.Nets[i]
		if n.Devices != nil {
			cp.Devices = onNetArena[:len(n.Devices):len(n.Devices)]
			onNetArena = onNetArena[len(n.Devices):]
			for j, d := range n.Devices {
				cp.Devices[j] = devOf[d.Index]
			}
		}
	}
	portArr := make([]Port, len(c.Ports))
	for i, p := range c.Ports {
		cp := &portArr[i]
		cp.Name, cp.Dir = p.Name, p.Dir
		if p.Net != nil {
			cp.Net = netOf[p.Net.Index]
		}
		out.Ports[i] = cp
		if cp.Net != nil {
			cp.Net.Ports = append(cp.Net.Ports, cp)
		}
	}
	return out
}

// editErr wraps structural-edit failures under ErrInvalidCircuit so
// callers dispatching on errors.Is treat a bad edit exactly like a bad
// source netlist.
func editErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalidCircuit, fmt.Sprintf(format, args...))
}

// internNet returns the named net, creating (and appending) it when
// absent.  The caller has checked the name (checkName).
func (c *Circuit) internNet(name string) *Net {
	if n := c.NetByName(name); n != nil {
		return n
	}
	n := &Net{Index: len(c.Nets), Name: name}
	c.Nets = append(c.Nets, n)
	return n
}

// AddDevice appends an instance of the given type connected to the
// named nets in pin order, creating nets as needed (Builder.AddDevice
// semantics: an empty net name leaves that pin unconnected).
func (c *Circuit) AddDevice(name, typ string, netNames ...string) (*Device, error) {
	if err := checkName("device", name); err != nil {
		return nil, editErr("%v", err)
	}
	if err := checkName("type", typ); err != nil {
		return nil, editErr("device %q: %v", name, err)
	}
	for _, netName := range netNames {
		if netName == "" {
			continue // an open pin
		}
		if err := checkName("net", netName); err != nil {
			return nil, editErr("device %q: %v", name, err)
		}
	}
	if c.DeviceByName(name) != nil {
		return nil, editErr("duplicate device %q", name)
	}
	d := &Device{Index: len(c.Devices), Name: name, Type: typ}
	for _, netName := range netNames {
		if netName == "" {
			d.Pins = append(d.Pins, nil)
			continue
		}
		n := c.internNet(netName)
		d.Pins = append(d.Pins, n)
		n.attachNew(d)
	}
	c.Devices = append(c.Devices, d)
	return d, nil
}

// RemoveDevice deletes the named instance and every pin it
// contributed.  Nets left with no pins and no ports are pruned (they
// would be invisible to the canonical rendering otherwise); nets kept
// alive by other devices or by ports survive with reduced degree.
func (c *Circuit) RemoveDevice(name string) error {
	d := c.DeviceByName(name)
	if d == nil {
		return editErr("unknown device %q", name)
	}
	if len(c.Devices) == 1 {
		return editErr("removing device %q would empty module %q", name, c.Name)
	}
	for _, n := range d.Pins {
		if n == nil {
			continue
		}
		n.PinCount--
	}
	for _, n := range distinctNets(d.Pins) {
		n.Devices = removeDevice(n.Devices, d)
	}
	c.Devices = append(c.Devices[:d.Index], c.Devices[d.Index+1:]...)
	for i := d.Index; i < len(c.Devices); i++ {
		c.Devices[i].Index = i
	}
	c.pruneNets(distinctNets(d.Pins))
	return nil
}

// AddNet creates a new net connecting the named devices, appending one
// pin per listed device (a device listed twice gains two pins but
// counts once toward the degree).  At least one device is required — a
// pinless, portless net would be dangling.
func (c *Circuit) AddNet(name string, deviceNames ...string) (*Net, error) {
	if err := checkName("net", name); err != nil {
		return nil, editErr("%v", err)
	}
	if c.NetByName(name) != nil {
		return nil, editErr("duplicate net %q", name)
	}
	if len(deviceNames) == 0 {
		return nil, editErr("net %q would be dangling (no devices)", name)
	}
	devs := make([]*Device, len(deviceNames))
	for i, dn := range deviceNames {
		d := c.DeviceByName(dn)
		if d == nil {
			return nil, editErr("net %q: unknown device %q", name, dn)
		}
		devs[i] = d
	}
	n := c.internNet(name)
	for _, d := range devs {
		d.Pins = append(d.Pins, n)
		n.PinCount++
		if !containsDevice(n.Devices, d) {
			n.Devices = append(n.Devices, d)
		}
	}
	return n, nil
}

// RemoveNet deletes the named net and every device pin on it.  A net
// reaching a module port cannot be removed (the port would dangle);
// disconnect its pins instead.
func (c *Circuit) RemoveNet(name string) error {
	n := c.NetByName(name)
	if n == nil {
		return editErr("unknown net %q", name)
	}
	if n.External() {
		return editErr("net %q carries %d port(s); remove the ports first", name, len(n.Ports))
	}
	for _, d := range n.Devices {
		d.Pins = removePinsOn(d.Pins, n)
	}
	c.deleteNet(n)
	return nil
}

// ConnectPin adds one pin connecting the named device to the named
// net, creating the net when absent — the degree-raising half of a
// "change net degree" edit.
func (c *Circuit) ConnectPin(device, net string) error {
	d := c.DeviceByName(device)
	if d == nil {
		return editErr("unknown device %q", device)
	}
	if err := checkName("net", net); err != nil {
		return editErr("device %q: %v", device, err)
	}
	n := c.internNet(net)
	d.Pins = append(d.Pins, n)
	n.PinCount++
	if !containsDevice(n.Devices, d) {
		n.Devices = append(n.Devices, d)
	}
	return nil
}

// DisconnectPin removes the named device's last pin on the named net —
// the degree-lowering half of a "change net degree" edit.  When that
// was the device's only pin on the net, the device leaves the net's
// component list; a net left with no pins and no ports is pruned.
func (c *Circuit) DisconnectPin(device, net string) error {
	d := c.DeviceByName(device)
	if d == nil {
		return editErr("unknown device %q", device)
	}
	n := c.NetByName(net)
	if n == nil {
		return editErr("unknown net %q", net)
	}
	at := -1
	for i := len(d.Pins) - 1; i >= 0; i-- {
		if d.Pins[i] == n {
			at = i
			break
		}
	}
	if at < 0 {
		return editErr("device %q has no pin on net %q", device, net)
	}
	d.Pins = append(d.Pins[:at], d.Pins[at+1:]...)
	n.PinCount--
	if !pinsContain(d.Pins, n) {
		n.Devices = removeDevice(n.Devices, d)
	}
	c.pruneNets([]*Net{n})
	return nil
}

// pruneNets drops every listed net that ended up with no pins and no
// ports, preserving the order (and reindexing) of the survivors.
func (c *Circuit) pruneNets(nets []*Net) {
	for _, n := range nets {
		if n.PinCount == 0 && !n.External() {
			c.deleteNet(n)
		}
	}
}

// deleteNet removes one net, reindexing the nets behind it.
func (c *Circuit) deleteNet(n *Net) {
	c.Nets = append(c.Nets[:n.Index], c.Nets[n.Index+1:]...)
	for i := n.Index; i < len(c.Nets); i++ {
		c.Nets[i].Index = i
	}
}

// distinctNets returns the non-nil distinct nets of a pin list, in
// first-appearance order.
func distinctNets(pins []*Net) []*Net {
	var out []*Net
	for _, n := range pins {
		if n == nil {
			continue
		}
		seen := false
		for _, m := range out {
			if m == n {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, n)
		}
	}
	return out
}

// removeDevice deletes one device from a component list, preserving
// the order of the rest.
func removeDevice(ds []*Device, d *Device) []*Device {
	for i, x := range ds {
		if x == d {
			return append(ds[:i], ds[i+1:]...)
		}
	}
	return ds
}

// removePinsOn deletes every pin referencing the net, preserving the
// order (and nil pins) of the rest.
func removePinsOn(pins []*Net, n *Net) []*Net {
	out := pins[:0]
	for _, p := range pins {
		if p != n {
			out = append(out, p)
		}
	}
	return out
}

// containsDevice reports whether the component list holds the device.
func containsDevice(ds []*Device, d *Device) bool {
	for _, x := range ds {
		if x == d {
			return true
		}
	}
	return false
}

// pinsContain reports whether any pin references the net.
func pinsContain(pins []*Net, n *Net) bool {
	for _, p := range pins {
		if p == n {
			return true
		}
	}
	return false
}
