package netlist

import (
	"errors"
	"testing"
)

// checkInvariants verifies everything the Builder establishes and the
// mutators promise to preserve: contiguous indices, consistent name
// lookup, PinCount accounting, distinct component lists, and no
// dangling (pinless, portless) nets.
func checkInvariants(t *testing.T, c *Circuit) {
	t.Helper()
	for i, d := range c.Devices {
		if d.Index != i {
			t.Fatalf("device %q index %d at position %d", d.Name, d.Index, i)
		}
		if c.DeviceByName(d.Name) != d {
			t.Fatalf("device %q does not resolve to itself", d.Name)
		}
	}
	pinCount := map[*Net]int{}
	onNet := map[*Net]map[*Device]bool{}
	for _, d := range c.Devices {
		for _, n := range d.Pins {
			if n == nil {
				continue
			}
			pinCount[n]++
			if onNet[n] == nil {
				onNet[n] = map[*Device]bool{}
			}
			onNet[n][d] = true
		}
	}
	for i, n := range c.Nets {
		if n.Index != i {
			t.Fatalf("net %q index %d at position %d", n.Name, n.Index, i)
		}
		if c.NetByName(n.Name) != n {
			t.Fatalf("net %q does not resolve to itself", n.Name)
		}
		if n.PinCount != pinCount[n] {
			t.Fatalf("net %q PinCount %d, actual pins %d", n.Name, n.PinCount, pinCount[n])
		}
		if len(n.Devices) != len(onNet[n]) {
			t.Fatalf("net %q lists %d components, actual %d", n.Name, len(n.Devices), len(onNet[n]))
		}
		for _, d := range n.Devices {
			if !onNet[n][d] {
				t.Fatalf("net %q lists component %q without a pin", n.Name, d.Name)
			}
		}
		if n.PinCount == 0 && !n.External() {
			t.Fatalf("net %q is dangling (no pins, no ports)", n.Name)
		}
	}
}

func TestCloneIsDeepAndExact(t *testing.T) {
	c := buildSmall(t)
	cp := c.Clone()
	checkInvariants(t, cp)
	if cp.NumDevices() != c.NumDevices() || cp.NumNets() != c.NumNets() || cp.NumPorts() != c.NumPorts() {
		t.Fatal("clone changed element counts")
	}
	for i, d := range c.Devices {
		cd := cp.Devices[i]
		if cd == d {
			t.Fatalf("device %q shared between clone and original", d.Name)
		}
		if cd.Name != d.Name || cd.Type != d.Type || len(cd.Pins) != len(d.Pins) {
			t.Fatalf("device %q cloned wrong", d.Name)
		}
		for j, p := range d.Pins {
			if (p == nil) != (cd.Pins[j] == nil) {
				t.Fatalf("device %q pin %d nil-ness changed", d.Name, j)
			}
			if p != nil && cd.Pins[j].Name != p.Name {
				t.Fatalf("device %q pin %d rewired", d.Name, j)
			}
			if p != nil && cd.Pins[j] == p {
				t.Fatalf("device %q pin %d aliases the original net", d.Name, j)
			}
		}
	}
	for i, p := range c.Ports {
		if cp.Ports[i].Net == p.Net {
			t.Fatalf("port %q net aliases the original", p.Name)
		}
		if cp.Ports[i].Net.Name != p.Net.Name {
			t.Fatalf("port %q rewired", p.Name)
		}
	}
	// Mutating the clone leaves the original untouched.
	if err := cp.RemoveDevice("g2"); err != nil {
		t.Fatal(err)
	}
	if c.DeviceByName("g2") == nil || c.NetByName("n2") == nil {
		t.Fatal("mutating the clone reached the original")
	}
	checkInvariants(t, c)
}

func TestClonePreservesNilPins(t *testing.T) {
	b := NewBuilder("m")
	b.AddDevice("g1", "INV", "a", "")
	b.AddDevice("g2", "INV", "a", "y")
	b.AddPort("py", Out, "y")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cp := c.Clone()
	if cp.DeviceByName("g1").Pins[1] != nil {
		t.Fatal("unconnected pin became connected in the clone")
	}
	checkInvariants(t, cp)
}

func TestAddDevice(t *testing.T) {
	c := buildSmall(t)
	d, err := c.AddDevice("g5", "XOR2", "n1", "", "z")
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, c)
	if d.Index != 4 || d.Pins[1] != nil {
		t.Fatalf("appended device wrong: index %d", d.Index)
	}
	if c.NetByName("n1").Degree() != 4 {
		t.Fatalf("n1 degree %d after new pin, want 4", c.NetByName("n1").Degree())
	}
	if z := c.NetByName("z"); z == nil || z.Degree() != 1 {
		t.Fatal("new net z not created with degree 1")
	}
	// A device listed on the same net twice gains two pins but counts
	// once toward the degree.
	if _, err := c.AddDevice("g6", "BUF", "w", "w"); err != nil {
		t.Fatal(err)
	}
	w := c.NetByName("w")
	if w.PinCount != 2 || w.Degree() != 1 {
		t.Fatalf("double-connected net: pins %d degree %d, want 2 and 1", w.PinCount, w.Degree())
	}
	checkInvariants(t, c)
	for _, bad := range []struct{ name, typ string }{
		{"", "INV"}, {"g7", ""}, {"g1", "INV"},
	} {
		if _, err := c.AddDevice(bad.name, bad.typ); err == nil {
			t.Fatalf("AddDevice(%q, %q) accepted", bad.name, bad.typ)
		} else if !errors.Is(err, ErrInvalidCircuit) {
			t.Fatalf("edit error not under ErrInvalidCircuit: %v", err)
		}
	}
}

func TestRemoveDevice(t *testing.T) {
	c := buildSmall(t)
	// g2 (INV n1 n2): n1 survives with lower degree, n2 survives via
	// g4's pin.
	if err := c.RemoveDevice("g2"); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, c)
	if c.DeviceByName("g2") != nil {
		t.Fatal("g2 still interned")
	}
	if got := c.NetByName("n1").Degree(); got != 2 {
		t.Fatalf("n1 degree %d, want 2", got)
	}
	if n2 := c.NetByName("n2"); n2 == nil || n2.Degree() != 1 {
		t.Fatal("n2 should survive on g4's pin")
	}
	// Indices re-run contiguously.
	if c.Devices[1].Name != "g3" || c.Devices[1].Index != 1 {
		t.Fatalf("reindex broken: %q at 1 with index %d", c.Devices[1].Name, c.Devices[1].Index)
	}
	if err := c.RemoveDevice("ghost"); err == nil {
		t.Fatal("unknown device accepted")
	}
}

func TestRemoveDevicePrunesExclusiveNets(t *testing.T) {
	b := NewBuilder("m")
	b.AddDevice("g1", "INV", "a", "mid")
	b.AddDevice("g2", "INV", "mid", "y")
	b.AddPort("pa", In, "a")
	b.AddPort("py", Out, "y")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Removing g2 leaves mid with only g1's pin (kept), y with no pins
	// but a port (kept).
	if err := c.RemoveDevice("g2"); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, c)
	if c.NetByName("mid") == nil {
		t.Fatal("mid pruned while g1 still pins it")
	}
	if c.NetByName("y") == nil {
		t.Fatal("external net y pruned")
	}
	// Now g1 is the last device; removal must be refused (an empty
	// module has no canonical statistics).
	if err := c.RemoveDevice("g1"); err == nil {
		t.Fatal("removing the last device accepted")
	}
}

func TestAddNet(t *testing.T) {
	c := buildSmall(t)
	n, err := c.AddNet("bus", "g1", "g4", "g1")
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, c)
	if n.PinCount != 3 || n.Degree() != 2 {
		t.Fatalf("bus: pins %d degree %d, want 3 and 2", n.PinCount, n.Degree())
	}
	for _, bad := range []struct {
		name string
		devs []string
	}{
		{"", []string{"g1"}},
		{"n1", []string{"g1"}},     // duplicate net
		{"lone", nil},              // dangling
		{"bad", []string{"ghost"}}, // unknown device
	} {
		if _, err := c.AddNet(bad.name, bad.devs...); err == nil {
			t.Fatalf("AddNet(%q, %v) accepted", bad.name, bad.devs)
		}
	}
	checkInvariants(t, c)
}

func TestRemoveNet(t *testing.T) {
	c := buildSmall(t)
	if err := c.RemoveNet("n1"); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, c)
	if c.NetByName("n1") != nil {
		t.Fatal("n1 still interned")
	}
	for _, name := range []string{"g1", "g2", "g3"} {
		for _, p := range c.DeviceByName(name).Pins {
			if p != nil && p.Name == "n1" {
				t.Fatalf("%s kept a pin on the removed net", name)
			}
		}
	}
	// g1's pin list shrank rather than gaining a nil.
	if got := len(c.DeviceByName("g1").Pins); got != 2 {
		t.Fatalf("g1 has %d pins, want 2", got)
	}
	if err := c.RemoveNet("b"); err == nil {
		t.Fatal("external net removal accepted")
	}
	if err := c.RemoveNet("ghost"); err == nil {
		t.Fatal("unknown net accepted")
	}
}

func TestConnectDisconnectPin(t *testing.T) {
	c := buildSmall(t)
	if err := c.ConnectPin("g2", "n3"); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, c)
	if got := c.NetByName("n3").Degree(); got != 3 {
		t.Fatalf("n3 degree %d, want 3", got)
	}
	if err := c.DisconnectPin("g2", "n3"); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, c)
	if got := c.NetByName("n3").Degree(); got != 2 {
		t.Fatalf("n3 degree %d after disconnect, want 2", got)
	}
	// Disconnecting the only pin of an internal single-pin net prunes
	// the net entirely.
	if err := c.ConnectPin("g2", "tmp"); err != nil {
		t.Fatal(err)
	}
	if err := c.DisconnectPin("g2", "tmp"); err != nil {
		t.Fatal(err)
	}
	if c.NetByName("tmp") != nil {
		t.Fatal("pinless internal net survived")
	}
	checkInvariants(t, c)
	// A double-connected device stays a component until its last pin
	// on the net goes.
	if err := c.ConnectPin("g2", "n1"); err != nil { // second pin on n1
		t.Fatal(err)
	}
	if err := c.DisconnectPin("g2", "n1"); err != nil {
		t.Fatal(err)
	}
	if got := c.NetByName("n1").Degree(); got != 3 {
		t.Fatalf("n1 degree %d, want 3 (g2 still pinned once)", got)
	}
	checkInvariants(t, c)
	if err := c.DisconnectPin("g1", "y"); err == nil {
		t.Fatal("disconnecting a pin that does not exist accepted")
	}
	if err := c.ConnectPin("ghost", "n1"); err == nil {
		t.Fatal("unknown device accepted")
	}
	if err := c.DisconnectPin("g1", "ghost"); err == nil {
		t.Fatal("unknown net accepted")
	}
}

func TestEditErrorsWrapInvalidCircuit(t *testing.T) {
	c := buildSmall(t)
	for name, err := range map[string]error{
		"RemoveDevice": c.RemoveDevice("ghost"),
		"RemoveNet":    c.RemoveNet("ghost"),
		"ConnectPin":   c.ConnectPin("ghost", "n1"),
		"Disconnect":   c.DisconnectPin("g1", "ghost"),
	} {
		if err == nil {
			t.Fatalf("%s: no error", name)
		}
		if !errors.Is(err, ErrInvalidCircuit) {
			t.Fatalf("%s: error %v not under ErrInvalidCircuit", name, err)
		}
	}
}
