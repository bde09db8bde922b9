package netlist

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// buildSmall returns a 4-gate circuit used by several tests:
//
//	a, b -> g1(NAND2) -> n1
//	n1   -> g2(INV)   -> n2
//	n1,b -> g3(NOR2)  -> n3
//	n2,n3-> g4(NAND2) -> y
func buildSmall(t *testing.T) *Circuit {
	t.Helper()
	b := NewBuilder("small")
	b.AddDevice("g1", "NAND2", "a", "b", "n1")
	b.AddDevice("g2", "INV", "n1", "n2")
	b.AddDevice("g3", "NOR2", "n1", "b", "n3")
	b.AddDevice("g4", "NAND2", "n2", "n3", "y")
	b.AddPort("a", In, "a")
	b.AddPort("b", In, "b")
	b.AddPort("y", Out, "y")
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return c
}

func TestBuilderBasics(t *testing.T) {
	c := buildSmall(t)
	if c.NumDevices() != 4 {
		t.Fatalf("N = %d", c.NumDevices())
	}
	if c.NumPorts() != 3 {
		t.Fatalf("ports = %d", c.NumPorts())
	}
	// Nets: a b n1 n2 n3 y = 6.
	if c.NumNets() != 6 {
		t.Fatalf("nets = %d", c.NumNets())
	}
	n1 := c.NetByName("n1")
	if n1 == nil || n1.Degree() != 3 {
		t.Fatalf("n1 degree = %v", n1)
	}
	if n1.External() {
		t.Fatal("n1 should be internal")
	}
	a := c.NetByName("a")
	if !a.External() || a.Degree() != 1 {
		t.Fatalf("a: external=%v degree=%d", a.External(), a.Degree())
	}
	if c.DeviceByName("g3").Type != "NOR2" {
		t.Fatal("device lookup broken")
	}
	if c.PortByName("y").Dir != Out {
		t.Fatal("port lookup broken")
	}
}

func TestNetDeviceDedup(t *testing.T) {
	b := NewBuilder("dedup")
	// g1 connects to net x twice (e.g. a gate with tied inputs).
	b.AddDevice("g1", "NAND2", "x", "x", "z")
	b.AddDevice("g2", "INV", "z", "q")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	x := c.NetByName("x")
	if x.Degree() != 1 {
		t.Fatalf("x degree = %d, want 1 (distinct devices)", x.Degree())
	}
	if x.PinCount != 2 {
		t.Fatalf("x pin count = %d, want 2", x.PinCount)
	}
}

// TestBuilderArenas builds one shift register with every arena sizing
// — no hint, a hint far too small, an exact one — and checks each is
// the same circuit: a shared clock net with one pin per stage, tied
// pins counted once per component, and pins carved so that growing
// one device's pin list never reaches its neighbour's.
func TestBuilderArenas(t *testing.T) {
	const stages = 300
	build := func(hint int) *Circuit {
		b := NewBuilder("sr")
		if hint > 0 {
			b.Grow(hint)
		}
		b.AddPort("clk", In, "clk")
		b.AddPort("d", In, "q0")
		for i := 0; i < stages; i++ {
			q, next := fmt.Sprintf("q%d", i), fmt.Sprintf("q%d", i+1)
			b.AddDevice(fmt.Sprintf("ff%d", i), "DFF", q, "clk", "clk", next)
		}
		b.AddPort("q", Out, fmt.Sprintf("q%d", stages))
		c, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, c)
		return c
	}
	want := build(0)
	clk := want.NetByName("clk")
	if clk.Degree() != stages || clk.PinCount != 2*stages {
		t.Fatalf("clk D=%d pins=%d, want %d and %d", clk.Degree(), clk.PinCount, stages, 2*stages)
	}
	for _, hint := range []int{3, stages + 4} {
		got := build(hint)
		if g, w := fmt.Sprint(summary(got)), fmt.Sprint(summary(want)); g != w {
			t.Fatalf("Grow(%d) built a different circuit:\n%s\nwant\n%s", hint, g, w)
		}
	}
	if err := want.ConnectPin("ff0", "clk"); err != nil {
		t.Fatal(err)
	}
	if p := want.DeviceByName("ff1").Pins[0]; p == nil || p.Name != "q1" {
		t.Fatalf("a pin appended to ff0 reached ff1: pin 0 is %v", p)
	}
	checkInvariants(t, want)
}

// summary lists a circuit's devices with their pin nets and its nets
// with their components, by name.
func summary(c *Circuit) []string {
	var out []string
	for _, d := range c.Devices {
		s := d.Name + ":" + d.Type
		for _, p := range d.Pins {
			s += " " + p.Name
		}
		out = append(out, s)
	}
	for _, n := range c.Nets {
		s := fmt.Sprintf("%s/%d:", n.Name, n.PinCount)
		for _, d := range n.Devices {
			s += " " + d.Name
		}
		out = append(out, s)
	}
	return out
}

func TestUnconnectedPin(t *testing.T) {
	b := NewBuilder("nc")
	d := b.AddDevice("g1", "NAND2", "a", "", "y")
	b.AddDevice("g2", "INV", "y", "a")
	if d.Pins[1] != nil {
		t.Fatal("empty net name should leave pin nil")
	}
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func(b *Builder)
	}{
		{"no devices", func(b *Builder) {}},
		{"empty device name", func(b *Builder) { b.AddDevice("", "INV", "a", "b") }},
		{"empty type", func(b *Builder) { b.AddDevice("g", "", "a", "b") }},
		{"dup device", func(b *Builder) {
			b.AddDevice("g", "INV", "a", "b")
			b.AddDevice("g", "INV", "b", "c")
		}},
		{"dup port", func(b *Builder) {
			b.AddDevice("g", "INV", "a", "b")
			b.AddPort("p", In, "a")
			b.AddPort("p", In, "b")
		}},
		{"empty port name", func(b *Builder) {
			b.AddDevice("g", "INV", "a", "b")
			b.AddPort("", In, "a")
		}},
		{"empty port net", func(b *Builder) {
			b.AddDevice("g", "INV", "a", "b")
			b.AddPort("p", In, "")
		}},
	}
	for _, c := range cases {
		b := NewBuilder("t")
		c.build(b)
		if _, err := b.Build(); err == nil {
			t.Errorf("%s: Build succeeded, want error", c.name)
		} else if !errors.Is(err, ErrInvalidCircuit) {
			t.Errorf("%s: error not wrapped: %v", c.name, err)
		}
	}
}

func TestEmptyCircuitName(t *testing.T) {
	b := NewBuilder("")
	b.AddDevice("g", "INV", "a", "b")
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for empty circuit name")
	}
}

func TestErrorListTruncation(t *testing.T) {
	b := NewBuilder("many")
	for i := 0; i < 12; i++ {
		b.AddDevice("", "INV", "a") // 12 identical failures
	}
	_, err := b.Build()
	if err == nil {
		t.Fatal("expected failure")
	}
	if !strings.Contains(err.Error(), "and") || !strings.Contains(err.Error(), "more") {
		t.Fatalf("long error list not truncated: %v", err)
	}
}

func TestTypeHistogram(t *testing.T) {
	c := buildSmall(t)
	h := c.TypeHistogram()
	if h["NAND2"] != 2 || h["INV"] != 1 || h["NOR2"] != 1 {
		t.Fatalf("histogram = %v", h)
	}
	names := c.TypeNames()
	want := []string{"INV", "NAND2", "NOR2"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
}

func TestPortDirParseAndString(t *testing.T) {
	for _, d := range []PortDir{In, Out, InOut} {
		got, err := ParsePortDir(d.String())
		if err != nil || got != d {
			t.Fatalf("round trip %v: %v %v", d, got, err)
		}
	}
	if _, err := ParsePortDir("sideways"); err == nil {
		t.Fatal("expected parse error")
	}
	if PortDir(9).String() != "PortDir(9)" {
		t.Fatal("unknown dir String mismatch")
	}
}

// TestNameRule pins the one name rule at the Builder and the edit
// mutators: every name is one .mnet field, so no white space (ASCII or
// Unicode) and not the open-pin "-"; other runes are fine.
func TestNameRule(t *testing.T) {
	build := func(module, port, dev, typ string, nets ...string) error {
		b := NewBuilder(module)
		b.AddPort(port, In, "a")
		b.AddDevice(dev, typ, append([]string{"a"}, nets...)...)
		_, err := b.Build()
		return err
	}
	if err := build("mé", "a", "gé", "INV", "ç", ""); err != nil {
		t.Fatalf("non-ASCII names and an open pin refused: %v", err)
	}
	for _, tc := range []struct {
		label                 string
		module, port, dev, ty string
		net                   string
	}{
		{"module with a line break", "m\nport in x", "a", "g", "INV", "y"},
		{"port with a space", "m", "a b", "g", "INV", "y"},
		{"device with a tab", "m", "a", "g\t1", "INV", "y"},
		{"type with a space", "m", "a", "g", "INV x", "y"},
		{"net named -", "m", "a", "g", "INV", "-"},
		{"net with a no-break space", "m", "a", "g", "INV", "n 1"},
		{"net with a next-line", "m", "a", "g", "INV", "n\u00851"},
		{"empty type", "m", "a", "g", "", "y"},
	} {
		if err := build(tc.module, tc.port, tc.dev, tc.ty, tc.net); !errors.Is(err, ErrInvalidCircuit) {
			t.Errorf("%s: err = %v, want ErrInvalidCircuit", tc.label, err)
		}
	}

	b := NewBuilder("m")
	b.AddDevice("g", "INV", "a", "b")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for label, err := range map[string]error{
		"AddDevice name":   second(c.AddDevice("h i", "INV", "a")),
		"AddDevice type":   second(c.AddDevice("h", "INV\n", "a")),
		"AddDevice net":    second(c.AddDevice("h", "INV", "a", "-")),
		"AddNet":           second(c.AddNet("n n", "g")),
		"ConnectPin":       c.ConnectPin("g", "-"),
		"ConnectPin empty": c.ConnectPin("g", ""),
	} {
		if !errors.Is(err, ErrInvalidCircuit) {
			t.Errorf("%s: err = %v, want ErrInvalidCircuit", label, err)
		}
	}
	if len(c.Devices) != 1 || len(c.Nets) != 2 || len(c.Devices[0].Pins) != 2 {
		t.Fatalf("refused edits changed the circuit: %d devices, %d nets", len(c.Devices), len(c.Nets))
	}
}

func second[T any](_ T, err error) error { return err }
