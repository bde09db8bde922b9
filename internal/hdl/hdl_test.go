package hdl

import (
	"bytes"
	"strings"
	"testing"
	"unsafe"

	"maest/internal/gen"
	"maest/internal/netlist"
	"maest/internal/tech"
)

const smallMnet = `
# a tiny module
module small
port in a
port in b
port out y
device g1 NAND2 a b n1
device g2 INV n1 n2
device g3 NOR2 n1 b n3
device g4 NAND2 n2 n3 y
end
`

func TestParseMnet(t *testing.T) {
	c, err := ParseMnet(strings.NewReader(smallMnet))
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "small" {
		t.Fatalf("name = %q", c.Name)
	}
	if c.NumDevices() != 4 || c.NumPorts() != 3 || c.NumNets() != 6 {
		t.Fatalf("N=%d ports=%d nets=%d", c.NumDevices(), c.NumPorts(), c.NumNets())
	}
	if c.NetByName("n1").Degree() != 3 {
		t.Fatalf("n1 degree = %d", c.NetByName("n1").Degree())
	}
}

func TestParseMnetUnconnectedPin(t *testing.T) {
	in := `
module nc
port out y
device g1 DFF d - y
device g2 INV y d
end
`
	c, err := ParseMnet(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	d := c.DeviceByName("g1")
	if d.Pins[1] != nil {
		t.Fatal("'-' pin should be unconnected")
	}
	if d.Pins[0] == nil || d.Pins[0].Name != "d" {
		t.Fatal("pin 0 should connect to d")
	}
}

func TestParseMnetErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"empty", ""},
		{"no module header", "port in a\n"},
		{"dup module", "module a\nmodule b\nend\n"},
		{"module args", "module\nend\n"},
		{"bad port", "module m\nport a\nend\n"},
		{"bad dir", "module m\nport sideways a\nend\n"},
		{"short device", "module m\ndevice g INV\nend\n"},
		{"unknown directive", "module m\nwombat\nend\n"},
		{"no end", "module m\ndevice g INV a b\n"},
		{"trailing content", "module m\ndevice g INV a b\nend\ndevice h INV b a\n"},
		{"end with args", "module m\ndevice g INV a b\nend now\n"},
		{"reserved device name", "module m\ndevice $g INV a b\nend\n"},
		{"reserved net name", "module m\ndevice g INV $a b\nend\n"},
		{"reserved module name", "module $m\ndevice g INV a b\nend\n"},
		{"reserved port name", "module m\nport in $a\ndevice g INV a b\nend\n"},
		{"dash as real name", "module m\ndevice - INV a b\nend\n"},
		{"no devices", "module m\nport in a\nend\n"},
	}
	for _, c := range cases {
		if _, err := ParseMnet(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: parse accepted malformed input", c.name)
		}
	}
}

func TestMnetRoundTrip(t *testing.T) {
	c, err := ParseMnet(strings.NewReader(smallMnet))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteMnet(&buf, c); err != nil {
		t.Fatal(err)
	}
	c2, err := ParseMnet(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("reparse: %v\noutput:\n%s", err, buf.String())
	}
	if c2.Name != c.Name || c2.NumDevices() != c.NumDevices() ||
		c2.NumNets() != c.NumNets() || c2.NumPorts() != c.NumPorts() {
		t.Fatal("round trip changed circuit shape")
	}
	for _, d := range c.Devices {
		d2 := c2.DeviceByName(d.Name)
		if d2 == nil || d2.Type != d.Type || len(d2.Pins) != len(d.Pins) {
			t.Fatalf("device %q not preserved", d.Name)
		}
		for i := range d.Pins {
			switch {
			case d.Pins[i] == nil && d2.Pins[i] == nil:
			case d.Pins[i] != nil && d2.Pins[i] != nil && d.Pins[i].Name == d2.Pins[i].Name:
			default:
				t.Fatalf("device %q pin %d not preserved", d.Name, i)
			}
		}
	}
}

// TestParseMnetPaddingCostsNothing parses small modules padded with
// blank lines and comments and checks the padding is neither reserved
// for nor kept alive by the circuit: its element slices stay sized to
// its devices, and its names occupy one string no longer than they are.
func TestParseMnetPaddingCostsNothing(t *testing.T) {
	blank := strings.Repeat("\n", 200_000)
	note := strings.Repeat("# padding, padding, padding\n", 20_000)
	words := "#" + strings.Repeat(" device", 50_000) + "\n"
	cases := map[string]string{
		"blank lines":  "module m\n" + blank + smallMnet[strings.Index(smallMnet, "port"):],
		"comments":     "module m\nport in a\n" + note + "device g1 INV a b\n" + note + "device g2 INV b y\n" + blank + "port out y\nend\n",
		"device words": "module m\n" + words + "device g1 INV a y\nend\n",
	}
	for name, src := range cases {
		c, err := ParseMnet(strings.NewReader(src))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		limit := 2*c.NumDevices() + 8
		if name == "device words" {
			// A comment can spell "device" more often than devices fit
			// in the source; the reserve stays within what real device
			// lines as long would need, with slack for size classes.
			limit = len(src) / 10
		}
		if cap(c.Devices) > limit || cap(c.Nets) > limit {
			t.Errorf("%s: %d devices, %d nets hold cap %d and %d, want at most %d",
				name, c.NumDevices(), c.NumNets(), cap(c.Devices), cap(c.Nets), limit)
		}
		lo, hi, size := uintptr(0), uintptr(0), 0
		span := func(s string) {
			p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
			if lo == 0 || p < lo {
				lo = p
			}
			hi = max(hi, p+uintptr(len(s)))
			size += len(s)
		}
		span(c.Name)
		for _, d := range c.Devices {
			span(d.Name)
			span(d.Type)
		}
		for _, n := range c.Nets {
			span(n.Name)
		}
		if got := int(hi - lo); got != size {
			t.Errorf("%s: %d bytes of names span %d bytes of memory", name, size, got)
		}
		for _, p := range c.Ports {
			if unsafe.StringData(p.Name) != unsafe.StringData(p.Net.Name) {
				t.Errorf("%s: port %q does not share its net's name", name, p.Name)
			}
		}
	}
}

// parseMnetAllocCeiling is the allocation budget of parsing the
// 250-gate module below.  The source is read into one string, fields
// are substrings of it, the circuit is carved from the Builder's
// arenas and Build links every net's components from one more, which
// holds it at 55 objects.  Growing each net's component list one
// append at a time cost about 690, and a line scanner with a string
// per line and a heap object per element about 2,700.
const parseMnetAllocCeiling = 60

// BenchmarkParseMnet times the cold front end on a 250-gate generated
// module, held to parseMnetAllocCeiling.
func BenchmarkParseMnet(b *testing.B) {
	c, err := gen.RandomCircuit(gen.RandomConfig{Name: "bench250", Gates: 250, Inputs: 6, Outputs: 4, Seed: 1}, tech.NMOS25())
	if err != nil {
		b.Fatal(err)
	}
	src := renderMnet(c)
	parse := func() {
		if _, err := ParseMnet(strings.NewReader(src)); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parse()
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(20, parse); allocs > parseMnetAllocCeiling {
		b.Fatalf("ParseMnet allocates %.0f objects, ceiling %d", allocs, parseMnetAllocCeiling)
	}
}

func TestWriteMnetRejectsGeneratedNames(t *testing.T) {
	b := netlist.NewBuilder("g")
	b.AddDevice("u$1", "INV", "a", "b")
	b.AddDevice("u2", "INV", "b", "a")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteMnet(&bytes.Buffer{}, c); err == nil {
		t.Fatal("expected rejection of generated device name")
	}
	b2 := netlist.NewBuilder("g")
	b2.AddDevice("u1", "INV", "$a", "b")
	b2.AddDevice("u2", "INV", "b", "$a")
	c2, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteMnet(&bytes.Buffer{}, c2); err == nil {
		t.Fatal("expected rejection of generated net name")
	}
}

const smallBench = `
# c17-like
INPUT(g1)
INPUT(g2)
INPUT(g3)
INPUT(g6)
INPUT(g7)
OUTPUT(g22)
OUTPUT(g23)
g10 = NAND(g1, g3)
g11 = NAND(g3, g6)
g16 = NAND(g2, g11)
g19 = NAND(g11, g7)
g22 = NAND(g10, g16)
g23 = NAND(g16, g19)
`

func TestParseBench(t *testing.T) {
	p := tech.NMOS25()
	c, err := ParseBench(strings.NewReader(smallBench), "c17", p)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "c17" {
		t.Fatalf("name = %q", c.Name)
	}
	if c.NumDevices() != 6 {
		t.Fatalf("N = %d, want 6", c.NumDevices())
	}
	if c.NumPorts() != 7 {
		t.Fatalf("ports = %d, want 7", c.NumPorts())
	}
	for _, d := range c.Devices {
		if d.Type != "NAND2" {
			t.Fatalf("device %q type %q, want NAND2", d.Name, d.Type)
		}
	}
	if !c.NetByName("g22").External() {
		t.Fatal("g22 should be an output port net")
	}
}

func TestParseBenchGateVariety(t *testing.T) {
	p := tech.NMOS25()
	in := `
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(q)
n1 = AND(a, b, c)
n2 = XOR(a, n1)
n3 = NOT(n2)
n4 = OR(n3, b)
q = DFF(n4)
`
	circ, err := ParseBench(strings.NewReader(in), "mix", p)
	if err != nil {
		t.Fatal(err)
	}
	// AND3 -> NAND3+INV (2), XOR -> 1, NOT -> 1, OR -> NOR2+INV (2),
	// DFF -> 1: total 7.
	if circ.NumDevices() != 7 {
		t.Fatalf("N = %d, want 7", circ.NumDevices())
	}
}

func TestParseBenchErrors(t *testing.T) {
	p := tech.NMOS25()
	cases := []struct{ name, in string }{
		{"garbage", "this is not bench\n"},
		{"bad input decl", "INPUT a\n"},
		{"empty input decl", "INPUT()\n"},
		{"bad call", "y = NAND\n"},
		{"empty fn", "y = (a, b)\n"},
		{"empty arg", "INPUT(a)\ny = NAND(a, )\n"},
		{"unknown fn", "INPUT(a)\ny = MAJ3(a, a, a)\n"},
		{"empty lhs", "INPUT(a)\n = NAND(a, a)\n"},
		{"no gates", "INPUT(a)\nOUTPUT(a)\n"},
	}
	for _, c := range cases {
		if _, err := ParseBench(strings.NewReader(c.in), "bad", p); err == nil {
			t.Errorf("%s: accepted malformed input", c.name)
		}
	}
}

func TestParseBenchToStatsIntegration(t *testing.T) {
	p := tech.NMOS25()
	c, err := ParseBench(strings.NewReader(smallBench), "c17", p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := netlist.Gather(c, p)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 6 || s.NumPorts != 7 {
		t.Fatalf("stats N=%d ports=%d", s.N, s.NumPorts)
	}
	// Every routable net in c17 has degree 2: g3(g10,g11), g11(g16,g19),
	// g10(g22), g16(g22,g23)... g10 has degree 2 (nand g10 out + g22 in).
	if s.H == 0 || s.MaxDegree < 2 {
		t.Fatalf("stats H=%d maxD=%d", s.H, s.MaxDegree)
	}
}

func TestParseBenchMux(t *testing.T) {
	p := tech.NMOS25()
	in := `
INPUT(s)
INPUT(a)
INPUT(b)
OUTPUT(y)
y = MUX(s, a, b)
`
	c, err := ParseBench(strings.NewReader(in), "mx", p)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumDevices() != 1 || c.Devices[0].Type != "MUX2" {
		t.Fatalf("bench mux: %d devices", c.NumDevices())
	}
}
