package hdl

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"

	"maest/internal/cells"
	"maest/internal/engine"
	"maest/internal/gen"
	"maest/internal/netlist"
	"maest/internal/pla"
	"maest/internal/tech"
)

// parseMnetScanner is the .mnet parser as it was written over a
// bufio.Scanner (1 MiB line limit) and strings.Fields, kept as the
// oracle for ParseMnet's in-place tokenizer.
func parseMnetScanner(r io.Reader) (*netlist.Circuit, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var (
		b      *netlist.Builder
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
		key := fields[0]
		if b == nil && key != "module" {
			return nil, fmt.Errorf("hdl: line %d: %q before module header", line, key)
		}
		if closed {
			return nil, fmt.Errorf("hdl: line %d: content after 'end'", line)
		}
		switch key {
		case "module":
			if b != nil {
				return nil, fmt.Errorf("hdl: line %d: duplicate module header", line)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("hdl: line %d: want 'module <name>'", line)
			}
			if err := checkName(fields[1], line); err != nil {
				return nil, err
			}
			b = netlist.NewBuilder(fields[1])
		case "port":
			if len(fields) != 3 {
				return nil, fmt.Errorf("hdl: line %d: want 'port <dir> <net>'", line)
			}
			dir, err := netlist.ParsePortDir(fields[1])
			if err != nil {
				return nil, fmt.Errorf("hdl: line %d: %v", line, err)
			}
			if err := checkName(fields[2], line); err != nil {
				return nil, err
			}
			b.AddPort(fields[2], dir, fields[2])
		case "device":
			if len(fields) < 4 {
				return nil, fmt.Errorf("hdl: line %d: want 'device <name> <type> <net>...'", line)
			}
			if err := checkName(fields[1], line); err != nil {
				return nil, err
			}
			nets := make([]string, len(fields)-3)
			for i, f := range fields[3:] {
				if f == unconnected {
					continue
				}
				if err := checkName(f, line); err != nil {
					return nil, err
				}
				nets[i] = f
			}
			b.AddDevice(fields[1], fields[2], nets...)
		case "end":
			if len(fields) != 1 {
				return nil, fmt.Errorf("hdl: line %d: 'end' takes no arguments", line)
			}
			closed = true
		default:
			return nil, fmt.Errorf("hdl: line %d: unknown directive %q", line, key)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("hdl: read: %w", err)
	}
	if b == nil {
		return nil, fmt.Errorf("hdl: no module found")
	}
	if !closed {
		return nil, fmt.Errorf("hdl: module not closed with 'end'")
	}
	c, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("hdl: %w", err)
	}
	return c, nil
}

// diffCircuits returns the first difference between two circuits in
// names, element order, pin lists, per-net component order, pin
// counts, ports and canonical rendering, or "" when there is none.
func diffCircuits(got, want *netlist.Circuit) string {
	netName := func(n *netlist.Net) string {
		if n == nil {
			return "-"
		}
		return n.Name
	}
	if got.Name != want.Name {
		return fmt.Sprintf("module %q, want %q", got.Name, want.Name)
	}
	if len(got.Devices) != len(want.Devices) || len(got.Nets) != len(want.Nets) || len(got.Ports) != len(want.Ports) {
		return fmt.Sprintf("%d/%d/%d devices/nets/ports, want %d/%d/%d",
			len(got.Devices), len(got.Nets), len(got.Ports), len(want.Devices), len(want.Nets), len(want.Ports))
	}
	for i, d := range got.Devices {
		w := want.Devices[i]
		if d.Index != i || d.Name != w.Name || d.Type != w.Type || len(d.Pins) != len(w.Pins) {
			return fmt.Sprintf("device %d: %d %q %q %d pins, want %q %q %d pins",
				i, d.Index, d.Name, d.Type, len(d.Pins), w.Name, w.Type, len(w.Pins))
		}
		for j, p := range d.Pins {
			if netName(p) != netName(w.Pins[j]) {
				return fmt.Sprintf("device %q pin %d on %q, want %q", d.Name, j, netName(p), netName(w.Pins[j]))
			}
		}
	}
	for i, n := range got.Nets {
		w := want.Nets[i]
		if n.Index != i || n.Name != w.Name || n.PinCount != w.PinCount ||
			len(n.Devices) != len(w.Devices) || len(n.Ports) != len(w.Ports) {
			return fmt.Sprintf("net %d: %d %q pins=%d D=%d ports=%d, want %q pins=%d D=%d ports=%d",
				i, n.Index, n.Name, n.PinCount, len(n.Devices), len(n.Ports),
				w.Name, w.PinCount, len(w.Devices), len(w.Ports))
		}
		for j, d := range n.Devices {
			if d != got.Devices[d.Index] || d.Name != w.Devices[j].Name {
				return fmt.Sprintf("net %q component %d is %q, want %q", n.Name, j, d.Name, w.Devices[j].Name)
			}
		}
		for j, p := range n.Ports {
			if p.Net != n || p.Name != w.Ports[j].Name {
				return fmt.Sprintf("net %q port %d is %q, want %q", n.Name, j, p.Name, w.Ports[j].Name)
			}
		}
	}
	for i, p := range got.Ports {
		w := want.Ports[i]
		if p.Name != w.Name || p.Dir != w.Dir || netName(p.Net) != netName(w.Net) {
			return fmt.Sprintf("port %d: %q %v on %q, want %q %v on %q",
				i, p.Name, p.Dir, netName(p.Net), w.Name, w.Dir, netName(w.Net))
		}
	}
	_, g := engine.Canonicalize(nil, got, nil)
	if _, w := engine.Canonicalize(nil, want, nil); !bytes.Equal(g, w) {
		return fmt.Sprintf("canonical rendering differs:\n%s\nwant:\n%s", g, w)
	}
	return ""
}

// checkComponents recomputes every net's component list and pin count
// from the device pins alone (devices join a net in index order, each
// once) and compares: an oracle for the Builder that does not share
// its code.
func checkComponents(c *netlist.Circuit) string {
	for _, n := range c.Nets {
		var want []*netlist.Device
		pins := 0
		for _, d := range c.Devices {
			on := false
			for _, p := range d.Pins {
				if p == n {
					pins++
					on = true
				}
			}
			if on {
				want = append(want, d)
			}
		}
		if n.PinCount != pins || len(n.Devices) != len(want) {
			return fmt.Sprintf("net %q: %d pins over %d devices, recomputed %d over %d",
				n.Name, n.PinCount, len(n.Devices), pins, len(want))
		}
		for i, d := range want {
			if n.Devices[i] != d {
				return fmt.Sprintf("net %q component %d is %q, recomputed %q", n.Name, i, n.Devices[i].Name, d.Name)
			}
		}
	}
	return ""
}

// matchScanner parses input with ParseMnet and with the scanner
// oracle and fails unless both return the same error text or matching
// circuits.
func matchScanner(tb testing.TB, label, input string) {
	tb.Helper()
	got, gotErr := ParseMnet(strings.NewReader(input))
	want, wantErr := parseMnetScanner(strings.NewReader(input))
	switch {
	case gotErr != nil || wantErr != nil:
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			tb.Fatalf("%s: error %v, scanner %v", label, gotErr, wantErr)
		}
	default:
		if d := diffCircuits(got, want); d != "" {
			tb.Fatalf("%s: %s", label, d)
		}
		if d := checkComponents(got); d != "" {
			tb.Fatalf("%s: %s", label, d)
		}
	}
}

// renderMnet writes c as .mnet text with each '$' of a generated name
// turned into '_', so generated circuits (mapper and transistor
// expansion output) become parsable sources.
func renderMnet(c *netlist.Circuit) string {
	name := func(s string) string { return strings.ReplaceAll(s, "$", "_") }
	var sb strings.Builder
	fmt.Fprintf(&sb, "module %s\n", name(c.Name))
	for _, p := range c.Ports {
		fmt.Fprintf(&sb, "port %s %s\n", p.Dir, name(p.Net.Name))
	}
	for _, d := range c.Devices {
		fmt.Fprintf(&sb, "device %s %s", name(d.Name), d.Type)
		for _, n := range d.Pins {
			if n == nil {
				sb.WriteString(" -")
			} else {
				sb.WriteString(" " + name(n.Name))
			}
		}
		sb.WriteString("\n")
	}
	sb.WriteString("end\n")
	return sb.String()
}

func TestParseMnetMatchesScanner(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.mnet"))
	if err != nil || len(files) == 0 {
		t.Fatalf("testdata modules: %v (%d found)", err, len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		matchScanner(t, f, string(src))
	}

	p := tech.NMOS25()
	fc, err := gen.FullCustomSuite(p)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := gen.StandardCellSuite(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range append(fc, sc...) {
		matchScanner(t, c.Name, renderMnet(c))
	}

	// Modules shaped like loadbench's: 40–800 gates log-uniform,
	// locality 0.3–0.9, 3–8 inputs, 2–7 outputs.
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 200; i++ {
		cfg := gen.RandomConfig{
			Name:     fmt.Sprintf("rand%d", i),
			Gates:    int(math.Round(40 * math.Exp(rng.Float64()*math.Log(20)))),
			Inputs:   3 + rng.Intn(6),
			Outputs:  2 + rng.Intn(6),
			Locality: 0.3 + 0.6*rng.Float64(),
			Seed:     rng.Int63(),
		}
		c, err := gen.RandomCircuit(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		matchScanner(t, cfg.Name, renderMnet(c))
	}

	const body = "port in a\nport out y\ndevice g1 NAND2 a - n1\ndevice g2 INV n1 y\nend\n"
	long := func(n int) string { return "#" + strings.Repeat("x", n-1) }
	cases := map[string]string{
		"small":              smallMnet,
		"crlf":               strings.ReplaceAll("module m\n"+body, "\n", "\r\n"),
		"no final newline":   "module m\n" + strings.TrimSuffix(body, "\n"),
		"tab vt ff":          "module\tm\n\vport in a\f\nport\tout\vy\ndevice g1 NAND2\ta\f-\vn1\r\ndevice g2 INV n1 y\nend\n",
		"nel":                "module m\u0085\nport in a\nport out y\ndevice g1\u0085NAND2 a - n1\ndevice g2 INV n1 y\u0085\nend\n",
		"nbsp":               "module m\nport in\u00a0a\nport out y\n\u00a0device g1 NAND2 a - n1\ndevice g2 INV n1 y\nend\u00a0\n",
		"nbsp in name":       "module m\u00a0x\n" + body,
		"invalid utf8":       "module m\xff\n" + body,
		"utf8 names":         "module modulé\nport in ä\nport out y\ndevice g1 NAND2 ä - n1\ndevice g2 INV n1 y\nend\n",
		"comments":           "# head\n  # indented\nmodule m\n#port in z\n" + body + "# tail\n",
		"hash mid-line":      "module m\nport in a\nport out y\ndevice g1 NAND2 a #c n1\ndevice g2 INV n1 y\nend\n",
		"blank lines":        "\n\n   \nmodule m\n\n" + body + "\n\n",
		"all pins open":      "module m\nport in a\nport out y\ndevice g0 DFF - - -\ndevice g1 NAND2 a - n1\ndevice g2 INV n1 y\nend\n",
		"port-only net":      "module m\nport in a\nport in z\nport out y\ndevice g1 NAND2 a - n1\ndevice g2 INV n1 y\nend\n",
		"pin twice":          "module m\nport in a\nport out y\ndevice g1 NAND2 a a n1\ndevice g2 INV n1 y\nend\n",
		"pin revisit":        "module m\nport in a\nport out y\ndevice g1 NAND3 a n1 a n1\ndevice g2 INV n1 y\nend\n",
		"duplicate device":   "module m\nport in a\nport out y\ndevice g1 NAND2 a - n1\ndevice g1 INV n1 y\nend\n",
		"duplicate port":     "module m\nport in a\nport in a\nport out y\ndevice g1 INV a y\nend\n",
		"content after end":  "module m\n" + body + "device g3 INV y a\n",
		"comment after end":  "module m\n" + body + "# fine\n\n",
		"end twice":          "module m\n" + body + "end\n",
		"empty":              "",
		"only newlines":      "\n\n\n",
		"only comment":       "# nothing\n",
		"header only":        "module m\n",
		"no devices":         "module m\nport in a\nend\n",
		"dash module":        "module -\n" + body,
		"dollar net":         "module m\nport in a\nport out y\ndevice g1 NAND2 a $n n1\ndevice g2 INV n1 y\nend\n",
		"dollar port":        "module m\nport in $a\n" + body,
		"bad dir":            "module m\nport sideways a\n" + body,
		"short device":       "module m\ndevice g INV\nend\n",
		"unknown directive":  "module m\nwombat\nend\n",
		"before header":      "port in a\nmodule m\n" + body,
		"module args":        "module a b\n" + body,
		"end args":           "module m\n" + strings.TrimSuffix(body, "end\n") + "end now\n",
		"line max":           "module m\n" + long(maxLine) + "\n" + body,
		"line max+1":         "module m\n" + long(maxLine+1) + "\n" + body,
		"line max crlf":      "module m\n" + long(maxLine-1) + "\r\n" + body,
		"line max+1 crlf":    "module m\n" + long(maxLine) + "\r\n" + body,
		"last line max":      "module m\n" + body + long(maxLine),
		"last line max+1":    "module m\n" + body + long(maxLine+1),
		"last line max nl":   "module m\n" + body + long(maxLine) + "\n",
		"last line max+1 nl": "module m\n" + body + long(maxLine+1) + "\n",
		"error before long":  "module m\nwombat\n" + long(maxLine+1) + "\n" + body,
		"first line max+1":   long(maxLine + 1),
		"long device line":   "module m\nport in a\nport out y\ndevice g1 BIG a" + strings.Repeat(" n1", (maxLine-16)/3) + "\ndevice g2 INV n1 y\nend\n",
	}
	for label, in := range cases {
		matchScanner(t, label, in)
	}
}

// TestParseMnetReadError holds the read-error ordering to the oracle:
// lines read before a failing read are parsed first, so a syntax error
// among them wins, and otherwise the read error is reported.
func TestParseMnetReadError(t *testing.T) {
	boom := errors.New("boom")
	for _, in := range []string{
		"module m\ndevice g INV a b\nend\n",
		"module m\nwombat\n",
		"module m\ndevice g INV a b\nen",
		"",
	} {
		r := func() io.Reader { return io.MultiReader(strings.NewReader(in), iotest.ErrReader(boom)) }
		_, gotErr := ParseMnet(r())
		_, wantErr := parseMnetScanner(r())
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%q: error %v, scanner %v", in, gotErr, wantErr)
		}
	}
	_, err := ParseMnet(iotest.OneByteReader(strings.NewReader(smallMnet)))
	if err != nil {
		t.Fatalf("one-byte reads: %v", err)
	}
}

// TestBuilderUsersLinkComponents runs checkComponents over every
// Builder user: the .mnet, .bench and Verilog front ends, the generated
// suites and random modules, the transistor expansion of cell-level
// modules, and the PLA generator.  Build links the component lists in
// one pass; this holds them to the device pins in every shape those
// users build.
func TestBuilderUsersLinkComponents(t *testing.T) {
	p := tech.NMOS25()
	var circs []*netlist.Circuit
	add := func(c *netlist.Circuit, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		circs = append(circs, c)
	}
	open := func(name string) *os.File {
		t.Helper()
		f, err := os.Open(filepath.Join("..", "..", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}
	add(ParseMnet(open("demo.mnet")))
	add(ParseMnet(open("ladder.mnet")))
	add(ParseBench(open("c17.bench"), "c17", p))
	add(ParseBench(open("rand180.bench"), "rand180", p))
	add(ParseVerilog(open("fa.v"), p))
	fc, err := gen.FullCustomSuite(p)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := gen.StandardCellSuite(p)
	if err != nil {
		t.Fatal(err)
	}
	circs = append(append(circs, fc...), sc...)
	add(gen.RandomCircuit(gen.RandomConfig{Name: "links", Gates: 120, Inputs: 6, Outputs: 4, Seed: 5}, p))
	add(gen.Chain("chain", 9, p))
	chip, err := gen.RandomChip(gen.ChipConfig{Name: "chip", Modules: 3, MinGates: 10, MaxGates: 30, Seed: 2}, p)
	if err != nil {
		t.Fatal(err)
	}
	circs = append(circs, chip.Modules...)
	for _, c := range circs {
		if c.Devices[0].Type != "ENH" && c.Devices[0].Type != "DEP" {
			add(cells.ExpandTransistors(c, p))
		}
	}
	q, err := pla.Random(5, 3, 8, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	add(q.Circuit("pla", p))
	for _, c := range circs {
		if d := checkComponents(c); d != "" {
			t.Errorf("%s: %s", c.Name, d)
		}
	}
}
