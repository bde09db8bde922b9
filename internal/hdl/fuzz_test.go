package hdl

import (
	"bytes"
	"strings"
	"testing"

	"maest/internal/tech"
)

// FuzzParseMnet checks the parser never panics, agrees with the
// scanner oracle (same error text or matching circuits), and that
// successful parses round-trip through WriteMnet (when names are
// writable).
func FuzzParseMnet(f *testing.F) {
	f.Add(smallMnet)
	f.Add("module m\ndevice g INV a b\nend\n")
	f.Add("module m\nport in a\ndevice g DFF a - q\nend\n")
	f.Add("")
	f.Add("module\n")
	f.Add("module m\ndevice $g INV a b\nend\n")
	f.Add("module m\r\nport in a\r\ndevice g NAND2 a a q\r\nend")
	f.Add("module\tm\v\ndevice g\u0085INV a b\f\nend\n")
	f.Fuzz(func(t *testing.T, input string) {
		matchScanner(t, "input", input)
		c, err := ParseMnet(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteMnet(&buf, c); err != nil {
			return // unwritable names are fine
		}
		c2, err := ParseMnet(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reparse of own output failed: %v\n%s", err, buf.String())
		}
		if c2.NumDevices() != c.NumDevices() || c2.NumNets() != c.NumNets() {
			t.Fatalf("round trip changed shape")
		}
		if d := checkComponents(c2); d != "" {
			t.Fatalf("reparse of own output: %s", d)
		}
	})
}

// FuzzParseBench checks the .bench front end never panics.
func FuzzParseBench(f *testing.F) {
	f.Add(smallBench)
	f.Add("INPUT(a)\ny = NOT(a)\nOUTPUT(y)\n")
	f.Add("y = NAND(a\n")
	f.Add("INPUT()\n")
	f.Add("= NAND(a, b)\n")
	p := tech.NMOS25()
	f.Fuzz(func(t *testing.T, input string) {
		c, err := ParseBench(strings.NewReader(input), "fz", p)
		if err != nil {
			return
		}
		if c.NumDevices() == 0 {
			t.Fatal("successful parse produced empty circuit")
		}
		if d := checkComponents(c); d != "" {
			t.Fatal(d)
		}
	})
}
