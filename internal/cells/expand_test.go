package cells_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"maest/internal/cells"
	"maest/internal/core"
	"maest/internal/gen"
	"maest/internal/geom"
	"maest/internal/netlist"
	"maest/internal/tech"
)

// edgeSketches are hand-made corners of the expansion, in sketch form.
var edgeSketches = []string{
	"NAND2 a a y\nINV y z\nport a z",                       // aliased inputs
	"NAND3 a - y\nNOR3 - b y2\nport a b y y2",              // unconnected inputs
	"INV a -\nNAND2 a b -\nport a b",                       // unloaded outputs
	"aoi22 a b c d y\nport a b c d y",                      // lowercase: expands as NAND4
	"AOI22 a b c d y\nAOI22 y a b c z\nport a z",           // the real AOI22 network
	"DLATCH d - q\nDFF q - r\nport d r",                    // latch and flop without a clock
	"DLATCH d clk q\nDFF q clk r\nport d clk r",            // clocked
	"INV a b y\nNAND2 a b c d y2\nXOR2 a b c x\nport a y2", // inputs beyond the fan-in
	"AND2 a b y\nOR3 a b c z\nBUF y w\nMUX2 s w z m\nDFF m clk q\nport a b c s clk q",
	"XNOR2 a b y\nXOR2 y a z\nMUX2 s a b c m\nport a b s z m",
	"NAND8 a b c d e f g h y\nNOR2 y a z\nport z", // wide fan-in
	"T g s d\nT d d -\nINV d y\nport g s y",       // transistors pass through
	"INV a $n1\nINV $n1 y\nport a y",              // the mapper's own "$" nets stay legal
	"T $s1 a b\nport $s1 a b",                     // no cells, nothing minted: "$s1" is fine
	// Both routes must fail these with the same message.
	"NAND2 $s1 a y\nport $s1 y",   // reserved for generated names
	"INV a y\nINV y $g12\nport a", // ditto, on an output
	"NOR2 - - y\nport y",          // NOR with no inputs
	"XOR2 a - y\nport a y",        // XOR with one input
	"MUX2 s a y\nport s y",        // MUX short of inputs
	"AOI22 a b y\nport a y",       // AOI22 short of inputs
	"DFF - - q\nport q",           // latch with no data input
	"INV\nINV a y\nport a y",      // cell without pins
	"MYSTERY a y\nport a y",       // cell with no logic function
	"WOMBAT a y\nport a y",        // type the process lacks
}

// sketch builds a circuit from lines of "TYPE net..." ("-" leaves a
// pin open) or "port net...".  Devices are named u0, u1, ...
func sketch(src string) (*netlist.Circuit, error) {
	b := netlist.NewBuilder("sk")
	for i, line := range strings.Split(src, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if f[0] == "port" {
			for _, n := range f[1:] {
				b.AddPort("p_"+n, netlist.InOut, n)
			}
			continue
		}
		pins := f[1:]
		for j := range pins {
			if pins[j] == "-" {
				pins[j] = ""
			}
		}
		b.AddDevice(fmt.Sprintf("u%d", i), f[0], pins...)
	}
	return b.Build()
}

// sketchProcess is a builtin process plus a transistor T, cell names
// the builtins lack but CellFunc recognizes, and one cell it does not.
func sketchProcess(cmos bool) *tech.Process {
	p := tech.NMOS25()
	if cmos {
		p = tech.CMOS30()
	}
	p.AddDevice(tech.Device{Name: "T", Class: tech.ClassTransistor, Width: 10, Height: 6, Pins: 3})
	for i, name := range []string{"aoi22", "AND2", "OR3", "XNOR2", "NAND8", "MYSTERY"} {
		p.AddDevice(tech.Device{Name: name, Class: tech.ClassCell, Width: geom.Lambda(20 + 2*i), Height: p.RowHeight, Pins: 3})
	}
	return p
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkOracle holds ExpandStats to the netlist route on one circuit:
// the statistics equal netlist.GatherFC of ExpandTransistors' output,
// both Eq. 13 modes equal core.EstimateFullCustom's with ==, and every
// error matches word for word.  It returns the expansion, or nil.
func checkOracle(t *testing.T, c *netlist.Circuit, p *tech.Process) *netlist.Circuit {
	t.Helper()
	s, serr := cells.ExpandStats(c, p)
	x, xerr := cells.ExpandTransistors(c, p)
	if errText(serr) != errText(xerr) {
		t.Fatalf("%s/%s: ExpandStats error %q, ExpandTransistors error %q", p.Name, c.Name, errText(serr), errText(xerr))
	}
	if xerr != nil {
		return nil
	}
	want, err := netlist.GatherFC(x, p)
	if err != nil {
		t.Fatalf("%s/%s: GatherFC: %v", p.Name, c.Name, err)
	}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("%s/%s: ExpandStats\n%+v\nwant\n%+v", p.Name, c.Name, s, want)
	}
	for _, mode := range []core.FCMode{core.FCExactAreas, core.FCAverageAreas} {
		got, gerr := core.EstimateFullCustomStats(s, p, mode)
		exp, eerr := core.EstimateFullCustom(x, p, mode)
		if errText(gerr) != errText(eerr) {
			t.Fatalf("%s/%s %v: error %q, oracle %q", p.Name, c.Name, mode, errText(gerr), errText(eerr))
		}
		if gerr == nil && *got != *exp {
			t.Fatalf("%s/%s %v: %+v, oracle %+v", p.Name, c.Name, mode, *got, *exp)
		}
	}
	return x
}

// TestExpandStatsMatchesOracle runs checkOracle over the Table 2
// golden modules, the gen suites, 220 random circuits and the edge
// sketches, on both builtin processes.  It also feeds every minted net
// name back in as a gate-level net, which the expansion must reject.
func TestExpandStatsMatchesOracle(t *testing.T) {
	for _, cmos := range []bool{false, true} {
		p := sketchProcess(cmos)
		var cs []*netlist.Circuit
		add := func(more ...*netlist.Circuit) { cs = append(cs, more...) }
		sc, err := gen.StandardCellSuite(p)
		if err != nil {
			t.Fatal(err)
		}
		add(sc...)
		fc, err := gen.FullCustomSuite(p)
		if err != nil {
			t.Fatal(err)
		}
		add(fc...)
		for _, mk := range []func() (*netlist.Circuit, error){
			func() (*netlist.Circuit, error) { return gen.RSLatch("rs", p) },
			func() (*netlist.Circuit, error) { return gen.FullAdder("fa", p) },
			func() (*netlist.Circuit, error) { return gen.Decoder2("dec", p) },
			func() (*netlist.Circuit, error) { return gen.ShiftRegister("shift", 6, p) },
			func() (*netlist.Circuit, error) { return gen.Chain("chain", 9, p) },
		} {
			c, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			add(c)
		}
		for i := 0; i < 110; i++ {
			c, err := gen.RandomCircuit(gen.RandomConfig{
				Gates: 40 + i*7, Inputs: 1 + i%7, Outputs: i % 6,
				Locality: 0.1 + float64(i%10)/10, Seed: int64(i),
			}, p)
			if err != nil {
				t.Fatal(err)
			}
			add(c)
		}
		for _, src := range edgeSketches {
			c, err := sketch(src)
			if err != nil {
				t.Fatalf("sketch %q: %v", src, err)
			}
			add(c)
		}
		add(&netlist.Circuit{Name: "empty"}) // no Builder makes one; both routes must refuse it alike

		minted := map[byte]string{}
		for _, c := range cs {
			x := checkOracle(t, c, p)
			if x == nil {
				continue
			}
			for _, n := range x.Nets {
				if strings.HasPrefix(n.Name, "$") && c.NetByName(n.Name) == nil {
					minted[n.Name[1]] = n.Name
				}
			}
		}
		for _, name := range minted {
			c, err := sketch("INV a " + name + "\nport a")
			if err != nil {
				t.Fatal(err)
			}
			for _, route := range []func(*netlist.Circuit, *tech.Process) error{
				func(c *netlist.Circuit, p *tech.Process) error { _, err := cells.ExpandStats(c, p); return err },
				func(c *netlist.Circuit, p *tech.Process) error { _, err := cells.ExpandTransistors(c, p); return err },
			} {
				if err := route(c, p); err == nil || !strings.Contains(err.Error(), "reserved for generated names") {
					t.Errorf("%s: gate-level net %q: err = %v, want it reserved", p.Name, name, err)
				}
			}
		}
	}
}

// FuzzExpandStats checks ExpandStats against the netlist route on
// arbitrary sketches, seeded with the edge cases.
func FuzzExpandStats(f *testing.F) {
	for _, src := range edgeSketches {
		f.Add(src, false)
		f.Add(src, true)
	}
	f.Fuzz(func(t *testing.T, src string, cmos bool) {
		if len(src) > 4096 {
			t.Skip("oversized sketch")
		}
		c, err := sketch(src)
		if err != nil {
			t.Skip("not a circuit")
		}
		checkOracle(t, c, sketchProcess(cmos))
	})
}
