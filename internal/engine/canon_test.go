package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding"
	"errors"
	"fmt"
	"sort"
	"testing"

	"maest/internal/netlist"
	"maest/internal/tech"
)

// oracleRender is the canonical rendering as the engine derived it
// before Canon: sort the ports and devices by name, then render.  It
// is a test-only copy, so Canonicalize's one pass has a reference
// that shares none of its code.
func oracleRender(c *netlist.Circuit) []byte {
	ports := append([]*netlist.Port(nil), c.Ports...)
	sort.Slice(ports, func(i, j int) bool { return ports[i].Name < ports[j].Name })
	devs := append([]*netlist.Device(nil), c.Devices...)
	sort.Slice(devs, func(i, j int) bool { return devs[i].Name < devs[j].Name })
	var b bytes.Buffer
	fmt.Fprintf(&b, "module %s\n", c.Name)
	for _, p := range ports {
		fmt.Fprintf(&b, "port %s %s %s\n", p.Name, p.Dir, p.Net.Name)
	}
	for _, d := range devs {
		fmt.Fprintf(&b, "device %s %s", d.Name, d.Type)
		for _, n := range d.Pins {
			if n == nil {
				b.WriteString(" -")
			} else {
				b.WriteString(" " + n.Name)
			}
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// oracleHash is the old HashCanonical: SHA-256 over the rendering and
// the process bytes.
func oracleHash(c *netlist.Circuit, p *tech.Process) Hash {
	return sha256.Sum256(append(oracleRender(c), tech.Append(nil, p)...))
}

// oracleMidstate is the old midstateOf: the marshaled SHA-256 state
// after the rendering.
func oracleMidstate(c *netlist.Circuit) []byte {
	h := sha256.New()
	h.Write(oracleRender(c))
	mid, err := h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic(err)
	}
	return mid
}

// checkOracle fails unless the plan's hash and midstate, and a fresh
// Canonicalize of its circuit, equal the old derivation's.
func checkOracle(t *testing.T, label string, pl *Plan) {
	t.Helper()
	c, p := pl.Circuit(), pl.Process()
	if got, want := pl.Hash(), oracleHash(c, p); got != want {
		t.Fatalf("%s: plan hash %s, oracle %s", label, got, want)
	}
	want := oracleMidstate(c)
	if got := pl.Midstate(); !bytes.Equal(got[:], want) {
		t.Fatalf("%s: plan midstate differs from the oracle's", label)
	}
	k, canon := Canonicalize([]byte("prefix"), c, p)
	if !bytes.Equal(canon[len("prefix"):], oracleRender(c)) {
		t.Fatalf("%s: rendering differs:\n%s\noracle:\n%s", label, canon, oracleRender(c))
	}
	if k.Hash() != pl.Hash() || !bytes.Equal(k.Midstate()[:], want) {
		t.Fatalf("%s: Canonicalize disagrees with the plan", label)
	}
	if PlanHash(c, p) != pl.Hash() {
		t.Fatalf("%s: PlanHash disagrees with the plan", label)
	}
}

// TestCanonMatchesOracle holds the single derivation to the old
// render → hash → midstate chain over the differential corpus (the
// testdata netlists and both generated suites) and Delta chains of
// every edit kind, the ResizeRows child and the SwapProcess recompile
// included.
func TestCanonMatchesOracle(t *testing.T) {
	p := tech.NMOS25()
	kinds := map[string]int{}
	for i, base := range diffCorpus(t, p) {
		pl, err := Compile(base, p)
		if err != nil {
			t.Fatal(err)
		}
		checkOracle(t, base.Name, pl)
		g := newScriptGen(int64(41+i), base)
		cur := pl
		for s := 0; s < 40; s++ {
			script := g.script(cur.Circuit())
			child, err := cur.Delta(script...)
			if err != nil {
				continue
			}
			for _, e := range script {
				kinds[fmt.Sprintf("%T", e)]++
			}
			checkOracle(t, fmt.Sprintf("%s step %d %s", base.Name, s, scriptString(script)), child)
			if !scriptSwapsProcess(script) {
				cur = child
			}
		}
	}
	for _, e := range []Edit{AddNet("", ""), RemoveNet(""), ConnectPin("", ""), DisconnectPin("", ""),
		AddCell("", ""), RemoveCell(""), ResizeRows(0), SwapProcess(nil)} {
		if kinds[fmt.Sprintf("%T", e)] == 0 {
			t.Errorf("no successful Delta exercised %T", e)
		}
	}
}

// TestDeltaRefusesNamesThatAliasRenderings pins the name rule at the
// edit algebra: before it, each refused edit below produced a child
// whose canonical rendering, and so plan hash, equalled a different
// circuit's.
func TestDeltaRefusesNamesThatAliasRenderings(t *testing.T) {
	p := tech.NMOS25()
	a := compileMnet(t, "module m\nport in x\ndevice g INV x y\ndevice p INV y z\ndevice q INV z w\nend\n", p)
	parent := compileMnet(t, "module m\nport in x\ndevice g INV x y\nend\n", p)
	for _, tc := range []struct {
		name string
		edit Edit
	}{
		{"device name spanning two lines", AddCell("p INV y z\ndevice q", "INV", "z", "w")},
		{"net named like an open pin", AddCell("k", "INV", "-", "y")},
		{"net name with a space", AddCell("k", "INV", "y z", "w")},
		{"type with a space", AddCell("k", "INV y", "z")},
		{"connect to a net named -", ConnectPin("g", "-")},
		{"add a net named -", AddNet("-", "g")},
		{"net name with a tab", AddNet("n\t1", "g")},
	} {
		child, err := parent.Delta(tc.edit)
		if err == nil {
			t.Errorf("%s: accepted as plan %.12s (circuit A is %.12s)", tc.name, child.Hash(), a.Hash())
		} else if !errors.Is(err, netlist.ErrInvalidCircuit) {
			t.Errorf("%s: err = %v, want ErrInvalidCircuit", tc.name, err)
		}
	}
	// The open pin itself stays legal, and renders as "-".
	open, err := parent.Delta(AddCell("k", "INV", "", "y"))
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, "open pin", open)
}
