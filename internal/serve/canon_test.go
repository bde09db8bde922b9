package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"maest/internal/gen"
	"maest/internal/netlist"
	"maest/internal/tech"
)

// oracleRender is the canonical rendering as the serving layer derived
// it before the engine's single derivation: ports and devices sorted by
// name.  It is a test-only copy sharing none of the engine's code.
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

// oracleKey is SHA-256 over the circuit's oracle rendering and the
// given suffix: the plan key with the process bytes, an answer key with
// its formatted knobs.
func oracleKey(c *netlist.Circuit, suffix []byte) string {
	return fmt.Sprintf("%x", sha256.Sum256(append(oracleRender(c), suffix...)))
}

// oracleSources is the key oracle's corpus as request sources: the
// testdata netlists in each front-end format, and both generated suites
// plus a random module as .mnet text ('$' of a generated name turned
// into '_').
func oracleSources(t *testing.T, p *tech.Process) []EstimateRequest {
	t.Helper()
	read := func(name string) string {
		b, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	srcs := []EstimateRequest{
		{Netlist: read("demo.mnet")},
		{Netlist: read("ladder.mnet")},
		{Format: "bench", Name: "c17", Netlist: read("c17.bench")},
		{Format: "bench", Name: "rand180", Netlist: read("rand180.bench")},
		{Format: "verilog", Netlist: read("fa.v")},
	}
	fc, err := gen.FullCustomSuite(p)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := gen.StandardCellSuite(p)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := gen.RandomCircuit(gen.RandomConfig{Name: "oracle-rand40", Gates: 40, Inputs: 5, Outputs: 4, Seed: 9}, p)
	if err != nil {
		t.Fatal(err)
	}
	name := func(s string) string { return strings.ReplaceAll(s, "$", "_") }
	for _, c := range append(append(fc, sc...), rnd) {
		var sb strings.Builder
		fmt.Fprintf(&sb, "module %s\n", name(c.Name))
		for _, port := range c.Ports {
			fmt.Fprintf(&sb, "port %s %s\n", port.Dir, name(port.Net.Name))
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
			sb.WriteByte('\n')
		}
		sb.WriteString("end\n")
		srcs = append(srcs, EstimateRequest{Netlist: sb.String()})
	}
	return srcs
}

// TestAnswerKeysMatchOracle holds every content address the server
// answers with — plan keys, estimate result keys, congestion keys,
// alias targets and the keys of Delta children, a process swap's
// recompile included — to SHA-256 over the oracle rendering.
func TestAnswerKeysMatchOracle(t *testing.T) {
	p := tech.NMOS25()
	s := New(Options{})
	planOf := func(label, key string) *netlist.Circuit {
		t.Helper()
		k, err := parseKey(key)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		pl, ok := s.plans.Get(k)
		if !ok {
			t.Fatalf("%s: plan %s is not resident", label, key)
		}
		if want := oracleKey(pl.Circuit(), tech.Append(nil, pl.Process())); key != want {
			t.Fatalf("%s: plan key %s, oracle %s", label, key, want)
		}
		return pl.Circuit()
	}
	resultKey := func(c *netlist.Circuit, proc string, rows int) string {
		return oracleKey(c, fmt.Appendf(nil, "process %s\nrows %d\nsharing %t\n", proc, rows, false))
	}
	steps := map[string]int{}
	for _, src := range oracleSources(t, p) {
		label := src.Name
		if label == "" {
			label = strings.Fields(src.Netlist)[1]
		}
		first := decodeEstimate(t, do(s, "POST", "/v1/estimate", marshal(t, src)))
		c := planOf(label, first.Plan)
		if want := resultKey(c, "nmos25", 0); first.Key != want {
			t.Fatalf("%s: result key %s, oracle %s", label, first.Key, want)
		}
		alias := sourceAlias("nmos25", src.Format, src.Name, wireText(src.Netlist))
		if pl, ok := s.plans.lookupAlias(alias); !ok || Key(pl.Hash()).String() != first.Plan {
			t.Fatalf("%s: the source alias does not name plan %s", label, first.Plan)
		}
		if again := decodeEstimate(t, do(s, "POST", "/v1/estimate", marshal(t, src))); again.Key != first.Key || !again.CacheHit {
			t.Fatalf("%s: the alias hit answered key %s (hit %t), want %s", label, again.Key, again.CacheHit, first.Key)
		}

		w := do(s, "POST", "/v1/congestion", marshal(t, CongestionRequest{Format: src.Format, Name: src.Name, Netlist: src.Netlist}))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: congestion status %d: %s", label, w.Code, w.Body.String())
		}
		var cg CongestionResponse
		if err := json.Unmarshal(w.Body.Bytes(), &cg); err != nil {
			t.Fatal(err)
		}
		if want := oracleKey(c, fmt.Appendf(nil, "congest %s\nrows %d\ngridded %t\nmodel %s\ncapacity %d\nfeedbudget %d\n",
			"nmos25", cg.Rows, false, cg.Model, 0, 0)); cg.Key != want {
			t.Fatalf("%s: congestion key %s, oracle %s", label, cg.Key, want)
		}

		d0 := c.Devices[0]
		var twin []string // a new cell wired like the first device
		for _, n := range d0.Pins {
			if n == nil {
				twin = append(twin, "") // an open pin
			} else {
				twin = append(twin, n.Name)
			}
		}
		parent, rows := first.Plan, 0
		for i, e := range []EditBody{
			{Op: "connect_pin", Device: d0.Name, Net: c.Nets[len(c.Nets)-1].Name},
			{Op: "add_cell", Name: "oracle_k", Type: d0.Type, Nets: twin},
			{Op: "add_net", Name: "oracle_n", Devices: []string{d0.Name, "oracle_k"}},
			{Op: "resize_rows", Rows: 2},
			{Op: "disconnect_pin", Device: d0.Name, Net: "oracle_n"},
			{Op: "remove_cell", Name: "oracle_k"},
			{Op: "swap_process", Process: "cmos30"},
		} {
			step := fmt.Sprintf("%s step %d (%s)", label, i, e.Op)
			if e.Op == "resize_rows" {
				rows = e.Rows
			}
			w := do(s, "POST", "/v1/estimate/delta", marshal(t, DeltaRequest{Parent: parent, Edits: []EditBody{e}, Rows: rows}))
			if w.Code == http.StatusUnprocessableEntity && e.Op == "swap_process" {
				continue // a transistor-level module has no cmos30 types
			}
			got := decodeEstimate(t, w)
			child := planOf(step, got.Plan)
			if want := resultKey(child, got.Process, rows); got.Key != want {
				t.Fatalf("%s: result key %s, oracle %s", step, got.Key, want)
			}
			parent = got.Plan
			steps[e.Op]++
		}
	}
	if len(steps) != 7 || steps["swap_process"] == 0 {
		t.Fatalf("successful delta steps by op: %v", steps)
	}
}

// TestNameRuleKeepsContentAddressesApart pins the name rule on the
// wire.  Before it, the add_cell below built a two-device circuit B
// whose canonical rendering equalled three-device circuit A's, so B's
// plan answered a later estimate of A.
func TestNameRuleKeepsContentAddressesApart(t *testing.T) {
	srcA := EstimateRequest{Netlist: "module m\nport in x\ndevice g INV x y\ndevice p INV y z\ndevice q INV z w\nend\n"}
	srcP := EstimateRequest{Netlist: "module m\nport in x\ndevice g INV x y\nend\n"}
	w := do(New(Options{}), "POST", "/v1/estimate", marshal(t, srcA))
	if w.Code != http.StatusOK {
		t.Fatalf("A: status %d: %s", w.Code, w.Body.String())
	}
	wantA := withoutCacheHit(t, w.Body.String())

	s := New(Options{})
	parent := decodeEstimate(t, do(s, "POST", "/v1/estimate", marshal(t, srcP))).Plan
	for _, e := range []EditBody{
		{Op: "add_cell", Name: "p INV y z\ndevice q", Type: "INV", Nets: []string{"z", "w"}},
		{Op: "add_cell", Name: "k", Type: "INV", Nets: []string{"-", "y"}},
		{Op: "connect_pin", Device: "g", Net: "-"},
		{Op: "add_net", Name: "a b", Devices: []string{"g"}},
	} {
		w := do(s, "POST", "/v1/estimate/delta", marshal(t, DeltaRequest{Parent: parent, Edits: []EditBody{e}}))
		if w.Code != http.StatusUnprocessableEntity {
			t.Errorf("%s %q: status %d, want 422: %s", e.Op, e.Name+e.Net, w.Code, w.Body.String())
		}
	}
	w = do(s, "POST", "/v1/estimate", marshal(t, srcA))
	if w.Code != http.StatusOK {
		t.Fatalf("A after the edits: status %d: %s", w.Code, w.Body.String())
	}
	if got := withoutCacheHit(t, w.Body.String()); got != wantA {
		t.Fatalf("A after the edits answered\n%s\nwant\n%s", got, wantA)
	}

	// A bench module's name is the one name the source does not
	// tokenize, so a line break in it is refused at parse.
	bench := EstimateRequest{Format: "bench", Name: "m\nport in x", Netlist: "INPUT(a)\ny = NOT(a)\nOUTPUT(y)\n"}
	if w := do(s, "POST", "/v1/estimate", marshal(t, bench)); w.Code != http.StatusBadRequest {
		t.Fatalf("bench name with a line break: status %d, want 400: %s", w.Code, w.Body.String())
	}
}
