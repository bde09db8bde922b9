package engine

// The differential harness behind Plan.Delta's correctness contract:
// for every edit script, route A (the incremental Delta) must be
// bit-identical to route B (applying the script to a clone and
// compiling the result from scratch) — same content address, same §3
// statistics, same Result and congestion bytes — and the two routes
// must agree on whether the script is an error at all.  The harness
// replays ≥1000 randomized scripts over the golden circuits and the
// generated Table 1/2 suites, chaining deltas off deltas to cover the
// ECO loop's steady state.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"maest/internal/engine/distmemo"
	"maest/internal/gen"
	"maest/internal/hdl"
	"maest/internal/netlist"
	"maest/internal/tech"
)

// diffCorpus assembles the harness's base circuits: every golden
// netlist in testdata plus the generated paper suites, covering both
// methodologies (cell-level and transistor-level) and sizes from 3 to
// 180 devices.
func diffCorpus(t testing.TB, p *tech.Process) []*netlist.Circuit {
	t.Helper()
	var out []*netlist.Circuit
	for _, g := range []struct{ file, name string }{
		{"c17.bench", "c17"},
		{"rand180.bench", "rand180"},
		{"demo.mnet", ""},
		{"ladder.mnet", ""},
	} {
		f, err := os.Open(filepath.Join("..", "..", "testdata", g.file))
		if err != nil {
			t.Fatal(err)
		}
		var c *netlist.Circuit
		if strings.HasSuffix(g.file, ".bench") {
			c, err = hdl.ParseBench(f, g.name, p)
		} else {
			c, err = hdl.ParseMnet(f)
		}
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", g.file, err)
		}
		out = append(out, c)
	}
	fc, err := gen.FullCustomSuite(p)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, fc...)
	sc, err := gen.StandardCellSuite(p)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, sc...)
	for _, cfg := range []gen.RandomConfig{
		{Name: "diff-rand30", Gates: 30, Inputs: 6, Outputs: 5, Seed: 7},
		{Name: "diff-rand12", Gates: 12, Inputs: 4, Outputs: 3, Seed: 3},
	} {
		c, err := gen.RandomCircuit(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c)
	}
	return out
}

// scriptGen produces deterministic random edit scripts against a
// circuit.  Candidates are test-applied to a scratch clone so most
// scripts stay inside the algebra's happy path; deliberately invalid
// tails keep the error-parity half of the contract exercised.
type scriptGen struct {
	rng   *rand.Rand
	fresh int
	types []string
}

func newScriptGen(seed int64, base *netlist.Circuit) *scriptGen {
	g := &scriptGen{rng: rand.New(rand.NewSource(seed))}
	seen := map[string]bool{}
	for _, d := range base.Devices {
		if !seen[d.Type] {
			seen[d.Type] = true
			g.types = append(g.types, d.Type)
		}
	}
	return g
}

func (g *scriptGen) freshName(prefix string, c *netlist.Circuit) string {
	for {
		g.fresh++
		name := fmt.Sprintf("%s%d", prefix, g.fresh)
		if c.DeviceByName(name) == nil && c.NetByName(name) == nil {
			return name
		}
	}
}

// script builds one edit script against the circuit's current state.
// Structural candidates that fail on the scratch clone are dropped
// (the filter keeps scripts mostly valid); the occasional tail adds a
// known-invalid edit or a process swap.
func (g *scriptGen) script(base *netlist.Circuit) []Edit {
	scratch := base.Clone()
	want := 1 + g.rng.Intn(6)
	var script []Edit
	for attempts := 0; len(script) < want && attempts < 40; attempts++ {
		e := g.candidate(scratch)
		if ce, ok := e.(circuitEdit); ok {
			if err := ce.apply(scratch, &effects{}); err != nil {
				continue
			}
		}
		script = append(script, e)
	}
	switch g.rng.Intn(12) {
	case 0:
		script = append(script, g.invalid(scratch))
	case 1:
		script = append(script, SwapProcess(tech.CMOS30()))
	}
	return script
}

func (g *scriptGen) candidate(c *netlist.Circuit) Edit {
	r := g.rng
	switch n := r.Intn(100); {
	case n < 25:
		d := c.Devices[r.Intn(len(c.Devices))]
		if len(c.Nets) > 0 && r.Intn(10) < 6 {
			return ConnectPin(d.Name, c.Nets[r.Intn(len(c.Nets))].Name)
		}
		return ConnectPin(d.Name, g.freshName("eco_n", c))
	case n < 45:
		d := c.Devices[r.Intn(len(c.Devices))]
		var pins []string
		for _, p := range d.Pins {
			if p != nil {
				pins = append(pins, p.Name)
			}
		}
		if len(pins) == 0 {
			return ConnectPin(d.Name, g.freshName("eco_n", c))
		}
		return DisconnectPin(d.Name, pins[r.Intn(len(pins))])
	case n < 60:
		k := 1 + r.Intn(3)
		nets := make([]string, 0, k)
		for i := 0; i < k; i++ {
			switch v := r.Intn(10); {
			case v < 7 && len(c.Nets) > 0:
				nets = append(nets, c.Nets[r.Intn(len(c.Nets))].Name)
			case v < 9:
				nets = append(nets, g.freshName("eco_n", c))
			default:
				nets = append(nets, "") // unconnected pin
			}
		}
		return AddCell(g.freshName("eco_d", c), g.types[r.Intn(len(g.types))], nets...)
	case n < 70:
		return RemoveCell(c.Devices[r.Intn(len(c.Devices))].Name)
	case n < 80:
		k := 1 + r.Intn(3)
		devs := make([]string, 0, k)
		for i := 0; i < k; i++ {
			devs = append(devs, c.Devices[r.Intn(len(c.Devices))].Name)
		}
		return AddNet(g.freshName("eco_n", c), devs...)
	case n < 90:
		if len(c.Nets) == 0 {
			return ResizeRows(1 + r.Intn(5))
		}
		return RemoveNet(c.Nets[r.Intn(len(c.Nets))].Name)
	default:
		return ResizeRows(1 + r.Intn(5))
	}
}

// invalid returns an edit that must fail — at the netlist layer, the
// validation layer, or (for the unknown device type) only once the
// statistics stage consults the process database.
func (g *scriptGen) invalid(c *netlist.Circuit) Edit {
	switch g.rng.Intn(5) {
	case 0:
		return RemoveCell("eco_ghost")
	case 1:
		return ConnectPin("eco_ghost", "x")
	case 2:
		return AddCell(g.freshName("eco_d", c), "BOGUS_TYPE", "")
	case 3:
		return ResizeRows(0)
	default:
		for _, n := range c.Nets {
			if n.External() {
				return RemoveNet(n.Name)
			}
		}
		return RemoveNet("eco_ghost")
	}
}

func scriptString(script []Edit) string {
	parts := make([]string, len(script))
	for i, e := range script {
		parts[i] = e.String()
	}
	return strings.Join(parts, "; ")
}

// scriptRows returns the script's effective ResizeRows value (last
// one wins), 0 when absent.
func scriptRows(script []Edit) int {
	rows := 0
	for _, e := range script {
		if r, ok := e.(resizeRowsEdit); ok {
			rows = r.rows
		}
	}
	return rows
}

// scriptProc returns the process route B must compile against: the
// last SwapProcess target, or the fallback.
func scriptProc(script []Edit, fallback *tech.Process) *tech.Process {
	for _, e := range script {
		if s, ok := e.(swapProcessEdit); ok {
			fallback = s.proc
		}
	}
	return fallback
}

func scriptSwapsProcess(script []Edit) bool {
	for _, e := range script {
		if _, ok := e.(swapProcessEdit); ok {
			return true
		}
	}
	return false
}

type diffTally struct {
	scripts, ok, failed, congested int
}

func (a *diffTally) add(b *diffTally) {
	a.scripts += b.scripts
	a.ok += b.ok
	a.failed += b.failed
	a.congested += b.congested
}

// checkDelta replays one script down both routes and enforces the
// bit-identity contract.  withCongest extends the comparison to the
// congestion map (bounded to a subset of scripts — the convolutions
// dominate harness runtime); purge empties the process-wide memo
// before route B so its numbers come from internal/prob directly
// rather than from entries route A just stored.  Returns the delta
// child for chaining, nil when the script (correctly) failed.
func checkDelta(t *testing.T, pl *Plan, script []Edit, tally *diffTally, withCongest, purge bool) *Plan {
	t.Helper()
	ctx := context.Background()
	tally.scripts++

	a, errA := pl.Delta(script...)
	edited, errB := ApplyEdits(pl.Circuit(), script...)
	var b *Plan
	if errB == nil {
		if purge {
			distmemo.Purge()
		}
		b, errB = Compile(edited, scriptProc(script, pl.Process()))
	}
	if (errA == nil) != (errB == nil) {
		t.Fatalf("error parity broken for script [%s]:\n  Delta:     %v\n  recompile: %v",
			scriptString(script), errA, errB)
	}
	if errA != nil {
		tally.failed++
		return nil
	}
	tally.ok++

	if a.Hash() != b.Hash() {
		t.Fatalf("content address diverged for [%s]:\n  delta:     %s\n  recompile: %s",
			scriptString(script), a.Hash(), b.Hash())
	}
	if !reflect.DeepEqual(a.Stats(), b.Stats()) {
		t.Fatalf("stats diverged for [%s]:\n  delta:     %+v\n  recompile: %+v",
			scriptString(script), a.Stats(), b.Stats())
	}
	if g, err := netlist.Gather(a.Circuit(), a.Process()); err != nil {
		t.Fatalf("Gather over delta circuit: %v", err)
	} else if !reflect.DeepEqual(a.Stats(), g) {
		t.Fatalf("incremental stats diverged from Gather for [%s]:\n  delta:  %+v\n  gather: %+v",
			scriptString(script), a.Stats(), g)
	}
	if a.InitialRows() != b.InitialRows() {
		t.Fatalf("initial rows diverged for [%s]: delta %d, recompile %d",
			scriptString(script), a.InitialRows(), b.InitialRows())
	}

	// Execute both plans.  Delta(ResizeRows(n)) must behave exactly
	// like a recompile with WithRows(n) on every default-row call.
	var optB []Option
	if rows := scriptRows(script); rows > 0 {
		optB = append(optB, WithRows(rows))
	}
	resA, errRA := a.Estimate(ctx)
	resB, errRB := b.Estimate(ctx, optB...)
	if (errRA == nil) != (errRB == nil) {
		t.Fatalf("Estimate error parity broken for [%s]:\n  delta:     %v\n  recompile: %v",
			scriptString(script), errRA, errRB)
	}
	if errRA == nil && !reflect.DeepEqual(resA, resB) {
		t.Fatalf("Estimate diverged for [%s]:\n  delta:     %+v\n  recompile: %+v",
			scriptString(script), resA, resB)
	}
	if withCongest {
		tally.congested++
		mA, errCA := a.Congestion(ctx)
		mB, errCB := b.Congestion(ctx, optB...)
		if (errCA == nil) != (errCB == nil) {
			t.Fatalf("Congestion error parity broken for [%s]:\n  delta:     %v\n  recompile: %v",
				scriptString(script), errCA, errCB)
		}
		if errCA == nil && !reflect.DeepEqual(mA, mB) {
			t.Fatalf("Congestion diverged for [%s]", scriptString(script))
		}
	}
	return a
}

// TestDeltaDifferential is the CI-enforced differential harness: at
// least 1000 randomized edit scripts across the corpus, each replayed
// down both routes, with chained deltas (a Delta child becomes the
// next script's parent) mixed in.
func TestDeltaDifferential(t *testing.T) {
	p := tech.NMOS25()
	corpus := diffCorpus(t, p)
	total := &diffTally{}
	for i, base := range corpus {
		base, i := base, i
		t.Run(base.Name, func(t *testing.T) {
			pl, err := Compile(base, p)
			if err != nil {
				t.Fatal(err)
			}
			quota := 90
			if len(base.Devices) > 60 {
				quota = 30 // the congestion convolutions at this size dominate runtime
			}
			g := newScriptGen(int64(1988+i), base)
			tally := &diffTally{}
			cur := pl
			for s := 0; s < quota; s++ {
				script := g.script(cur.Circuit())
				child := checkDelta(t, cur, script, tally, s%4 == 0, s%8 == 3)
				// Chain off the delta child half the time, so scripts
				// also run against plans that were themselves built
				// incrementally (skipping process swaps keeps the type
				// vocabulary valid).
				if child != nil && child != cur && !scriptSwapsProcess(script) && g.rng.Intn(2) == 0 {
					cur = child
				}
			}
			if tally.ok == 0 {
				t.Errorf("no script against %s survived to the bit-identity checks", base.Name)
			}
			total.add(tally)
		})
	}
	if t.Failed() {
		return
	}
	t.Logf("differential harness: %d scripts (%d bit-identity, %d error-parity, %d with congestion maps)",
		total.scripts, total.ok, total.failed, total.congested)
	if total.scripts < 1000 {
		t.Fatalf("harness replayed %d scripts; the CI contract is at least 1000", total.scripts)
	}
	if total.ok < total.scripts/2 {
		t.Fatalf("only %d of %d scripts reached the bit-identity checks; the generator drifted toward errors",
			total.ok, total.scripts)
	}
	if total.failed == 0 {
		t.Fatal("no script exercised the error-parity half of the contract")
	}
}
