package engine

// Directed Plan.Delta tests: the algebra's edge semantics that the
// randomized differential harness covers only probabilistically —
// empty scripts, the rows-only fast path, the process-swap fallback,
// methodology re-classification, and the incremental statistics on a
// hand-checked example.

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"maest/internal/core"
	"maest/internal/netlist"
	"maest/internal/tech"
)

const deltaDemoMnet = `
module demo
port in a
port in b
port out y
device g1 NAND2 a b n1
device g2 INV n1 n2
device g3 NOR2 n1 b n3
device g4 NAND2 n2 n3 y
end
`

func TestDeltaEmptyScriptReturnsReceiver(t *testing.T) {
	pl := compileMnet(t, deltaDemoMnet, tech.NMOS25())
	np, err := pl.Delta()
	if err != nil {
		t.Fatal(err)
	}
	if np != pl {
		t.Fatal("empty script built a new plan instead of returning the receiver")
	}
}

func TestDeltaResizeRowsOnly(t *testing.T) {
	pl := compileMnet(t, deltaDemoMnet, tech.NMOS25())
	np, err := pl.Delta(ResizeRows(3))
	if err != nil {
		t.Fatal(err)
	}
	if np == pl {
		t.Fatal("rows-only script returned the receiver; the default row count must differ")
	}
	if np.Hash() != pl.Hash() {
		t.Fatal("rows-only delta changed the content address; rows are an execute knob, not plan identity")
	}
	if np.Stats() != pl.Stats() {
		t.Fatal("rows-only delta rebuilt statistics it could share")
	}
	ctx := context.Background()
	got, err := np.Estimate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pl.Estimate(ctx, WithRows(3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Delta(ResizeRows(3)).Estimate() diverged from Estimate(WithRows(3))")
	}
	// An explicit row count still wins over the ResizeRows default.
	got4, err := np.Estimate(ctx, WithRows(4))
	if err != nil {
		t.Fatal(err)
	}
	want4, err := pl.Estimate(ctx, WithRows(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got4, want4) {
		t.Fatal("explicit WithRows on a resized plan diverged from the parent's")
	}
	// Last ResizeRows in a script wins.
	np2, err := pl.Delta(ResizeRows(5), ResizeRows(3))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := np2.Estimate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res2, want) {
		t.Fatal("last-wins ResizeRows semantics broken")
	}
}

func TestDeltaSwapProcessFallsBack(t *testing.T) {
	pl := compileMnet(t, deltaDemoMnet, tech.NMOS25())
	before := mDeltaFallback.Value()
	np, err := pl.Delta(SwapProcess(tech.CMOS30()))
	if err != nil {
		t.Fatal(err)
	}
	if got := mDeltaFallback.Value(); got != before+1 {
		t.Fatalf("fallback counter moved %d→%d; a process swap must count as a fallback", before, got)
	}
	want, err := Compile(pl.Circuit(), tech.CMOS30())
	if err != nil {
		t.Fatal(err)
	}
	if np.Hash() != want.Hash() {
		t.Fatal("process-swap delta diverged from a fresh compile under the new process")
	}
	if np.Hash() == pl.Hash() {
		t.Fatal("process swap kept the old content address")
	}
	// Structural edits and a swap in one script: the edits apply, then
	// the recompile targets the new process.
	np2, err := pl.Delta(RemoveCell("g2"), SwapProcess(tech.CMOS30()))
	if err != nil {
		t.Fatal(err)
	}
	edited, err := ApplyEdits(pl.Circuit(), RemoveCell("g2"))
	if err != nil {
		t.Fatal(err)
	}
	want2, err := Compile(edited, tech.CMOS30())
	if err != nil {
		t.Fatal(err)
	}
	if np2.Hash() != want2.Hash() {
		t.Fatal("edits+swap delta diverged from recompiling the edited circuit under the new process")
	}
}

func TestDeltaValidation(t *testing.T) {
	pl := compileMnet(t, deltaDemoMnet, tech.NMOS25())
	if _, err := pl.Delta(ResizeRows(0)); err == nil {
		t.Fatal("ResizeRows(0) accepted")
	} else if !errors.Is(err, core.ErrEstimate) {
		t.Fatalf("ResizeRows(0) error not under core.ErrEstimate: %v", err)
	}
	if _, err := pl.Delta(SwapProcess(nil)); err == nil {
		t.Fatal("SwapProcess(nil) accepted")
	}
	if _, err := pl.Delta(RemoveCell("ghost")); err == nil {
		t.Fatal("removing an unknown device accepted")
	} else if !errors.Is(err, netlist.ErrInvalidCircuit) {
		t.Fatalf("structural edit error not under netlist.ErrInvalidCircuit: %v", err)
	}
	// An unknown device type passes the netlist layer and must fail at
	// the statistics stage, like Compile would.
	if _, err := pl.Delta(AddCell("x1", "BOGUS_TYPE", "a")); err == nil {
		t.Fatal("unknown device type accepted")
	} else if !errors.Is(err, core.ErrEstimate) {
		t.Fatalf("unknown-type error not under core.ErrEstimate: %v", err)
	}
	// The parent plan survives failed scripts untouched.
	if _, err := pl.Estimate(context.Background()); err != nil {
		t.Fatalf("parent plan broken after failed deltas: %v", err)
	}
}

func TestDeltaRejectsMethodologyMixing(t *testing.T) {
	pl := compileMnet(t, deltaDemoMnet, tech.NMOS25())
	script := []Edit{AddCell("m1", "ENH", "a", "b", "y")}
	_, err := pl.Delta(script...)
	if err == nil {
		t.Fatal("adding a transistor to a cell-level module accepted")
	}
	if !errors.Is(err, core.ErrEstimate) {
		t.Fatalf("mixing error not under core.ErrEstimate: %v", err)
	}
	// The wording must match Compile's exactly, so the serving layer's
	// error mapping treats both routes alike.
	edited, aerr := ApplyEdits(pl.Circuit(), script...)
	if aerr != nil {
		t.Fatal(aerr)
	}
	_, cerr := Compile(edited, tech.NMOS25())
	if cerr == nil {
		t.Fatal("recompile accepted the mixed module")
	}
	if err.Error() != cerr.Error() {
		t.Fatalf("mixing error wording diverged:\n  delta:   %q\n  compile: %q", err.Error(), cerr.Error())
	}
}

// TestDeltaIncrementalStatsHandChecked pins the per-field arithmetic
// of deltaStats on a script whose effect on the §3 statistics is
// computed by hand: remove INV g2 (width 14, the only 14λ device),
// re-route its nets, and add a NAND2.
func TestDeltaIncrementalStatsHandChecked(t *testing.T) {
	p := tech.NMOS25()
	pl := compileMnet(t, deltaDemoMnet, p)
	s0 := pl.Stats()
	// Base: 4 devices (NAND2 18, INV 14, NOR2 18, NAND2 18); nets a, b,
	// n1, n2, n3, y with degrees 1, 2, 3, 2, 2, 1.
	if s0.N != 4 || s0.H != 4 || s0.DegenerateNets != 2 {
		t.Fatalf("base stats changed; update this test (N=%d H=%d degenerate=%d)",
			s0.N, s0.H, s0.DegenerateNets)
	}

	np, err := pl.Delta(
		RemoveCell("g2"),                       // n1 drops to degree 2, n2 to 1
		ConnectPin("g4", "n1"),                 // n1 back to degree 3
		AddCell("g5", "NAND2", "n2", "b", "y"), // n2 back to 2, b to 3, y to 2
	)
	if err != nil {
		t.Fatal(err)
	}
	s := np.Stats()
	if s.N != 4 {
		t.Fatalf("N = %d, want 4", s.N)
	}
	if _, stale := s.WidthCount[14]; stale {
		t.Fatal("width 14 left a residue in the histogram after removing the only INV")
	}
	if got := s.WidthCount[18]; got != 4 {
		t.Fatalf("width 18 count = %d, want 4", got)
	}
	g, err := netlist.Gather(np.Circuit(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, g) {
		t.Fatalf("incremental stats diverged from Gather:\n  delta:  %+v\n  gather: %+v", s, g)
	}
	if s.MaxDegree != g.MaxDegree {
		t.Fatalf("MaxDegree = %d, want %d", s.MaxDegree, g.MaxDegree)
	}
}

// TestDeltaMaxDegreeShrinks pins the one statistic Delta must fully
// recompute rather than adjust: removing the only maximum-degree net
// must lower MaxDegree.
func TestDeltaMaxDegreeShrinks(t *testing.T) {
	p := tech.NMOS25()
	pl := compileMnet(t, deltaDemoMnet, p)
	if pl.Stats().MaxDegree != 3 {
		t.Fatalf("base MaxDegree = %d, want 3 (net n1)", pl.Stats().MaxDegree)
	}
	// n1 connects g1, g2, g3; dropping g3's pin leaves degree 2.
	np, err := pl.Delta(DisconnectPin("g3", "n1"))
	if err != nil {
		t.Fatal(err)
	}
	if got := np.Stats().MaxDegree; got != 2 {
		t.Fatalf("MaxDegree = %d after shrinking the only degree-3 net, want 2", got)
	}
}

// TestDeltaReclassifiesMethodology: a transistor-level module whose
// transistors are all replaced by cells becomes cell-level, exactly
// as a recompile would classify it.  The classification shows in the
// estimate: only a cell-level module gets a standard-cell answer.
func TestDeltaReclassifiesMethodology(t *testing.T) {
	estimate := func(pl *Plan) *core.Result {
		t.Helper()
		res, err := pl.Estimate(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	p := tech.NMOS25()
	pl := compileMnet(t, `
module mini
port in a
port out y
device m1 ENH a mid y
device m2 ENH mid a y
end
`, p)
	if estimate(pl).SC != nil {
		t.Fatal("transistor module classified cell-level")
	}
	np, err := pl.Delta(
		AddCell("g1", "INV", "a", "y"),
		RemoveCell("m1"),
		RemoveCell("m2"),
	)
	// Adding the INV first mixes methodologies mid-script; the final
	// state is all-cells, and classification applies to the final state.
	if err != nil {
		t.Fatal(err)
	}
	got := estimate(np)
	if got.SC == nil {
		t.Fatal("all-cell module still classified transistor-level after delta")
	}
	want, err := Compile(np.Circuit(), p)
	if err != nil {
		t.Fatal(err)
	}
	if np.Hash() != want.Hash() || !reflect.DeepEqual(got, estimate(want)) {
		t.Fatal("reclassified delta diverged from recompile")
	}
}
