package place

import (
	"context"
	"fmt"
	"testing"

	"maest/internal/gen"
	"maest/internal/geom"
	"maest/internal/netlist"
	"maest/internal/tech"
)

func circuit(t testing.TB, gates int, seed int64) *netlist.Circuit {
	t.Helper()
	p := tech.NMOS25()
	c, err := gen.RandomCircuit(gen.RandomConfig{
		Name: fmt.Sprintf("c%d", gates), Gates: gates, Inputs: 5, Outputs: 4, Seed: seed,
	}, p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPlaceLegal(t *testing.T) {
	p := tech.NMOS25()
	c := circuit(t, 60, 1)
	for _, rows := range []int{1, 2, 3, 5} {
		pl, err := Place(context.Background(), c, p, Options{Rows: rows, Seed: 42})
		if err != nil {
			t.Fatalf("rows=%d: %v", rows, err)
		}
		if err := pl.Check(); err != nil {
			t.Fatalf("rows=%d: %v", rows, err)
		}
		if len(pl.Rows) != rows {
			t.Fatalf("rows=%d: got %d", rows, len(pl.Rows))
		}
	}
}

func TestPlaceDeterministic(t *testing.T) {
	p := tech.NMOS25()
	c := circuit(t, 40, 2)
	a, err := Place(context.Background(), c, p, Options{Rows: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Place(context.Background(), c, p, Options{Rows: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.WireLength() != b.WireLength() {
		t.Fatal("same seed produced different placements")
	}
	for d := range a.RowOf {
		if a.RowOf[d] != b.RowOf[d] || a.Slot[d] != b.Slot[d] {
			t.Fatal("same seed produced different device positions")
		}
	}
}

func TestAnnealingImprovesWireLength(t *testing.T) {
	p := tech.NMOS25()
	c := circuit(t, 80, 3)
	// Zero-move placement = initial round-robin deal.
	initial, err := Place(context.Background(), c, p, Options{Rows: 4, Seed: 9, Moves: 1})
	if err != nil {
		t.Fatal(err)
	}
	annealed, err := Place(context.Background(), c, p, Options{Rows: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if annealed.WireLength() >= initial.WireLength() {
		t.Fatalf("annealing did not improve: %d >= %d",
			annealed.WireLength(), initial.WireLength())
	}
}

func TestRowBalance(t *testing.T) {
	p := tech.NMOS25()
	c := circuit(t, 90, 4)
	pl, err := Place(context.Background(), c, p, Options{Rows: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var maxW, minW = pl.RowWidth(0), pl.RowWidth(0)
	for r := 1; r < 3; r++ {
		w := pl.RowWidth(r)
		if w > maxW {
			maxW = w
		}
		if w < minW {
			minW = w
		}
	}
	if minW == 0 {
		t.Fatal("a row ended up empty")
	}
	if float64(maxW) > 1.8*float64(minW) {
		t.Fatalf("rows badly imbalanced: %d vs %d", maxW, minW)
	}
}

func TestPlaceErrors(t *testing.T) {
	p := tech.NMOS25()
	c := circuit(t, 10, 6)
	if _, err := Place(context.Background(), c, p, Options{Rows: 0}); err == nil {
		t.Error("rows=0 accepted")
	}
	// Unknown device type.
	b := netlist.NewBuilder("bad")
	b.AddDevice("g1", "NOPE", "a", "b")
	b.AddDevice("g2", "INV", "b", "a")
	bad, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Place(context.Background(), bad, p, Options{Rows: 2}); err == nil {
		t.Error("unknown device type accepted")
	}
}

func TestSwapAndMovePrimitives(t *testing.T) {
	p := tech.NMOS25()
	c := circuit(t, 12, 8)
	pl, err := Place(context.Background(), c, p, Options{Rows: 3, Seed: 1, Moves: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Check(); err != nil {
		t.Fatal(err)
	}
	pl.swap(0, 5)
	if err := pl.Check(); err != nil {
		t.Fatalf("after swap: %v", err)
	}
	pl.swap(0, 5)
	pl.move(3, 0, 0)
	if err := pl.Check(); err != nil {
		t.Fatalf("after move: %v", err)
	}
	if pl.RowOf[3] != 0 || pl.Slot[3] != 0 {
		t.Fatal("move did not place device at target")
	}
	// Move within the same row.
	r := pl.RowOf[3]
	pl.move(3, r, len(pl.Rows[r]))
	if err := pl.Check(); err != nil {
		t.Fatalf("after same-row move: %v", err)
	}
}

func TestPositionsMatchRowOrder(t *testing.T) {
	p := tech.NMOS25()
	c := circuit(t, 30, 9)
	pl, err := Place(context.Background(), c, p, Options{Rows: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	xs := pl.Positions()
	// Each row's device centres must be strictly increasing and
	// consistent with widths.
	for r, row := range pl.Rows {
		var x int64
		for _, d := range row {
			w := int64(pl.DeviceWidth(d))
			wantCenter := x + w/2
			if int64(xs[d]) != wantCenter {
				t.Fatalf("row %d device %d: centre %d, want %d", r, d, xs[d], wantCenter)
			}
			x += w
		}
	}
}

func TestRowHeightTransistorRows(t *testing.T) {
	// Full-custom reuse: transistor rows take the tallest device.
	p := tech.NMOS25()
	b := netlist.NewBuilder("fc")
	b.AddDevice("m0", "ENH", "a", "", "x") // 8x8
	b.AddDevice("m1", "DEP", "x", "x", "") // 8x10
	b.AddPort("pa", netlist.In, "a")
	b.AddPort("px", netlist.Out, "x")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Place(context.Background(), c, p, Options{Rows: 1, Seed: 3, Moves: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pl.RowHeight(0) != 10 {
		t.Fatalf("row height = %d, want 10 (tallest transistor)", pl.RowHeight(0))
	}
}

func TestAnnealChainQuality(t *testing.T) {
	// A k-inverter chain in one row has a known optimal wire length:
	// consecutive cells adjacent, each 2-pin net spanning one cell
	// pitch (14λ).  The annealer must get within 2x of optimal.
	p := tech.NMOS25()
	c, err := gen.Chain("q", 24, p)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Place(context.Background(), c, p, Options{Rows: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: 23 internal nets × 14λ span.
	optimal := geom.Lambda(23 * 14)
	if wl := pl.WireLength(); wl > 2*optimal {
		t.Fatalf("annealed chain WL %d > 2× optimal %d", wl, optimal)
	}
}
