package layout

import (
	"context"
	"testing"

	"maest/internal/gen"
	"maest/internal/geom"
	"maest/internal/netlist"
	"maest/internal/place"
	"maest/internal/route"
	"maest/internal/tech"
)

func TestLayoutStandardCell(t *testing.T) {
	p := tech.NMOS25()
	c, err := gen.RandomCircuit(gen.RandomConfig{
		Name: "lsc", Gates: 60, Inputs: 6, Outputs: 4, Seed: 5,
	}, p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := LayoutStandardCell(context.Background(), c, p, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 3 || m.Width <= 0 || m.Height <= 0 {
		t.Fatalf("module = %+v", m)
	}
	if m.Area() != geom.Mul(m.Width, m.Height) {
		t.Fatalf("area mismatch")
	}
	// Height must cover the three rows plus all channels.
	minHeight := 3 * p.RowHeight
	if m.Height < minHeight {
		t.Fatalf("height %d below row stack %d", m.Height, minHeight)
	}
	// Width must be at least the widest row of raw cells.
	if m.AspectRatio() <= 0 {
		t.Fatal("bad aspect ratio")
	}
}

func TestAssembleShapeValidation(t *testing.T) {
	p := tech.NMOS25()
	c, err := gen.Chain("ch", 6, p)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := place.Place(context.Background(), c, p, place.Options{Rows: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := route.RouteModule(context.Background(), pl, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AssembleStandardCell(pl, rr, p); err != nil {
		t.Fatal(err)
	}
	// Mismatched routing result.
	bad := *rr
	bad.ChannelTracks = bad.ChannelTracks[:1]
	if _, err := AssembleStandardCell(pl, &bad, p); err == nil {
		t.Fatal("mismatched routing accepted")
	}
}

func TestFeedThroughsWidenRows(t *testing.T) {
	p := tech.NMOS25()
	c, err := gen.RandomCircuit(gen.RandomConfig{
		Name: "ftw", Gates: 80, Inputs: 6, Outputs: 4, Seed: 9,
	}, p)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := place.Place(context.Background(), c, p, place.Options{Rows: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := route.RouteModule(context.Background(), pl, route.Options{TrackSharing: true})
	if err != nil {
		t.Fatal(err)
	}
	m, err := AssembleStandardCell(pl, rr, p)
	if err != nil {
		t.Fatal(err)
	}
	for r := range pl.Rows {
		want := pl.RowWidth(r) + geom.Lambda(rr.FeedThroughs[r])*p.FeedThroughWidth
		if m.RowWidths[r] != want {
			t.Fatalf("row %d width %d, want %d", r, m.RowWidths[r], want)
		}
	}
}

func TestSynthesizeFullCustom(t *testing.T) {
	p := tech.NMOS25()
	suite, err := gen.FullCustomSuite(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range suite {
		m, err := SynthesizeFullCustom(context.Background(), c, p, 11)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if m.Width <= 0 || m.Height <= 0 {
			t.Fatalf("%s: degenerate %dx%d", c.Name, m.Width, m.Height)
		}
		// The synthesizer must beat or match the worst single-row
		// strip layout.
		strip, err := LayoutStandardCell(context.Background(), c, p, 1, 11)
		if err != nil {
			t.Fatal(err)
		}
		if m.Area() > strip.Area() {
			t.Fatalf("%s: synthesized area %d worse than 1-row strip %d",
				c.Name, m.Area(), strip.Area())
		}
	}
}

func TestSynthesizeRejectsCellCircuits(t *testing.T) {
	p := tech.NMOS25()
	c, err := gen.Chain("cells", 5, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SynthesizeFullCustom(context.Background(), c, p, 1); err == nil {
		t.Fatal("cell-level circuit accepted")
	}
	// Unknown device type.
	b := netlist.NewBuilder("u")
	b.AddDevice("m0", "NOPE", "a", "b", "c")
	b.AddDevice("m1", "ENH", "c", "b", "a")
	cu, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SynthesizeFullCustom(context.Background(), cu, p, 1); err == nil {
		t.Fatal("unknown device accepted")
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	p := tech.NMOS25()
	c, err := gen.PassLadder("lad", 10, p)
	if err != nil {
		t.Fatal(err)
	}
	a, err := SynthesizeFullCustom(context.Background(), c, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SynthesizeFullCustom(context.Background(), c, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Area() != b.Area() || a.Rows != b.Rows {
		t.Fatal("synthesis not deterministic")
	}
}
