package layout

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"maest/internal/gen"
	"maest/internal/place"
	"maest/internal/route"
	"maest/internal/tech"
)

func buildGeo(t testing.TB, gates, rows int, seed int64) (*Geometry, *tech.Process) {
	t.Helper()
	p := tech.NMOS25()
	c, err := gen.RandomCircuit(gen.RandomConfig{
		Name: "geo", Gates: gates, Inputs: 6, Outputs: 4, Seed: seed,
	}, p)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := place.Place(context.Background(), c, p, place.Options{Rows: rows, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	det, err := route.DetailRoute(pl)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGeometry(pl, det, p)
	if err != nil {
		t.Fatal(err)
	}
	return g, p
}

func TestBuildGeometryInvariants(t *testing.T) {
	for _, cfg := range []struct {
		gates, rows int
		seed        int64
	}{{20, 1, 1}, {40, 2, 2}, {60, 3, 3}, {90, 4, 4}} {
		g, _ := buildGeo(t, cfg.gates, cfg.rows, cfg.seed)
		if g.Bounds.Empty() {
			t.Fatal("empty bounds")
		}
		if err := g.CheckCellsDisjoint(); err != nil {
			t.Fatalf("gates=%d rows=%d: %v", cfg.gates, cfg.rows, err)
		}
		if got := g.CountLayer(LayerCell); got < cfg.gates {
			t.Fatalf("cells on layer = %d, want ≥ %d", got, cfg.gates)
		}
		if g.CountLayer(LayerMetal) == 0 || g.CountLayer(LayerPoly) == 0 {
			t.Fatal("missing wire layers")
		}
		for _, r := range g.Rects {
			if r.Box.Empty() {
				t.Fatalf("empty rect %+v", r)
			}
			if r.Box.Intersect(g.Bounds) != r.Box {
				t.Fatalf("rect %+v escapes bounds %v", r, g.Bounds)
			}
		}
	}
}

func TestBuildGeometryDeterministic(t *testing.T) {
	a, _ := buildGeo(t, 50, 3, 7)
	b, _ := buildGeo(t, 50, 3, 7)
	if len(a.Rects) != len(b.Rects) || a.Bounds != b.Bounds {
		t.Fatal("geometry not deterministic")
	}
	for i := range a.Rects {
		if a.Rects[i] != b.Rects[i] {
			t.Fatalf("rect %d differs", i)
		}
	}
}

func TestBuildGeometryFeedThroughs(t *testing.T) {
	// A 3+-row layout of a random circuit usually needs feed-throughs;
	// when the coarse router reports some, geometry must mark the rows.
	p := tech.NMOS25()
	c, err := gen.RandomCircuit(gen.RandomConfig{
		Name: "ft", Gates: 80, Inputs: 6, Outputs: 4, Seed: 11, Locality: 0.3,
	}, p)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := place.Place(context.Background(), c, p, place.Options{Rows: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := route.RouteModule(context.Background(), pl, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	det, err := route.DetailRoute(pl)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGeometry(pl, det, p)
	if err != nil {
		t.Fatal(err)
	}
	if coarse.TotalFeedThroughs > 0 && g.CountLayer(LayerFeedThrough) == 0 {
		t.Fatalf("coarse router saw %d feed-throughs, geometry emitted none",
			coarse.TotalFeedThroughs)
	}
}

func TestBuildGeometryShapeMismatch(t *testing.T) {
	p := tech.NMOS25()
	c, err := gen.Chain("c", 6, p)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := place.Place(context.Background(), c, p, place.Options{Rows: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	det, err := route.DetailRoute(pl)
	if err != nil {
		t.Fatal(err)
	}
	bad := *det
	bad.Channels = bad.Channels[:1]
	if _, err := BuildGeometry(pl, &bad, p); err == nil {
		t.Fatal("mismatched channels accepted")
	}
}

func TestCIFRoundTrip(t *testing.T) {
	g, p := buildGeo(t, 40, 3, 5)
	var buf bytes.Buffer
	if err := WriteCIF(&buf, g, p); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"DS 1 250 2;", "9 geo;", "L NB;", "DF;", "E"} {
		if !strings.Contains(out, want) {
			t.Fatalf("CIF missing %q:\n%s", want, out[:min(len(out), 400)])
		}
	}
	f, err := ReadCIF(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != "geo" || f.ScaleA != 250 || f.ScaleB != 2 {
		t.Fatalf("parsed header %+v", f)
	}
	if len(f.Boxes) != len(g.Rects) {
		t.Fatalf("boxes = %d, want %d", len(f.Boxes), len(g.Rects))
	}
	back, err := f.Geometry()
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Rects) != len(g.Rects) {
		t.Fatalf("round trip rects = %d, want %d", len(back.Rects), len(g.Rects))
	}
	// Boxes are preserved exactly (same order: WriteCIF preserves
	// Rects order and ReadCIF is sequential), modulo the y-flip
	// origin, which cancels when the tallest rect touches y=0 — it
	// does, because channel 0 starts at the top edge.  Compare
	// against re-sorted original coordinates.
	for i := range back.Rects {
		if back.Rects[i].Layer != g.Rects[i].Layer {
			t.Fatalf("rect %d layer %q != %q", i, back.Rects[i].Layer, g.Rects[i].Layer)
		}
		if back.Rects[i].Box.Width() != g.Rects[i].Box.Width() ||
			back.Rects[i].Box.Height() != g.Rects[i].Box.Height() {
			t.Fatalf("rect %d size changed: %v -> %v", i, g.Rects[i].Box, back.Rects[i].Box)
		}
		if back.Rects[i].Box.Min.X != g.Rects[i].Box.Min.X {
			t.Fatalf("rect %d x changed: %v -> %v", i, g.Rects[i].Box, back.Rects[i].Box)
		}
	}
}

func TestCIFYFlipConsistency(t *testing.T) {
	// The y extents must be preserved as a set after the flip: the
	// multiset of heights and of (top-referenced) y spans matches.
	g, p := buildGeo(t, 30, 2, 9)
	var buf bytes.Buffer
	if err := WriteCIF(&buf, g, p); err != nil {
		t.Fatal(err)
	}
	f, err := ReadCIF(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	back, err := f.Geometry()
	if err != nil {
		t.Fatal(err)
	}
	// The flip origin is the max top among rects; rect 0's layer
	// NB cell at the first row should retain its y within bounds.
	if back.Bounds.Height() > g.Bounds.Height() {
		t.Fatalf("height grew: %d -> %d", g.Bounds.Height(), back.Bounds.Height())
	}
}

func TestReadCIFRejectsMalformed(t *testing.T) {
	cases := []struct{ name, in string }{
		{"empty", ""},
		{"no E", "DS 1 250 2;\nDF;\n"},
		{"no DS", "L NM;\nB 2 2 1 1;\nE"},
		{"nested DS", "DS 1 250 2;\nDS 2 250 2;\nDF;\nE"},
		{"bad DS", "DS 1 x 2;\nDF;\nE"},
		{"short DS", "DS 1 250;\nDF;\nE"},
		{"box before layer", "DS 1 250 2;\nB 2 2 1 1;\nDF;\nE"},
		{"bad box", "DS 1 250 2;\nL NM;\nB 2 2 1;\nDF;\nE"},
		{"bad box coord", "DS 1 250 2;\nL NM;\nB 2 2 1 z;\nDF;\nE"},
		{"zero box", "DS 1 250 2;\nL NM;\nB 0 2 1 1;\nDF;\nE"},
		{"unknown stmt", "DS 1 250 2;\nW 1 2 3;\nDF;\nE"},
		{"content after E", "DS 1 250 2;\nDF;\nE;\nL NM"},
		{"bad layer stmt", "DS 1 250 2;\nL;\nDF;\nE"},
		{"bad name stmt", "DS 1 250 2;\n9;\nDF;\nE"},
	}
	for _, c := range cases {
		if _, err := ReadCIF(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: accepted malformed CIF", c.name)
		}
	}
}

func TestWriteCIFRejectsOffGridLambda(t *testing.T) {
	g, _ := buildGeo(t, 10, 1, 1)
	p := tech.NMOS25()
	p.LambdaNM = 2505 // not a multiple of 10 nm
	if err := WriteCIF(&bytes.Buffer{}, g, p); err == nil {
		t.Fatal("off-grid lambda accepted")
	}
}

func TestStripCIFComments(t *testing.T) {
	in := "(outer (nested) comment) DS 1 2 3; (x) E"
	out := stripCIFComments(in)
	if strings.Contains(out, "comment") || !strings.Contains(out, "DS 1 2 3") {
		t.Fatalf("stripped = %q", out)
	}
}

func TestCIFGeometryScaleGuard(t *testing.T) {
	f := &CIFFile{ScaleA: 250, ScaleB: 1, Defined: true,
		Boxes: []CIFBox{{Layer: "NM", W: 2, H: 2, CX: 1, CY: 1}}}
	if _, err := f.Geometry(); err == nil {
		t.Fatal("wrong scale denominator accepted")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
