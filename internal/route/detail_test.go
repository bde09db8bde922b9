package route

import (
	"context"
	"testing"

	"maest/internal/gen"
	"maest/internal/geom"
	"maest/internal/netlist"
	"maest/internal/place"
	"maest/internal/tech"
)

func TestDetailRouteValidates(t *testing.T) {
	for _, cfg := range []struct {
		gates, rows int
		seed        int64
	}{
		{20, 1, 1}, {40, 2, 2}, {60, 3, 3}, {80, 5, 4}, {120, 6, 5},
	} {
		pl := placed(t, cfg.gates, cfg.rows, cfg.seed)
		d, err := DetailRoute(pl)
		if err != nil {
			t.Fatalf("gates=%d rows=%d: %v", cfg.gates, cfg.rows, err)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("gates=%d rows=%d: %v", cfg.gates, cfg.rows, err)
		}
		if len(d.Channels) != cfg.rows+1 {
			t.Fatalf("channels = %d, want %d", len(d.Channels), cfg.rows+1)
		}
		if d.TotalTracks == 0 {
			t.Fatal("no tracks used")
		}
	}
}

func TestDetailRouteTrackCountsAtLeastDensity(t *testing.T) {
	// Detailed routing can never beat the undetailed density-optimal
	// left-edge count.
	for seed := int64(1); seed <= 4; seed++ {
		pl := placed(t, 50, 3, seed)
		coarse, err := RouteModule(context.Background(), pl, Options{TrackSharing: true})
		if err != nil {
			t.Fatal(err)
		}
		det, err := DetailRoute(pl)
		if err != nil {
			t.Fatal(err)
		}
		if det.TotalTracks < coarse.TotalTracks {
			t.Fatalf("seed %d: detailed %d tracks < density bound %d",
				seed, det.TotalTracks, coarse.TotalTracks)
		}
	}
}

func TestDetailRouteEveryNetRouted(t *testing.T) {
	pl := placed(t, 40, 3, 7)
	d, err := DetailRoute(pl)
	if err != nil {
		t.Fatal(err)
	}
	routed := map[*netlist.Net]bool{}
	for _, ch := range d.Channels {
		for _, w := range ch.Wires {
			routed[w.Net] = true
		}
	}
	for _, n := range pl.Circuit.Nets {
		if n.Degree() >= 2 && !routed[n] {
			t.Errorf("net %q not routed", n.Name)
		}
	}
}

func TestDetailRouteVerticalConstraintForced(t *testing.T) {
	// Construct a channel where net A enters from the top and net B
	// from the bottom at the same column: A's trunk must sit above
	// B's.  Two rows, two identical-width cells per row so centres
	// align column-wise.
	p := tech.NMOS25()
	b := netlist.NewBuilder("vc")
	// Column 0: g0 (row0) over g2 (row1); column 1: g1 over g3.
	b.AddDevice("g0", "INV", "a", "x") // row 0
	b.AddDevice("g2", "INV", "x", "q") // row 1 -> net x spans rows at column 0
	b.AddDevice("g1", "INV", "q", "y") // row 0
	b.AddDevice("g3", "INV", "y", "z") // row 1 -> net y spans rows at column 1
	b.AddPort("pa", netlist.In, "a")
	b.AddPort("pz", netlist.Out, "z")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := place.Place(context.Background(), c, p, place.Options{Rows: 2, Seed: 1, Moves: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := DetailRoute(pl)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDetailRouteDeterministic(t *testing.T) {
	pl := placed(t, 60, 4, 9)
	a, err := DetailRoute(pl)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DetailRoute(pl)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalTracks != b.TotalTracks || a.TotalDoglegs != b.TotalDoglegs {
		t.Fatal("detailed routing not deterministic")
	}
	for i := range a.Channels {
		if len(a.Channels[i].Wires) != len(b.Channels[i].Wires) {
			t.Fatalf("channel %d wire counts differ", i)
		}
	}
}

func TestDetailRouteSuiteCircuits(t *testing.T) {
	p := tech.NMOS25()
	suite, err := gen.StandardCellSuite(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range suite {
		for rows := 1; rows <= 5; rows++ {
			pl, err := place.Place(context.Background(), c, p, place.Options{Rows: rows, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			d, err := DetailRoute(pl)
			if err != nil {
				t.Fatalf("%s rows=%d: %v", c.Name, rows, err)
			}
			if err := d.Validate(); err != nil {
				t.Fatalf("%s rows=%d: %v", c.Name, rows, err)
			}
		}
	}
}

func TestDetailRouteRejectsBrokenPlacement(t *testing.T) {
	pl := placed(t, 10, 2, 3)
	pl.RowOf[0] = 1
	if _, err := DetailRoute(pl); err == nil {
		t.Fatal("corrupted placement accepted")
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	mkNet := func(name string) *netlist.Net { return &netlist.Net{Name: name} }
	// Overlapping trunks on one track.
	d := &Detailed{Channels: []Channel{{
		Index:  0,
		Tracks: 1,
		Wires: []Wire{
			{Net: mkNet("a"), Track: 0, Span: geom.Interval{Lo: 0, Hi: 10}},
			{Net: mkNet("b"), Track: 0, Span: geom.Interval{Lo: 5, Hi: 15}},
		},
	}}}
	if err := d.Validate(); err == nil {
		t.Error("overlapping trunks accepted")
	}
	// Track index out of range.
	d2 := &Detailed{Channels: []Channel{{
		Index: 0, Tracks: 1,
		Wires: []Wire{{Net: mkNet("a"), Track: 3, Span: geom.Interval{Lo: 0, Hi: 4}}},
	}}}
	if err := d2.Validate(); err == nil {
		t.Error("out-of-range track accepted")
	}
	// Drop outside span.
	d3 := &Detailed{Channels: []Channel{{
		Index: 0, Tracks: 1,
		Wires: []Wire{{Net: mkNet("a"), Track: 0, Span: geom.Interval{Lo: 0, Hi: 4},
			TopDrops: []geom.Lambda{9}}},
	}}}
	if err := d3.Validate(); err == nil {
		t.Error("out-of-span drop accepted")
	}
	// Vertical short: bottom wire above top wire at shared column.
	na, nb := mkNet("a"), mkNet("b")
	d4 := &Detailed{Channels: []Channel{{
		Index: 0, Tracks: 2,
		Wires: []Wire{
			{Net: na, Track: 1, Span: geom.Interval{Lo: 0, Hi: 10}, TopDrops: []geom.Lambda{5}},
			{Net: nb, Track: 0, Span: geom.Interval{Lo: 0, Hi: 10}, BottomDrops: []geom.Lambda{5}},
		},
	}}}
	if err := d4.Validate(); err == nil {
		t.Error("vertical short accepted")
	}
}

func TestFindCycle(t *testing.T) {
	// 0 -> 1 -> 2 -> 0 cycle.
	above := [][]int{{1}, {2}, {0}}
	if c := findCycle(above, 3); c < 0 {
		t.Fatal("cycle not found")
	}
	// DAG.
	dag := [][]int{{1, 2}, {2}, nil}
	if c := findCycle(dag, 3); c >= 0 {
		t.Fatalf("false cycle at %d", c)
	}
	if c := findCycle(nil, 0); c >= 0 {
		t.Fatal("empty graph cycle")
	}
}

func BenchmarkDetailRoute(b *testing.B) {
	p := tech.NMOS25()
	c, err := gen.RandomCircuit(gen.RandomConfig{
		Name: "det", Gates: 100, Inputs: 8, Outputs: 6, Seed: 1,
	}, p)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := place.Place(context.Background(), c, p, place.Options{Rows: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DetailRoute(pl); err != nil {
			b.Fatal(err)
		}
	}
}
