package route

import (
	"context"
	"fmt"
	"testing"
	"testing/quick"

	"maest/internal/gen"
	"maest/internal/geom"
	"maest/internal/netlist"
	"maest/internal/place"
	"maest/internal/tech"
)

func placed(t testing.TB, gates, rows int, seed int64) *place.Placement {
	t.Helper()
	p := tech.NMOS25()
	c, err := gen.RandomCircuit(gen.RandomConfig{
		Name: fmt.Sprintf("r%d", gates), Gates: gates, Inputs: 5, Outputs: 4, Seed: seed,
	}, p)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := place.Place(context.Background(), c, p, place.Options{Rows: rows, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestRouteModuleBasics(t *testing.T) {
	pl := placed(t, 60, 3, 1)
	res, err := RouteModule(context.Background(), pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ChannelTracks) != 4 {
		t.Fatalf("channels = %d, want rows+1 = 4", len(res.ChannelTracks))
	}
	if len(res.FeedThroughs) != 3 {
		t.Fatalf("feedthrough rows = %d, want 3", len(res.FeedThroughs))
	}
	if res.TotalTracks <= 0 || res.Segments <= 0 {
		t.Fatalf("empty routing: %+v", res)
	}
	sum := 0
	for _, c := range res.ChannelTracks {
		sum += c
	}
	if sum != res.TotalTracks {
		t.Fatalf("TotalTracks %d != channel sum %d", res.TotalTracks, sum)
	}
}

func TestSharingNeverWorse(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		pl := placed(t, 50, 3, seed)
		plain, err := RouteModule(context.Background(), pl, Options{})
		if err != nil {
			t.Fatal(err)
		}
		shared, err := RouteModule(context.Background(), pl, Options{TrackSharing: true})
		if err != nil {
			t.Fatal(err)
		}
		if shared.TotalTracks > plain.TotalTracks {
			t.Fatalf("seed %d: sharing used more tracks (%d > %d)",
				seed, shared.TotalTracks, plain.TotalTracks)
		}
		if shared.TotalFeedThroughs != plain.TotalFeedThroughs {
			t.Fatalf("seed %d: sharing changed feed-throughs", seed)
		}
		for c := range plain.ChannelTracks {
			if shared.ChannelTracks[c] > plain.ChannelTracks[c] {
				t.Fatalf("seed %d channel %d: sharing worse", seed, c)
			}
		}
	}
}

func TestSingleRowRouting(t *testing.T) {
	// All nets in one row: one segment each in channel 0, no
	// feed-throughs.
	pl := placed(t, 20, 1, 2)
	res, err := RouteModule(context.Background(), pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalFeedThroughs != 0 {
		t.Fatalf("single row has %d feed-throughs", res.TotalFeedThroughs)
	}
	if res.ChannelTracks[1] != 0 {
		t.Fatalf("channel below single row should be empty, has %d tracks", res.ChannelTracks[1])
	}
	s, err := netlist.Gather(pl.Circuit, tech.NMOS25())
	if err != nil {
		t.Fatal(err)
	}
	if res.ChannelTracks[0] != s.H {
		t.Fatalf("one track per routable net expected: %d != H=%d", res.ChannelTracks[0], s.H)
	}
}

func TestFeedThroughInsertion(t *testing.T) {
	// Hand-built: a 2-pin net between row 0 and row 2 must insert a
	// feed-through in row 1.
	p := tech.NMOS25()
	b := netlist.NewBuilder("ft")
	b.AddDevice("g0", "INV", "a", "x")
	b.AddDevice("g1", "INV", "b", "c") // filler in row 1
	b.AddDevice("g2", "INV", "x", "y")
	b.AddPort("pa", netlist.In, "a")
	b.AddPort("pb", netlist.In, "b")
	b.AddPort("pc", netlist.Out, "c")
	b.AddPort("py", netlist.Out, "y")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := place.Place(context.Background(), c, p, place.Options{Rows: 3, Seed: 1, Moves: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Round-robin initial deal: g0->row0, g1->row1, g2->row2.
	if pl.RowOf[0] != 0 || pl.RowOf[2] != 2 {
		t.Skip("initial deal changed; rewrite fixture")
	}
	res, err := RouteModule(context.Background(), pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.FeedThroughs[1] != 1 {
		t.Fatalf("feedthroughs in row 1 = %d, want 1", res.FeedThroughs[1])
	}
	// Net x crosses channels 1 and 2: each carries a segment.
	if res.ChannelTracks[1] == 0 || res.ChannelTracks[2] == 0 {
		t.Fatalf("crossing channels empty: %v", res.ChannelTracks)
	}
}

func TestNoFeedThroughWhenPinInIntermediateRow(t *testing.T) {
	// A 3-pin net with a pin in the middle row crosses without a
	// feed-through.
	p := tech.NMOS25()
	b := netlist.NewBuilder("mid")
	b.AddDevice("g0", "INV", "x", "a")
	b.AddDevice("g1", "INV", "x", "b")
	b.AddDevice("g2", "INV", "x", "c")
	b.AddDevice("gd", "INV", "d", "x")
	b.AddPort("pd", netlist.In, "d")
	b.AddPort("pa", netlist.Out, "a")
	b.AddPort("pb", netlist.Out, "b")
	b.AddPort("pc", netlist.Out, "c")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := place.Place(context.Background(), c, p, place.Options{Rows: 3, Seed: 1, Moves: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Net x touches g0(row0), g1(row1), g2(row2), gd(row0): middle
	// row has a pin.
	res, err := RouteModule(context.Background(), pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalFeedThroughs != 0 {
		t.Fatalf("unexpected feed-throughs: %v", res.FeedThroughs)
	}
}

func TestLeftEdgeEqualsDensity(t *testing.T) {
	// Left-edge without vertical constraints achieves exactly the
	// channel density.
	f := func(raw []uint16) bool {
		var segs []segment
		var ivs []geom.Interval
		for i := 0; i+1 < len(raw); i += 2 {
			lo := geom.Lambda(raw[i] % 500)
			hi := lo + geom.Lambda(raw[i+1]%50) + 1
			iv := geom.Interval{Lo: lo, Hi: hi}
			segs = append(segs, segment{iv})
			ivs = append(ivs, iv)
		}
		return leftEdge(segs, 0) == Density(ivs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDensity(t *testing.T) {
	ivs := []geom.Interval{{Lo: 0, Hi: 10}, {Lo: 5, Hi: 15}, {Lo: 10, Hi: 20}, {Lo: 0, Hi: 3}}
	if d := Density(ivs); d != 2 {
		t.Fatalf("density = %d, want 2", d)
	}
	ivs = append(ivs, geom.Interval{Lo: 1, Hi: 12})
	if d := Density(ivs); d != 3 {
		t.Fatalf("density = %d, want 3", d)
	}
	if d := Density(nil); d != 0 {
		t.Fatalf("density(nil) = %d", d)
	}
	// Touching intervals do not overlap.
	if d := Density([]geom.Interval{{Lo: 0, Hi: 5}, {Lo: 5, Hi: 9}}); d != 1 {
		t.Fatalf("touching density = %d, want 1", d)
	}
}

func TestRouteRejectsBrokenPlacement(t *testing.T) {
	pl := placed(t, 10, 2, 3)
	pl.RowOf[0] = 1 // corrupt the index map
	if _, err := RouteModule(context.Background(), pl, Options{}); err == nil {
		t.Fatal("corrupted placement accepted")
	}
}
