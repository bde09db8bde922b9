package congest

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"maest/internal/hdl"
	"maest/internal/netlist"
	"maest/internal/prob"
	"maest/internal/tech"
)

var update = flag.Bool("update", false, "rewrite golden files")

// stats builds a synthetic degree histogram: degrees[d] = y_d.
func stats(name string, degrees map[int]int) *netlist.Stats {
	s := &netlist.Stats{CircuitName: name, N: 8, DegreeCount: map[int]int{}}
	for d, y := range degrees {
		if d >= 2 {
			s.DegreeCount[d] = y
			s.H += y
		}
	}
	return s
}

func TestParseModel(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Model
	}{{"", ModelOccupancy}, {"occupancy", ModelOccupancy}, {"crossing", ModelCrossing}} {
		got, err := ParseModel(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseModel(%q) = %v, %v", c.in, got, err)
		}
		if c.in != "" && got.String() != c.in {
			t.Errorf("String() = %q, want %q", got.String(), c.in)
		}
	}
	if _, err := ParseModel("bogus"); err == nil {
		t.Fatal("ParseModel accepted bogus model")
	}
}

// A module with no routable nets must get a well-defined zero-demand
// map: point-mass distributions, zero utilization, zero overflow, no
// hotspots — not NaN.
func TestZeroNetsZeroDemand(t *testing.T) {
	for _, model := range []Model{ModelOccupancy, ModelCrossing} {
		m, err := Analyze(stats("empty", nil), 4, Options{Model: model})
		if err != nil {
			t.Fatal(err)
		}
		if m.TotalExpectedTracks != 0 || m.TotalExpectedFeeds != 0 {
			t.Fatalf("%v: empty module has demand %g/%g", model, m.TotalExpectedTracks, m.TotalExpectedFeeds)
		}
		for _, ch := range m.Channels {
			if len(ch.Demand) != 1 || ch.Demand[0] != 1 {
				t.Fatalf("%v: channel %d demand dist %v, want point mass at 0", model, ch.Index, ch.Demand)
			}
			if ch.Utilization != 0 || ch.POverflow != 0 || math.IsNaN(ch.Utilization) {
				t.Fatalf("%v: channel %d util %g overflow %g", model, ch.Index, ch.Utilization, ch.POverflow)
			}
		}
		if len(m.Hotspots) != 0 {
			t.Fatalf("%v: empty module has hotspots %v", model, m.Hotspots)
		}
	}
}

// A single-row module has no between-row routing: all channel demand
// sits in the one channel above the row, and feed-through pressure is
// exactly zero (satellite regression for the n = 1 corner).
func TestSingleRow(t *testing.T) {
	s := stats("onerow", map[int]int{2: 3, 5: 2})
	for _, model := range []Model{ModelOccupancy, ModelCrossing} {
		m, err := Analyze(s, 1, Options{Model: model})
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Channels) != 2 {
			t.Fatalf("%v: %d channels for 1 row, want 2", model, len(m.Channels))
		}
		// Every net is single-row with probability 1, so channel 0
		// demand is exactly H and channel 1 is structurally empty.
		if got := m.Channels[0].Expected; math.Abs(got-5) > 1e-9 {
			t.Errorf("%v: channel 0 expected %g, want 5", model, got)
		}
		if m.Channels[1].Expected != 0 {
			t.Errorf("%v: below-row channel has demand %g", model, m.Channels[1].Expected)
		}
		if m.TotalExpectedFeeds != 0 {
			t.Errorf("%v: single row has feed pressure %g", model, m.TotalExpectedFeeds)
		}
		for _, rf := range m.Feeds {
			if rf.Expected != 0 || rf.POverBudget != 0 {
				t.Errorf("%v: row %d pressure %g/%g, want 0", model, rf.Index, rf.Expected, rf.POverBudget)
			}
		}
	}
}

// Degenerate D ≫ n inputs must stay finite and normalized (satellite
// regression: the old Eq. 2 evaluation produced probabilities in the
// hundreds at scale).
func TestHugeDegreeStaysFinite(t *testing.T) {
	s := stats("huge", map[int]int{10000: 3, 2: 1})
	for _, model := range []Model{ModelOccupancy, ModelCrossing} {
		m, err := Analyze(s, 3, Options{Model: model})
		if err != nil {
			t.Fatal(err)
		}
		for _, ch := range m.Channels {
			sum := 0.0
			for i, p := range ch.Demand {
				if math.IsNaN(p) || p < 0 || p > 1+1e-9 {
					t.Fatalf("%v: channel %d P(%d) = %g", model, ch.Index, i, p)
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("%v: channel %d distribution sums to %g", model, ch.Index, sum)
			}
			if ch.POverflow < 0 || ch.POverflow > 1 {
				t.Fatalf("%v: channel %d overflow %g", model, ch.Index, ch.POverflow)
			}
		}
	}
}

// The occupancy model is a lossless refinement of the estimator: its
// total expected demand reproduces the unrounded Eq. 3 expectation.
func TestOccupancyMatchesEq3(t *testing.T) {
	s := stats("eq3", map[int]int{2: 7, 3: 4, 4: 2, 9: 1})
	for rows := 1; rows <= 7; rows++ {
		m, err := Analyze(s, rows, Options{Model: ModelOccupancy})
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		for d, y := range s.DegreeCount {
			e, err := prob.ExpectedRowSpan(rows, d)
			if err != nil {
				t.Fatal(err)
			}
			want += float64(y) * e
		}
		if math.Abs(m.TotalExpectedTracks-want) > 1e-9*math.Max(1, want) {
			t.Errorf("rows=%d: total expected %g, Eq. 3 gives %g", rows, m.TotalExpectedTracks, want)
		}
	}
}

// The crossing model concentrates demand centrally: interior channels
// must carry at least as much expected demand as the edge channel
// above row 0, and the profile must be symmetric about the middle.
func TestCrossingConcentratesCentrally(t *testing.T) {
	s := stats("central", map[int]int{2: 10, 3: 5})
	m, err := Analyze(s, 6, Options{Model: ModelCrossing})
	if err != nil {
		t.Fatal(err)
	}
	interior := m.Channels[1 : len(m.Channels)-1]
	for _, ch := range interior {
		if ch.Expected < m.Channels[0].Expected {
			t.Errorf("interior channel %d (%g) below edge channel 0 (%g)",
				ch.Index, ch.Expected, m.Channels[0].Expected)
		}
	}
	for i, j := 1, len(interior); i < j; i, j = i+1, j-1 {
		a, b := m.Channels[i].Expected, m.Channels[j].Expected
		if math.Abs(a-b) > 1e-9 {
			t.Errorf("crossing profile asymmetric: channel %d = %g, channel %d = %g", i, a, j, b)
		}
	}
	mid := m.Channels[len(m.Channels)/2]
	if mid.Expected <= m.Channels[1].Expected {
		t.Errorf("central channel %g not above near-edge channel %g", mid.Expected, m.Channels[1].Expected)
	}
}

// Feed-through pressure peaks at the paper's central row (Eq. 9's
// worst-case row).
func TestFeedPressurePeaksCentrally(t *testing.T) {
	s := stats("feeds", map[int]int{3: 6, 5: 3})
	m, err := Analyze(s, 7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	central := prob.CentralRow(7) - 1
	for _, rf := range m.Feeds {
		if rf.Expected > m.Feeds[central].Expected+1e-12 {
			t.Errorf("row %d pressure %g exceeds central row %g", rf.Index, rf.Expected, m.Feeds[central].Expected)
		}
	}
}

func TestHotspotsRanked(t *testing.T) {
	s := stats("rank", map[int]int{2: 8, 4: 4, 6: 2})
	m, err := Analyze(s, 5, Options{Model: ModelCrossing, Capacity: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Hotspots) == 0 {
		t.Fatal("no hotspots on a loaded module")
	}
	for i := 1; i < len(m.Hotspots); i++ {
		if m.Hotspots[i].Score > m.Hotspots[i-1].Score+1e-12 {
			t.Fatalf("hotspots out of order at %d: %v", i, m.Hotspots)
		}
	}
	if m.HottestChannel() < 0 {
		t.Fatal("HottestChannel found nothing")
	}
}

func TestGridVariant(t *testing.T) {
	s := stats("grid", map[int]int{2: 5, 3: 2, 4: 1})
	s.N = 9 // → 3 grid rows
	m, err := AnalyzeGrid(s, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Gridded || m.Rows != 3 {
		t.Fatalf("gridded=%v rows=%d, want true/3", m.Gridded, m.Rows)
	}
	if len(m.Feeds) != 0 {
		t.Fatal("gridded map has feed-through rows")
	}
	// Eq. 13 footnote: D = 2 nets contribute nothing, so only the
	// 2 + 1 = 3 higher-degree nets are analyzed.
	if m.Nets != 3 {
		t.Fatalf("grid analyzed %d nets, want 3 (D=2 excluded)", m.Nets)
	}
	if m.TotalExpectedTracks <= 0 {
		t.Fatal("grid map carries no demand")
	}
	// All-two-component modules (the Table 1 footnote case) get a
	// zero-demand grid map.
	zero, err := AnalyzeGrid(stats("ladder", map[int]int{2: 9}), 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if zero.TotalExpectedTracks != 0 || len(zero.Hotspots) != 0 {
		t.Fatalf("two-component module has grid demand %g", zero.TotalExpectedTracks)
	}
}

func TestAnalyzeRejectsBadInputs(t *testing.T) {
	s := stats("bad", map[int]int{2: 1})
	if _, err := Analyze(s, 0, Options{}); err == nil {
		t.Fatal("rows 0 accepted")
	}
	if _, err := Analyze(s, 3, Options{Capacity: -1}); err == nil {
		t.Fatal("negative capacity accepted")
	}
	if _, err := Analyze(s, 3, Options{FeedBudget: -2}); err == nil {
		t.Fatal("negative feed budget accepted")
	}
}

// AnalyzeDistributionsCtx is the engine's route to a congestion map:
// distributions computed once, scored per knob set.  Scoring them must
// give exactly the map the from-scratch entry points build, for both
// models, gridded or not, at every capacity and feed budget; bad knobs
// must fail with the same ErrCongest text.
func TestAnalyzeDistributionsMatchesAnalyze(t *testing.T) {
	ctx := context.Background()
	s := stats("dist", map[int]int{2: 5, 3: 3, 4: 2, 6: 1})
	const rows = 3
	for _, model := range []Model{ModelOccupancy, ModelCrossing} {
		for _, gridded := range []bool{false, true} {
			d, err := ComputeDistributions(s, rows, gridded, model)
			if err != nil {
				t.Fatal(err)
			}
			for _, capacity := range []int{0, 1, 3, 40} {
				for _, budget := range []int{0, 1, 5} {
					opts := Options{Model: model, Capacity: capacity, FeedBudget: budget}
					var want *Map
					if gridded {
						want, err = AnalyzeGridCtx(ctx, s, rows, opts)
					} else {
						want, err = AnalyzeCtx(ctx, s, rows, opts)
					}
					if err != nil {
						t.Fatal(err)
					}
					got, err := AnalyzeDistributionsCtx(ctx, d, opts)
					if err != nil {
						t.Fatalf("%v gridded=%t %+v: %v", model, gridded, opts, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%v gridded=%t %+v: scored distributions differ from the direct analysis\ngot  %+v\nwant %+v",
							model, gridded, opts, got, want)
					}
				}
			}
		}
	}

	d, err := ComputeDistributions(s, rows, false, ModelOccupancy)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		opts Options
		want string
	}{
		{Options{Capacity: -1}, `congest: analysis failed: module "dist": negative channel capacity -1`},
		{Options{FeedBudget: -2}, `congest: analysis failed: module "dist": negative feed-through budget -2`},
		{Options{Model: ModelCrossing}, `congest: analysis failed: module "dist": scoring model crossing against occupancy distributions`},
	} {
		_, err := AnalyzeDistributionsCtx(ctx, d, c.opts)
		if !errors.Is(err, ErrCongest) || err.Error() != c.want {
			t.Errorf("%+v: error %v, want %q wrapping ErrCongest", c.opts, err, c.want)
		}
	}
}

// The rendered map for the demo module is pinned as a golden file: any
// change to the distributions, scoring, or ranking surfaces as a diff.
func TestRenderGolden(t *testing.T) {
	circ := parseTestdata(t, "demo.mnet")
	p := tech.NMOS25()
	s, err := netlist.Gather(circ, p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, model := range []Model{ModelOccupancy, ModelCrossing} {
		m, err := Analyze(s, 3, Options{Model: model})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Render(&buf); err != nil {
			t.Fatal(err)
		}
		buf.WriteString("\n")
	}
	g, err := netlist.Gather(circ, p)
	if err != nil {
		t.Fatal(err)
	}
	gm, err := AnalyzeGrid(g, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := gm.Render(&buf); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("..", "..", "testdata", "golden", "congest_map.txt")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("congestion map differs from golden (run with -update after intentional changes)\ngot:\n%s\nwant:\n%s",
			buf.Bytes(), want)
	}
}

func parseTestdata(t *testing.T, name string) *netlist.Circuit {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c, err := hdl.ParseMnet(f)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
