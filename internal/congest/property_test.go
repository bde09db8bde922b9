package congest

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"maest/internal/netlist"
	"maest/internal/prob"
)

// Property suite over randomized degree histograms (seeded, so
// failures reproduce).  Three invariants the congestion map must hold
// at any scale:
//
//  1. every overflow probability is a probability,
//  2. the occupancy model's total expected demand equals the Eq. 3
//     track expectation (consistency with the estimator), and
//  3. demand is monotone in net count.

func randomStats(rng *rand.Rand) *netlist.Stats {
	degrees := map[int]int{}
	for k := rng.Intn(5) + 1; k > 0; k-- {
		degrees[rng.Intn(12)+2] += rng.Intn(9) + 1
	}
	return stats("prop", degrees)
}

func TestPropertyOverflowIsProbability(t *testing.T) {
	rng := rand.New(rand.NewSource(1988))
	for trial := 0; trial < 60; trial++ {
		s := randomStats(rng)
		rows := rng.Intn(8) + 1
		model := Model(rng.Intn(2))
		capacity := rng.Intn(6) // 0 derives the balanced default
		m, err := Analyze(context.Background(), s, rows, false, Options{Model: model, Capacity: capacity})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		d, err := ComputeDistributions(s, rows, false, model)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, ch := range m.Channels {
			if ch.POverflow < 0 || ch.POverflow > 1 || math.IsNaN(ch.POverflow) {
				t.Fatalf("trial %d: channel %d P(overflow) = %g", trial, ch.Index, ch.POverflow)
			}
			sum := 0.0
			for _, p := range d.Channels[ch.Index] {
				if p < -1e-15 || p > 1+1e-9 || math.IsNaN(p) {
					t.Fatalf("trial %d: channel %d carries probability %g", trial, ch.Index, p)
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("trial %d: channel %d distribution sums to %g", trial, ch.Index, sum)
			}
		}
		for _, rf := range m.Feeds {
			if rf.POverBudget < 0 || rf.POverBudget > 1 || math.IsNaN(rf.POverBudget) {
				t.Fatalf("trial %d: row %d P(over budget) = %g", trial, rf.Index, rf.POverBudget)
			}
		}
		for _, h := range m.Hotspots {
			if h.Score < 0 || h.Score > 1 {
				t.Fatalf("trial %d: hotspot score %g outside [0,1]", trial, h.Score)
			}
		}
	}
}

func TestPropertyOccupancyTotalEqualsEq3(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for trial := 0; trial < 60; trial++ {
		s := randomStats(rng)
		rows := rng.Intn(10) + 1
		m, err := Analyze(context.Background(), s, rows, false, Options{Model: ModelOccupancy})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
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
			t.Fatalf("trial %d (rows=%d): map total %g, Eq. 3 total %g",
				trial, rows, m.TotalExpectedTracks, want)
		}
	}
}

// Adding nets can only add demand: with a fixed capacity, every
// channel's expected demand and overflow probability must be
// non-decreasing when any degree class grows.
func TestPropertyDemandMonotoneInNetCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1192))
	for trial := 0; trial < 40; trial++ {
		s := randomStats(rng)
		rows := rng.Intn(6) + 1
		model := Model(rng.Intn(2))
		opts := Options{Model: model, Capacity: rng.Intn(5) + 1, FeedBudget: rng.Intn(3) + 1}
		base, err := Analyze(context.Background(), s, rows, false, opts)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		// Grow one random class by one net.
		grown := stats("prop", nil)
		for d, y := range s.DegreeCount {
			grown.DegreeCount[d] = y
			grown.H += y
		}
		d := rng.Intn(12) + 2
		grown.DegreeCount[d]++
		grown.H++

		more, err := Analyze(context.Background(), grown, rows, false, opts)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if more.TotalExpectedTracks < base.TotalExpectedTracks-1e-12 {
			t.Fatalf("trial %d: total demand fell from %g to %g after adding a net",
				trial, base.TotalExpectedTracks, more.TotalExpectedTracks)
		}
		for c := range base.Channels {
			if more.Channels[c].Expected < base.Channels[c].Expected-1e-12 {
				t.Fatalf("trial %d: channel %d expected fell %g → %g",
					trial, c, base.Channels[c].Expected, more.Channels[c].Expected)
			}
			if more.Channels[c].POverflow < base.Channels[c].POverflow-1e-9 {
				t.Fatalf("trial %d: channel %d overflow fell %g → %g",
					trial, c, base.Channels[c].POverflow, more.Channels[c].POverflow)
			}
		}
		if more.TotalExpectedFeeds < base.TotalExpectedFeeds-1e-12 {
			t.Fatalf("trial %d: feed pressure fell %g → %g",
				trial, base.TotalExpectedFeeds, more.TotalExpectedFeeds)
		}
	}
}
