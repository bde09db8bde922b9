package congest

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"maest/internal/gen"
	"maest/internal/netlist"
	"maest/internal/prob"
	"maest/internal/tech"
)

// referenceDistributions is ComputeDistributions as it was before
// chains: one Poisson-binomial chain per channel and per row, computed
// whether or not an equal one came before.  It is the oracle the chain
// memo must match in value, error text and error order.
func referenceDistributions(s *netlist.Stats, rows int, gridded bool, model Model) (*Distributions, error) {
	if rows < 1 {
		return nil, anaErr("module %q: row count %d < 1", s.CircuitName, rows)
	}
	classes := demandClasses(s, gridded)
	d := &Distributions{
		Module:  s.CircuitName,
		Rows:    rows,
		Gridded: gridded,
		Model:   model,
		Nets:    classCount(classes),
	}
	d.Channels = make([][]float64, rows+1)
	for c := range d.Channels {
		dist, err := channelDemandDist(classes, rows, c, model)
		if err != nil {
			return nil, anaErr("module %q: channel %d: %v", s.CircuitName, c, err)
		}
		d.Channels[c] = dist
	}
	if !gridded {
		d.Feeds = make([][]float64, rows)
		for r := 0; r < rows; r++ {
			dist, err := rowFeedDist(classes, rows, r)
			if err != nil {
				return nil, anaErr("module %q: row %d: %v", s.CircuitName, r, err)
			}
			d.Feeds[r] = dist
		}
	}
	return d, nil
}

// channelDemandDist convolves one binomial per degree class into the
// Poisson-binomial track-demand distribution of channel c.
func channelDemandDist(classes []class, rows, c int, model Model) ([]float64, error) {
	dist := []float64{1}
	for _, cl := range classes {
		p, err := channelProb(model, rows, cl.degree, c)
		if err != nil {
			return nil, err
		}
		if p == 0 {
			continue
		}
		b, err := prob.FeedThroughCountDist(cl.count, p)
		if err != nil {
			return nil, err
		}
		dist = prob.Convolve(dist, b)
	}
	return dist, nil
}

// rowFeedDist convolves the Eq. 10 binomials of every degree class at
// row r's Eq. 5 probability.
func rowFeedDist(classes []class, rows, r int) ([]float64, error) {
	dist := []float64{1}
	for _, cl := range classes {
		p, err := prob.FeedThroughProb(rows, cl.degree, r+1)
		if err != nil {
			return nil, err
		}
		if p == 0 {
			continue
		}
		b, err := prob.FeedThroughCountDist(cl.count, p)
		if err != nil {
			return nil, err
		}
		dist = prob.Convolve(dist, b)
	}
	return dist, nil
}

// sameDistributions fails t unless ComputeDistributions and the
// reference agree: deep-equal values, or the same error text.
func sameDistributions(t *testing.T, s *netlist.Stats, rows int, gridded bool, model Model) {
	t.Helper()
	got, err := ComputeDistributions(s, rows, gridded, model)
	want, werr := referenceDistributions(s, rows, gridded, model)
	if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
		t.Fatalf("%s rows=%d gridded=%t %v: error %v, want %v", s.CircuitName, rows, gridded, model, err, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s rows=%d gridded=%t %v: distributions differ from the per-channel loop", s.CircuitName, rows, gridded, model)
	}
}

// TestChainsMatchPerChannelLoop runs the oracle over both gen suites
// (the Table 1/2 modules), the checked-in netlists, random gen circuits
// and random histograms, at every row count 1…N, gridded or not, under
// both models.
func TestChainsMatchPerChannelLoop(t *testing.T) {
	p := tech.NMOS25()
	var circuits []*netlist.Circuit
	for _, suite := range []func(*tech.Process) ([]*netlist.Circuit, error){gen.FullCustomSuite, gen.StandardCellSuite} {
		cs, err := suite(p)
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, cs...)
	}
	circuits = append(circuits, parseTestdata(t, "demo.mnet"), parseTestdata(t, "ladder.mnet"))
	for seed := int64(1); seed <= 3; seed++ {
		c, err := gen.RandomCircuit(gen.RandomConfig{
			Name: fmt.Sprintf("rand%d", seed), Gates: 40 * int(seed), Inputs: 6, Outputs: 4, Seed: seed,
		}, p)
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, c)
	}
	var all []*netlist.Stats
	for _, c := range circuits {
		s, err := netlist.Gather(c, p)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, s)
	}
	rng := rand.New(rand.NewSource(38))
	for i := 0; i < 20; i++ {
		s := randomStats(rng)
		s.CircuitName = fmt.Sprintf("hist%d", i)
		s.N = rng.Intn(30) + 1
		all = append(all, s)
	}
	all = append(all, stats("empty", nil), stats("huge", map[int]int{10000: 3, 2: 1}))
	for _, s := range all {
		for rows := 1; rows <= s.N; rows++ {
			for _, gridded := range []bool{false, true} {
				for _, model := range []Model{ModelOccupancy, ModelCrossing} {
					sameDistributions(t, s, rows, gridded, model)
				}
			}
		}
	}
	// Errors: a row count below one and an unknown model.
	s := all[0]
	sameDistributions(t, s, 0, false, ModelOccupancy)
	sameDistributions(t, s, 3, false, Model(7))
	sameDistributions(t, s, 3, true, Model(7))
}

// The occupancy model's channels above each row share one chain, so
// rows channels cost one convolution chain, not rows.
func TestOccupancyChannelsShareOneChain(t *testing.T) {
	s := stats("share", map[int]int{2: 5, 3: 4, 6: 2})
	d, err := ComputeDistributions(s, 7, false, ModelOccupancy)
	if err != nil {
		t.Fatal(err)
	}
	for c := 1; c < 7; c++ {
		if &d.Channels[c][0] != &d.Channels[0][0] {
			t.Fatalf("channel %d computed its own chain", c)
		}
	}
}

// FuzzComputeDistributions requires the chain memo to match the
// per-channel loop over random histograms, row counts, both grid
// variants and every model value, valid or not.
//
//	go test -run NONE -fuzz FuzzComputeDistributions -fuzztime 60s ./internal/congest
func FuzzComputeDistributions(f *testing.F) {
	f.Add([]byte{2, 5, 3, 4}, uint8(4), false, uint8(0))
	f.Add([]byte{2, 1, 9, 2, 40, 1}, uint8(9), true, uint8(1))
	f.Add([]byte{}, uint8(1), false, uint8(1))
	f.Add([]byte{3, 3}, uint8(0), false, uint8(0))
	f.Add([]byte{4, 2}, uint8(3), false, uint8(5))
	f.Fuzz(func(t *testing.T, hist []byte, rows uint8, gridded bool, model uint8) {
		degrees := map[int]int{}
		for i := 0; i+1 < len(hist) && i < 16; i += 2 {
			degrees[int(hist[i])] += int(hist[i+1])
		}
		s := stats("fuzz", degrees)
		sameDistributions(t, s, int(rows%48), gridded, Model(model%3))
	})
}
