package prob

import (
	"fmt"
	"math"
	"testing"
)

// feedThroughCountDistLgamma is FeedThroughCountDist as it was written
// before the ln k! table: three Lgamma calls per m.  It is the oracle
// the table must match bit for bit.
func feedThroughCountDistLgamma(H int, p float64) ([]float64, error) {
	if H < 0 {
		return nil, fmt.Errorf("prob: FeedThroughCountDist needs H ≥ 0, got %d", H)
	}
	if !(p >= 0 && p <= 1) {
		return nil, fmt.Errorf("prob: feed-through probability %g outside [0,1]", p)
	}
	dist := make([]float64, H+1)
	lp, lq := math.Log(p), math.Log(1-p)
	for m := 0; m <= H; m++ {
		switch {
		case p == 0:
			if m == 0 {
				dist[m] = 1
			}
		case p == 1:
			if m == H {
				dist[m] = 1
			}
		default:
			lg1, _ := math.Lgamma(float64(H + 1))
			lg2, _ := math.Lgamma(float64(m + 1))
			lg3, _ := math.Lgamma(float64(H - m + 1))
			dist[m] = math.Exp(lg1 - lg2 - lg3 + float64(m)*lp + float64(H-m)*lq)
		}
	}
	return dist, nil
}

// maxFuzzH bounds the net count the fuzz target draws, and maxSumH the
// net count whose distribution must sum to 1 within 1e-12.  Past about
// 700 nets the log-space pmf drifts beyond that (H = 858 at p = 1/64
// sums to 1 + 1.008e-12): the same drift that makes the float E(M)
// inexact for large modules, and no business of the table.
const (
	maxFuzzH = 4096
	maxSumH  = 512
)

// FuzzFeedThroughCountDist requires the ln k! table to give the same
// bits and the same errors as three Lgamma calls per m, every accepted
// distribution to be finite, and those of up to maxSumH nets to sum to
// 1 within 1e-12.
//
//	go test -run NONE -fuzz FuzzFeedThroughCountDist -fuzztime 60s ./internal/prob
func FuzzFeedThroughCountDist(f *testing.F) {
	for _, seed := range []struct {
		h int
		p float64
	}{
		{0, 0.5}, {0, 0}, {1, 1}, {4, 0.5}, {7, 1.0 / 8}, {100, 0.3},
		{512, 0.49}, {4096, 0.3}, {3, math.NaN()}, {3, -0.1}, {3, 1.5}, {-1, 0.5},
		{5, math.Inf(1)}, {9, 5e-324}, {9, 1 - 1e-16},
	} {
		f.Add(seed.h, seed.p)
	}
	f.Fuzz(func(t *testing.T, h int, p float64) {
		if h > maxFuzzH {
			h %= maxFuzzH + 1
		}
		got, err := FeedThroughCountDist(h, p)
		want, werr := feedThroughCountDistLgamma(h, p)
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("H=%d p=%g: error %v, want %v", h, p, err, werr)
		}
		if err != nil {
			return
		}
		if len(got) != len(want) {
			t.Fatalf("H=%d p=%g: %d entries, want %d", h, p, len(got), len(want))
		}
		sum := 0.0
		for m := range got {
			if math.Float64bits(got[m]) != math.Float64bits(want[m]) {
				t.Fatalf("H=%d p=%g: P(%d) = %v, want %v", h, p, m, got[m], want[m])
			}
			if math.IsNaN(got[m]) || math.IsInf(got[m], 0) || got[m] < 0 {
				t.Fatalf("H=%d p=%g: P(%d) = %v", h, p, m, got[m])
			}
			sum += got[m]
		}
		if h <= maxSumH && math.Abs(sum-1) > 1e-12 {
			t.Fatalf("H=%d p=%g: distribution sums to %.17g", h, p, sum)
		}
	})
}
