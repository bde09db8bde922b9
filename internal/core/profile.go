package core

import (
	"math"

	"maest/internal/netlist"
	"maest/internal/obs"
	"maest/internal/prob"
	"maest/internal/tech"
)

// Feed-through profile metrics: how often the per-row refinement is
// computed and how its totals distribute — the signal the
// early-routability work (Kar et al.) consumes.
var (
	mProfiles     = obs.DefCounter("maest_feedthrough_profiles_total", "computed per-row feed-through profiles")
	mProfileMax   = obs.DefHistogram("maest_feedthrough_profile_max", "max per-row expected feed-through count", obs.CountBuckets)
	mProfileTotal = obs.DefHistogram("maest_feedthrough_profile_sum", "total expected feed-through count over all rows", obs.CountBuckets)
)

// FeedThroughProfile is a refinement the paper's future-work section
// invites: instead of modelling every row with the central row's
// feed-through expectation (Eqs. 9–11 use the two-component-net
// central-row bound for all rows), compute the expected feed-through
// count of *each* row from the full Eq. 4/5 probability at that row,
// summed over the real net-degree histogram.  Row i's expected width
// is then its own cell width plus its own feed-through columns, and
// the module width is the widest row — a tighter Eq. 12 width term.
type FeedThroughProfile struct {
	Rows int
	// PerRow[i] is the expected feed-through count of row i+1.
	PerRow []float64
	// Central is the paper's single-row model for comparison.
	Central float64
}

// FeedThroughRowProfile computes the per-row expected feed-through
// counts for a module's net-degree histogram over n rows.
func FeedThroughRowProfile(s *netlist.Stats, n int) (*FeedThroughProfile, error) {
	if n < 1 {
		return nil, estErr("profile %q: rows %d < 1", s.CircuitName, n)
	}
	prof := &FeedThroughProfile{Rows: n, PerRow: make([]float64, n)}
	for i := 1; i <= n; i++ {
		total := 0.0
		for _, d := range s.Degrees() {
			p, err := prob.FeedThroughProb(n, d, i)
			if err != nil {
				return nil, estErr("profile %q: %v", s.CircuitName, err)
			}
			total += float64(s.DegreeCount[d]) * p
		}
		prof.PerRow[i-1] = total
	}
	pc, err := prob.CentralFeedThroughProb(n)
	if err != nil {
		return nil, estErr("profile %q: %v", s.CircuitName, err)
	}
	prof.Central = float64(s.H) * pc
	mProfiles.Inc()
	mProfileMax.Observe(prof.Max())
	mProfileTotal.Observe(prof.Total())
	return prof, nil
}

// Max returns the largest per-row expectation (always the central
// row, by the paper's theorem).
func (f *FeedThroughProfile) Max() float64 {
	m := 0.0
	for _, v := range f.PerRow {
		if v > m {
			m = v
		}
	}
	return m
}

// Total returns the expected feed-through count over all rows — what
// the layout engine's feed-through insertion should average to.
func (f *FeedThroughProfile) Total() float64 {
	t := 0.0
	for _, v := range f.PerRow {
		t += v
	}
	return t
}

// EstimateStandardCellProfiled runs the Standard-Cell estimator with
// the per-row feed-through width term: width = W_avg·N/n +
// ⌈max-row E(M_i)⌉·f_w, everything else per Eq. 12.  For workloads of
// two-component nets the paper's central-row model upper-bounds the
// profile, so the profiled estimate is tighter; for high-degree nets
// the relationship flips — the two-component simplification of Eq. 9
// *under*-counts their feed-throughs (Eq. 5's probability grows with
// D), which the profile corrects.
func EstimateStandardCellProfiled(s *netlist.Stats, p *tech.Process, opts SCOptions) (*SCEstimate, error) {
	base, err := EstimateStandardCell(s, p, opts)
	if err != nil {
		return nil, err
	}
	prof, err := FeedThroughRowProfile(s, base.Rows)
	if err != nil {
		return nil, err
	}
	m := int(math.Ceil(prof.Max() - 1e-9))
	if base.Rows == 1 {
		m = 0
	}
	est := *base
	est.FeedThroughs = m
	est.Width = est.CellLength + float64(m)*float64(p.FeedThroughWidth)
	est.Area = est.Width * est.Height
	if est.Height > 0 {
		est.AspectRatio = est.Width / est.Height
	}
	return &est, nil
}
