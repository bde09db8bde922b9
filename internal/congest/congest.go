// Package congest is the probabilistic routability subsystem: it
// upgrades the paper's Eq. 2–3 / Eq. 4–11 expectation math from a
// single expected track and feed-through count per module into full
// per-channel track-demand distributions, and emits a congestion map —
// demand vs. capacity utilization per routing channel, overflow
// probability P(tracks > capacity), feed-through pressure per row, and
// a ranked hotspot list.
//
// The estimator (internal/core) answers "how much routing does this
// module need"; this package answers "where does that routing demand
// concentrate", which is what makes a pre-layout estimate actionable
// (cf. Kar, Sur-Kolay & Mandal, "Early Routability Assessment in VLSI
// Floorplans: A Generalized Routing Model" — PAPERS.md).
//
// Two demand models are provided:
//
//   - ModelOccupancy is the paper's own Eq. 2–3 accounting: a net
//     occupying i rows needs i tracks, one in the channel adjacent to
//     each occupied row.  Its total expected demand equals the Eq. 3
//     track expectation Σ yᵢ·E(i) exactly (property-tested), so the
//     map is a lossless refinement of the estimator's Tracks number.
//   - ModelCrossing is the spine-router accounting internal/route
//     implements: a net contributes a segment to every channel it
//     crosses (plus the channel above its row when it stays in one
//     row), which concentrates demand in the central channels.  This
//     is the model report.ValidateRoute scores against routed layouts.
//
// Channel indices match route.Result.ChannelTracks: channel c runs
// above row c (0-based), channel n below the last row.  Per-channel
// demand is a Poisson-binomial over the net-degree histogram, computed
// exactly by convolving one binomial per degree class.
package congest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"maest/internal/netlist"
	"maest/internal/obs"
	"maest/internal/prob"
)

// Analysis metrics: the overflow-channel counter is the alerting
// signal ("this floorplan is about to be unroutable"); the latency
// histogram covers the convolution hot path.
var (
	mAnalyses     = obs.DefCounter("maest_congest_total", "completed congestion analyses")
	mAnalyzeErr   = obs.DefCounter("maest_congest_errors_total", "failed congestion analyses")
	mAnalyzeSec   = obs.DefHistogram("maest_congest_seconds", "congestion analysis latency", obs.DefBuckets)
	mOverflowChan = obs.DefCounter("maest_congest_overflow_channels_total", "channels analyzed with overflow probability > 0.5")
	mChanUtil     = obs.DefHistogram("maest_congest_channel_utilization", "expected demand / capacity per channel", obs.RatioBuckets)
)

// ErrCongest wraps analysis failures.
var ErrCongest = errors.New("congest: analysis failed")

func anaErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCongest, fmt.Sprintf(format, args...))
}

// Model selects the per-channel demand accounting.
type Model int

const (
	// ModelOccupancy books one track in the channel above every row a
	// net occupies — the paper's Eq. 2–3 model, consistent with the
	// estimator's track expectation.
	ModelOccupancy Model = iota
	// ModelCrossing books one segment per channel the net crosses (or
	// terminates in), matching the internal/route spine router.
	ModelCrossing
)

// String implements fmt.Stringer.
func (m Model) String() string {
	switch m {
	case ModelOccupancy:
		return "occupancy"
	case ModelCrossing:
		return "crossing"
	}
	return fmt.Sprintf("model(%d)", int(m))
}

// ParseModel is the inverse of String, for flags and request fields.
func ParseModel(s string) (Model, error) {
	switch s {
	case "", "occupancy":
		return ModelOccupancy, nil
	case "crossing":
		return ModelCrossing, nil
	}
	return 0, anaErr("unknown demand model %q (want occupancy or crossing)", s)
}

// Options configures Analyze.  The zero value selects the occupancy
// model with derived capacities.
type Options struct {
	// Model is the demand accounting (default ModelOccupancy).
	Model Model
	// Capacity is the track capacity of every routing channel; 0
	// derives the balanced capacity ⌈total expected demand / channels⌉
	// (at least 1), i.e. "the channels the estimator's own track count
	// would build, spread evenly".
	Capacity int
	// FeedBudget is the per-row feed-through budget the row-pressure
	// overflow is scored against; 0 derives the estimator's own Eq. 11
	// budget ⌈E(M)⌉ for the central row.
	FeedBudget int
}

// Channel is one routing channel's demand picture.
type Channel struct {
	// Index matches route.Result.ChannelTracks: channel Index runs
	// above row Index; the last channel lies below the bottom row.
	Index int
	// Demand is the track-demand distribution: Demand[t] = P(T = t).
	Demand []float64
	// Expected is E[T], the expected track demand.
	Expected float64
	// Capacity is the track capacity utilization is scored against.
	Capacity int
	// Utilization is Expected / Capacity.
	Utilization float64
	// POverflow is P(T > Capacity), the routability risk of this
	// channel.
	POverflow float64
}

// RowFeeds is one row's feed-through pressure: the Eq. 10 count
// distribution evaluated at this row's Eq. 5 probability rather than
// only the central row's.
type RowFeeds struct {
	Index int
	// Dist[m] = P(exactly m nets need a feed-through in this row).
	Dist []float64
	// Expected is E[M] for this row (Eq. 11 generalized off-center).
	Expected float64
	// Budget is the feed-through budget the overflow is scored
	// against.
	Budget int
	// POverBudget is P(M > Budget).
	POverBudget float64
}

// Hotspot is one ranked congestion risk.
type Hotspot struct {
	// Kind is "channel" (track overflow) or "row" (feed-through
	// pressure over budget).
	Kind string
	// Index is the channel or row index.
	Index int
	// Score is the overflow probability the ranking sorts on.
	Score float64
	// Expected is the expected demand (tracks or feed-throughs).
	Expected float64
}

// Map is the congestion map of one module at a fixed row count.
type Map struct {
	Module string
	// Rows is the row count n the analysis is for; Gridded marks the
	// full-custom grid variant (virtual rows, no feed-through model).
	Rows    int
	Gridded bool
	Model   Model
	// Nets is the number of routable nets analyzed.
	Nets     int
	Channels []Channel
	// Rows of feed-through pressure, one per standard-cell row (empty
	// for gridded full-custom maps, which have no feed-through cells).
	Feeds []RowFeeds
	// TotalExpectedTracks is Σ E[T_c].  Under ModelOccupancy it equals
	// the unrounded Eq. 3 expectation Σ yᵢ·E(i).
	TotalExpectedTracks float64
	// TotalExpectedFeeds is Σ E[M_r] over rows.
	TotalExpectedFeeds float64
	// Hotspots are the channels and rows ranked by overflow
	// probability (descending, ties by expected demand then index).
	Hotspots []Hotspot
}

// Analyze builds the congestion map of a standard-cell module over
// rows rows from its gathered statistics.  All degenerate inputs are
// well-defined: a module with no routable nets gets an all-zero map,
// and a single-row module gets zero feed-through pressure with all
// channel demand in the one channel above the row.
func Analyze(s *netlist.Stats, rows int, opts Options) (*Map, error) {
	return AnalyzeCtx(context.Background(), s, rows, opts)
}

// AnalyzeCtx is Analyze with observability: a "congest" span carrying
// the hotspot summary plus the analysis metrics.
func AnalyzeCtx(ctx context.Context, s *netlist.Stats, rows int, opts Options) (m *Map, err error) {
	_, sp := obs.Start(ctx, "congest")
	sp.SetString("module", s.CircuitName)
	defer func(t0 time.Time) {
		mAnalyzeSec.Observe(time.Since(t0).Seconds())
		if err != nil {
			mAnalyzeErr.Inc()
		} else {
			mAnalyses.Inc()
			sp.SetString("model", m.Model.String())
			sp.SetInt("rows", int64(m.Rows))
			sp.SetInt("channels", int64(len(m.Channels)))
			sp.SetFloat("expected_tracks", m.TotalExpectedTracks)
			sp.SetFloat("expected_feeds", m.TotalExpectedFeeds)
			if len(m.Hotspots) > 0 {
				sp.SetFloat("top_hotspot_score", m.Hotspots[0].Score)
			}
		}
		sp.EndErr(err)
	}(time.Now())
	return analyze(s, rows, false, opts)
}

// analyze is the shared engine behind the standard-cell and gridded
// full-custom entry points: compute the distributions, then score
// them.  The two halves are exported separately (ComputeDistributions
// / AnalyzeDistributionsCtx) so a compiled engine Plan can memoize the
// expensive convolution work and re-score it under different knobs.
func analyze(s *netlist.Stats, rows int, gridded bool, opts Options) (*Map, error) {
	if opts.Capacity < 0 {
		return nil, anaErr("module %q: negative channel capacity %d", s.CircuitName, opts.Capacity)
	}
	if opts.FeedBudget < 0 {
		return nil, anaErr("module %q: negative feed-through budget %d", s.CircuitName, opts.FeedBudget)
	}
	d, err := ComputeDistributions(s, rows, gridded, opts.Model)
	if err != nil {
		return nil, err
	}
	return scoreDistributions(d, opts)
}

// Distributions is the expensive, score-independent half of a
// congestion analysis: the per-channel Poisson-binomial track-demand
// distributions and the per-row feed-through count distributions of
// one module at one row count under one demand model.  It depends
// only on the net-degree histogram, so it can be computed once per
// (rows, gridded, model) and re-scored under any capacity/budget
// knobs.  A Distributions is immutable after ComputeDistributions
// returns; the scoring step shares (never copies) the slices.
type Distributions struct {
	// Module is the module name the statistics came from.
	Module string
	// Rows, Gridded, and Model identify the analysis the
	// distributions were computed for.
	Rows    int
	Gridded bool
	Model   Model
	// Nets is the number of routable nets analyzed.
	Nets int
	// Channels[c][t] = P(channel c demands exactly t tracks); one
	// entry per channel 0..Rows (the last is the structurally empty
	// channel below the bottom row, kept so indices align with
	// route.Result.ChannelTracks).
	Channels [][]float64
	// Feeds[r][m] = P(row r needs exactly m feed-throughs); nil for
	// gridded full-custom maps, which have no feed-through cells.
	Feeds [][]float64
}

// ComputeDistributions convolves the module's degree classes into the
// per-channel demand distributions (and, for standard-cell rows, the
// per-row feed-through distributions) without scoring them.  It
// memoizes nothing: an engine Plan keeps the result per (rows,
// gridded, model), which is the one cache of these distributions.
func ComputeDistributions(s *netlist.Stats, rows int, gridded bool, model Model) (*Distributions, error) {
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

// AnalyzeDistributionsCtx scores precomputed distributions into a
// full congestion map, under the same span name ("congest" or
// "congest.grid") and metrics as the from-scratch entry point it
// replaces.  opts.Model must match the model the distributions were
// computed under; capacity and feed-budget knobs are free.
func AnalyzeDistributionsCtx(ctx context.Context, d *Distributions, opts Options) (m *Map, err error) {
	name := "congest"
	if d.Gridded {
		name = "congest.grid"
	}
	_, sp := obs.Start(ctx, name)
	sp.SetString("module", d.Module)
	defer func(t0 time.Time) {
		mAnalyzeSec.Observe(time.Since(t0).Seconds())
		if err != nil {
			mAnalyzeErr.Inc()
		} else {
			mAnalyses.Inc()
			sp.SetString("model", m.Model.String())
			sp.SetInt("rows", int64(m.Rows))
			sp.SetFloat("expected_tracks", m.TotalExpectedTracks)
		}
		sp.EndErr(err)
	}(time.Now())
	if opts.Capacity < 0 {
		return nil, anaErr("module %q: negative channel capacity %d", d.Module, opts.Capacity)
	}
	if opts.FeedBudget < 0 {
		return nil, anaErr("module %q: negative feed-through budget %d", d.Module, opts.FeedBudget)
	}
	return scoreDistributions(d, opts)
}

// scoreDistributions builds the Map view over shared distribution
// slices and scores it.
func scoreDistributions(d *Distributions, opts Options) (*Map, error) {
	if opts.Model != d.Model {
		return nil, anaErr("module %q: scoring model %s against %s distributions", d.Module, opts.Model, d.Model)
	}
	m := &Map{
		Module:  d.Module,
		Rows:    d.Rows,
		Gridded: d.Gridded,
		Model:   d.Model,
		Nets:    d.Nets,
	}
	m.Channels = make([]Channel, len(d.Channels))
	for c, dist := range d.Channels {
		m.Channels[c] = Channel{Index: c, Demand: dist, Expected: prob.DistMean(dist)}
		m.TotalExpectedTracks += m.Channels[c].Expected
	}
	if d.Feeds != nil {
		m.Feeds = make([]RowFeeds, len(d.Feeds))
		for r, dist := range d.Feeds {
			m.Feeds[r] = RowFeeds{Index: r, Dist: dist, Expected: prob.DistMean(dist)}
			m.TotalExpectedFeeds += m.Feeds[r].Expected
		}
	}
	m.score(opts)
	return m, nil
}

// score fills in capacities, utilizations, overflow probabilities and
// the hotspot ranking.
func (m *Map) score(opts Options) {
	capTracks := opts.Capacity
	if capTracks == 0 {
		// Balanced default: the estimator's own expected track total
		// spread evenly over the channels that can carry demand (the
		// rows channels above each row; the below-bottom channel is
		// structurally empty).
		capTracks = int(math.Ceil(m.TotalExpectedTracks/float64(m.Rows) - 1e-9))
		if capTracks < 1 {
			capTracks = 1
		}
	}
	for c := range m.Channels {
		ch := &m.Channels[c]
		ch.Capacity = capTracks
		ch.Utilization = ch.Expected / float64(capTracks)
		ch.POverflow = prob.TailProb(ch.Demand, capTracks)
		mChanUtil.Observe(ch.Utilization)
		if ch.POverflow > 0.5 {
			mOverflowChan.Inc()
		}
	}

	feedBudget := opts.FeedBudget
	if feedBudget == 0 && len(m.Feeds) > 0 {
		// The estimator budgets ⌈E(M)⌉ feed-throughs for the central
		// row (Eq. 11); rate every row against that same budget.
		central := prob.CentralRow(m.Rows) - 1
		feedBudget = int(math.Ceil(m.Feeds[central].Expected - 1e-9))
		if feedBudget < 1 {
			feedBudget = 1
		}
	}
	for r := range m.Feeds {
		rf := &m.Feeds[r]
		rf.Budget = feedBudget
		rf.POverBudget = prob.TailProb(rf.Dist, feedBudget)
	}

	m.Hotspots = m.Hotspots[:0]
	for _, ch := range m.Channels {
		if ch.Expected == 0 && ch.POverflow == 0 {
			continue // structurally empty channels are not hotspots
		}
		m.Hotspots = append(m.Hotspots, Hotspot{
			Kind: "channel", Index: ch.Index, Score: ch.POverflow, Expected: ch.Expected,
		})
	}
	for _, rf := range m.Feeds {
		if rf.Expected == 0 && rf.POverBudget == 0 {
			continue
		}
		m.Hotspots = append(m.Hotspots, Hotspot{
			Kind: "row", Index: rf.Index, Score: rf.POverBudget, Expected: rf.Expected,
		})
	}
	sort.SliceStable(m.Hotspots, func(i, j int) bool {
		a, b := m.Hotspots[i], m.Hotspots[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.Expected != b.Expected {
			return a.Expected > b.Expected
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Index < b.Index
	})
}

// class is one net-degree class of the histogram: count nets of
// degree D.
type class struct {
	degree, count int
}

// demandClasses extracts the D ≥ 2 degree classes in deterministic
// order.  The gridded full-custom variant additionally drops D = 2
// nets: Eq. 13's footnote case, where the two devices abut and connect
// directly without channel wiring.
func demandClasses(s *netlist.Stats, gridded bool) []class {
	var out []class
	for _, d := range s.Degrees() {
		if d < 2 || (gridded && d == 2) {
			continue
		}
		if y := s.DegreeCount[d]; y > 0 {
			out = append(out, class{degree: d, count: y})
		}
	}
	return out
}

func classCount(classes []class) int {
	total := 0
	for _, cl := range classes {
		total += cl.count
	}
	return total
}

// channelProb returns the probability that one net of degree D demands
// a track in channel c under the given model.
func channelProb(model Model, rows, D, c int) (float64, error) {
	if c >= rows {
		return 0, nil // the channel below the bottom row is never used
	}
	switch model {
	case ModelOccupancy:
		// One track above every occupied row.
		return prob.RowOccupancyProb(rows, D)
	case ModelCrossing:
		// A segment where the net crosses the boundary above row c,
		// plus the single-row case wired through its own channel.
		single, err := prob.SingleRowProb(rows, D)
		if err != nil {
			return 0, err
		}
		if c == 0 {
			return single, nil
		}
		cross, err := prob.CrossingProb(rows, D, c)
		if err != nil {
			return 0, err
		}
		return cross + single, nil
	}
	return 0, fmt.Errorf("unknown demand model %d", int(model))
}

// channelDemandDist convolves one binomial per degree class into the
// Poisson-binomial track-demand distribution of channel c.
func channelDemandDist(classes []class, rows, c int, model Model) ([]float64, error) {
	dist := []float64{1} // point mass at zero demand
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
// row r's Eq. 5 probability (rows are 0-based here, 1-based in the
// paper's formulas).
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

// MaxUtilization returns the highest channel utilization (0 for an
// empty map).
func (m *Map) MaxUtilization() float64 {
	best := 0.0
	for _, ch := range m.Channels {
		if ch.Utilization > best {
			best = ch.Utilization
		}
	}
	return best
}

// MaxOverflow returns the highest channel overflow probability.
func (m *Map) MaxOverflow() float64 {
	best := 0.0
	for _, ch := range m.Channels {
		if ch.POverflow > best {
			best = ch.POverflow
		}
	}
	return best
}

// HottestChannel returns the index of the hottest channel hotspot, or
// -1 when the map carries no demand.
func (m *Map) HottestChannel() int {
	for _, h := range m.Hotspots {
		if h.Kind == "channel" {
			return h.Index
		}
	}
	return -1
}
