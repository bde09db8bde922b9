// Package core implements the paper's contribution: the module area
// estimator for the Standard-Cell (§4.1) and Full-Custom (§4.2)
// layout methodologies, with the aspect-ratio estimation of §5 and
// the §7 future-work extensions (routing-track sharing, multiple
// aspect-ratio candidates), plus the Fig. 1 input/output pipeline.
package core

import (
	"errors"
	"fmt"
	"math"

	"maest/internal/netlist"
	"maest/internal/prob"
	"maest/internal/tech"
)

// ErrEstimate wraps all estimation failures.
var ErrEstimate = errors.New("core: estimation failed")

// Defined candidate-sweep failures, each also wrapping ErrEstimate so
// existing errors.Is(err, ErrEstimate) dispatch (e.g. the serving
// layer's 422 mapping) keeps working.
var (
	// ErrCandidateCount reports a non-positive candidate count.
	ErrCandidateCount = errors.New("non-positive candidate count")
	// ErrCandidateRange reports a candidate count larger than the
	// feasible row range 1..N (a row needs at least one cell).
	ErrCandidateRange = errors.New("candidate count exceeds feasible row range")
	// ErrPortInfeasible reports that no candidate shape offers an edge
	// long enough for the module's I/O ports (§5 control criterion).
	ErrPortInfeasible = errors.New("ports fit no candidate perimeter")
)

func estErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrEstimate, fmt.Sprintf(format, args...))
}

// candErr wraps a defined candidate failure under ErrEstimate.
func candErr(sentinel error, format string, args ...any) error {
	return fmt.Errorf("%w: %w: %s", ErrEstimate, sentinel, fmt.Sprintf(format, args...))
}

// SCOptions configures the Standard-Cell estimator.
type SCOptions struct {
	// Rows fixes the number of standard-cell rows n.  Zero selects
	// the initial row count with the §5 algorithm (and lets the port
	// constraint adjust it).
	Rows int
	// TrackSharing enables the §7 future-work extension: instead of
	// dedicating a full track to every net segment (paper assumption
	// 3, which yields an upper bound), track demand is discounted by
	// each segment's expected horizontal span so disjoint segments
	// share tracks.
	TrackSharing bool
	// Spans optionally overrides where the Eq. 2–3 row-span quantities
	// and Eq. 11's feed-through expectation come from.  An
	// implementation must return exactly what internal/prob computes for
	// the same arguments — the engine's process-wide distribution memo
	// qualifies, since it caches prob's own outputs.  nil computes
	// directly.
	Spans RowSpans
}

// RowSpans supplies the pure functions of small keys the Standard-Cell
// model is built on: E(i), the expected number of rows a degree-D net
// spans over n rows, its per-net track round-up, and Eq. 11's rounded
// feed-through expectation for H nets at central-row probability p.
// Implementations must be bit-identical to prob.ExpectedRowSpan /
// prob.TracksForNet / prob.FeedThroughsCeil; the interface exists so a
// caller can memoize those computations across modules and edit
// states.
type RowSpans interface {
	ExpectedRowSpan(n, d int) (float64, error)
	TracksForNet(n, d int) (int, error)
	FeedThroughsCeil(h int, p float64) (int, error)
}

// feedThroughsCeil, tracksForNet and expectedRowSpan route one lookup
// through the optional provider, defaulting to the direct prob
// computation.
func feedThroughsCeil(spans RowSpans, h int, p float64) (int, error) {
	if spans != nil {
		return spans.FeedThroughsCeil(h, p)
	}
	return prob.FeedThroughsCeil(h, p)
}

// SCEstimate is the Standard-Cell estimation result.  Lengths are in
// λ (as float64: the estimate is a statistical quantity, only the
// paper-mandated roundings are applied), areas in λ².
type SCEstimate struct {
	Module string
	// Rows is the row count n the estimate is for.
	Rows int
	// Tracks is the expectation value of the total number of routing
	// tracks, Σ yᵢ·E(i) (after Eq. 3's round-up per net class).
	Tracks int
	// FeedThroughs is E(M), Eq. 11, rounded up.
	FeedThroughs int
	// CellLength is W_avg·N/n, the active-cell portion of a row.
	CellLength float64
	// Width is the full row length: CellLength + E(M)·f_w.
	Width float64
	// Height is n·rowHeight + Tracks·trackPitch.
	Height float64
	// Area = Width × Height (Eq. 12).
	Area float64
	// AspectRatio is Width / Height (Eq. 14).
	AspectRatio float64
	// TrackSharing records whether the extension was active.
	TrackSharing bool
	// PortFeasible reports the §5 control criterion: the module's
	// I/O ports fit along one of the layout edges (the longer one).
	PortFeasible bool
}

// EstimateStandardCell runs the §4.1 algorithm on the gathered
// statistics.  The circuit must contain at least one device; all
// other degeneracies (no routable nets, no ports) estimate cleanly.
func EstimateStandardCell(s *netlist.Stats, p *tech.Process, opts SCOptions) (*SCEstimate, error) {
	if err := p.Validate(); err != nil {
		return nil, estErr("standard-cell %q: %v", s.CircuitName, err)
	}
	if s.N <= 0 {
		return nil, estErr("standard-cell %q: no devices", s.CircuitName)
	}
	n := opts.Rows
	if n < 0 {
		return nil, estErr("standard-cell %q: negative row count %d", s.CircuitName, n)
	}
	if n == 0 {
		n = initialRows(s, p)
	}
	return estimateSCForRows(s, p, n, opts.TrackSharing, opts.Spans)
}

// estimateSCForRows evaluates Eq. 12 for a fixed row count.
func estimateSCForRows(s *netlist.Stats, p *tech.Process, n int, sharing bool, spans RowSpans) (*SCEstimate, error) {
	if n < 1 {
		return nil, estErr("standard-cell %q: row count %d < 1", s.CircuitName, n)
	}
	tracks, err := expectedTracks(s, n, sharing, spans)
	if err != nil {
		return nil, estErr("standard-cell %q: %v", s.CircuitName, err)
	}
	pFT, err := prob.CentralFeedThroughProb(n)
	if err != nil {
		return nil, estErr("standard-cell %q: %v", s.CircuitName, err)
	}
	m, err := feedThroughsCeil(spans, s.H, pFT)
	if err != nil {
		return nil, estErr("standard-cell %q: %v", s.CircuitName, err)
	}
	if n == 1 {
		// A single row has no row above/below to separate; no
		// feed-throughs are possible.
		m = 0
	}
	cellLen := s.AvgWidth() * float64(s.N) / float64(n)
	width := cellLen + float64(m)*float64(p.FeedThroughWidth)
	height := float64(n)*float64(p.RowHeight) + float64(tracks)*float64(p.TrackPitch)
	est := &SCEstimate{
		Module:       s.CircuitName,
		Rows:         n,
		Tracks:       tracks,
		FeedThroughs: m,
		CellLength:   cellLen,
		Width:        width,
		Height:       height,
		Area:         width * height,
		TrackSharing: sharing,
	}
	if height > 0 {
		est.AspectRatio = width / height
	}
	portLen := float64(s.NumPorts) * float64(p.PortPitch)
	est.PortFeasible = portLen <= math.Max(width, height)
	return est, nil
}

// expectedTracks computes Σ yᵢ·E(i) over the net-degree histogram
// (Eqs. 2–3 applied to all nets).  With sharing enabled, each net
// class's track demand is discounted by the expected horizontal span
// fraction of its segments before the final round-up, modelling
// multiple disjoint segments sharing one physical track.
func expectedTracks(s *netlist.Stats, n int, sharing bool, spans RowSpans) (int, error) {
	if !sharing {
		total := 0
		for _, d := range s.Degrees() {
			t, err := tracksForNet(spans, n, d)
			if err != nil {
				return 0, err
			}
			total += s.DegreeCount[d] * t
		}
		return total, nil
	}
	demand := 0.0
	for _, d := range s.Degrees() {
		e, err := expectedRowSpan(spans, n, d)
		if err != nil {
			return 0, err
		}
		demand += float64(s.DegreeCount[d]) * e * spanFraction(d, n)
	}
	return int(math.Ceil(demand - 1e-9)), nil
}

func tracksForNet(spans RowSpans, n, d int) (int, error) {
	if spans != nil {
		return spans.TracksForNet(n, d)
	}
	return prob.TracksForNet(n, d)
}

func expectedRowSpan(spans RowSpans, n, d int) (float64, error) {
	if spans != nil {
		return spans.ExpectedRowSpan(n, d)
	}
	return prob.ExpectedRowSpan(n, d)
}

// spanFraction estimates what fraction of a row's length one channel
// segment of a degree-D net occupies.  The pins falling into one
// channel are roughly D/E(i) ≈ D/min(n,D) of the net's pins; k points
// uniform on a unit row span (k−1)/(k+1) of it in expectation.
func spanFraction(d, n int) float64 {
	k := float64(d)
	if d > n {
		k = k / float64(min(d, n)) // average pins per occupied row
		if k < 2 {
			k = 2
		}
	}
	return (k - 1) / (k + 1)
}

// InitialRows exposes the §5 row-count initialization for callers that
// analyze a module without running a full estimate (the congestion
// endpoint's automatic row selection).
func InitialRows(s *netlist.Stats, p *tech.Process) int { return initialRows(s, p) }

// initialRows implements the §5 row-count initialization: start with
// i = 2, set n = ⌈√(activeCellArea)/(i·rowHeight)⌉, and shrink n
// (by incrementing i) until the active-cell row length accommodates
// every I/O port along one edge.
func initialRows(s *netlist.Stats, p *tech.Process) int {
	cellArea := float64(s.ExactDeviceArea)
	if cellArea <= 0 {
		return 1
	}
	rowH := float64(p.RowHeight)
	portLen := float64(s.NumPorts) * float64(p.PortPitch)
	side := math.Sqrt(cellArea)
	for i := 2; ; i++ {
		n := int(math.Ceil(side / (float64(i) * rowH)))
		if n < 1 {
			n = 1
		}
		rowLen := cellArea / (float64(n) * rowH)
		if rowLen >= portLen || n == 1 {
			return n
		}
	}
}

// EstimateStandardCellCandidates implements the §7 extension of
// returning several (row count, area, aspect ratio) candidates so the
// floor planner can pick a module shape.  It evaluates `count` row
// values centred on the §5 initial row count (or opts.Rows when
// fixed), clamped into the feasible row range 1..N, in increasing row
// order.  Degenerate requests return defined errors rather than a
// short or useless slice: ErrCandidateCount for count ≤ 0,
// ErrCandidateRange when count exceeds the feasible range, and
// ErrPortInfeasible when no candidate offers an edge long enough for
// the module's ports.
func EstimateStandardCellCandidates(s *netlist.Stats, p *tech.Process, opts SCOptions, count int) ([]*SCEstimate, error) {
	if count < 1 {
		return nil, candErr(ErrCandidateCount, "standard-cell %q: candidate count %d < 1", s.CircuitName, count)
	}
	if s.N <= 0 {
		return nil, estErr("standard-cell %q: no devices", s.CircuitName)
	}
	if count > s.N {
		return nil, candErr(ErrCandidateRange,
			"standard-cell %q: %d candidates over feasible rows 1..%d", s.CircuitName, count, s.N)
	}
	out, err := SweepStandardCellShapes(s, p, opts, count)
	if err != nil {
		return nil, err
	}
	for _, est := range out {
		if est.PortFeasible {
			return out, nil
		}
	}
	return nil, candErr(ErrPortInfeasible,
		"standard-cell %q: %d ports fit no edge of %d candidate shapes", s.CircuitName, s.NumPorts, count)
}

// SweepStandardCellShapes is the unchecked kernel behind
// EstimateStandardCellCandidates: it evaluates count row values
// centred on the §5 initial row count (or opts.Rows when fixed) with
// the window clamped into [1, N] when the module has at least count
// feasible rows, and clamped only at 1 otherwise.  No feasibility
// errors are raised — degenerate modules still produce shapes, which
// is what the bundled Result of a full estimate relies on.
func SweepStandardCellShapes(s *netlist.Stats, p *tech.Process, opts SCOptions, count int) ([]*SCEstimate, error) {
	if count < 1 {
		return nil, candErr(ErrCandidateCount, "standard-cell %q: candidate count %d < 1", s.CircuitName, count)
	}
	if s.N <= 0 {
		return nil, estErr("standard-cell %q: no devices", s.CircuitName)
	}
	base := opts.Rows
	if base == 0 {
		base = initialRows(s, p)
	}
	lo := base - count/2
	if count <= s.N && lo+count-1 > s.N {
		lo = s.N - count + 1
	}
	if lo < 1 {
		lo = 1
	}
	var out []*SCEstimate
	for n := lo; len(out) < count; n++ {
		est, err := estimateSCForRows(s, p, n, opts.TrackSharing, opts.Spans)
		if err != nil {
			return nil, err
		}
		out = append(out, est)
	}
	return out, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
