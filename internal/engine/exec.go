package engine

import (
	"context"
	"time"

	"maest/internal/congest"
	"maest/internal/core"
	"maest/internal/obs"
)

// Estimate produces the full Result bundle — the Standard-Cell
// estimate with its five §7 candidate shapes (cell-level modules) and
// both Full-Custom device-area modes — exactly as the Fig. 1 pipeline
// always has.  Honored options: WithRows, WithTrackSharing.  The
// bundle is memoized per (rows, sharing); repeat calls are a lookup.
func (pl *Plan) Estimate(ctx context.Context, opts ...Option) (*core.Result, error) {
	return pl.estimate(ctx, build(opts))
}

// estimate is Estimate after option resolution — the entry EstimatePlans
// and the serving layer use to avoid re-resolving per module.
func (pl *Plan) estimate(ctx context.Context, o Options) (res *core.Result, err error) {
	ctx, sp := obs.Start(ctx, "estimate")
	sp.SetString("module", pl.circ.Name)
	defer func(t0 time.Time) {
		observe(t0, err)
		sp.EndErr(err)
	}(time.Now())
	sp.SetInt("devices", int64(pl.stats.N))
	sp.SetInt("nets", int64(pl.stats.H))

	o.Rows = pl.rowsFor(o.Rows)
	k := scKey{rows: o.Rows, sharing: o.TrackSharing}
	pl.mu.Lock()
	res, ok := pl.bundle[k]
	pl.mu.Unlock()
	if ok {
		sp.SetInt("plan_memo", 1)
		return res, nil
	}

	res = &core.Result{Module: pl.circ.Name, Stats: pl.stats}
	if pl.cellLevel {
		if err := pl.estimateSC(ctx, res, o); err != nil {
			return nil, err
		}
	}
	if err := pl.estimateFC(ctx, res, o); err != nil {
		return nil, err
	}
	pl.mu.Lock()
	pl.bundle[k] = res
	pl.mu.Unlock()
	return res, nil
}

// CachedEstimate returns the bundle Estimate has memoized for the
// knobs (WithRows, WithTrackSharing), without computing one.
func (pl *Plan) CachedEstimate(opts ...Option) (*core.Result, bool) {
	o := build(opts)
	pl.mu.Lock()
	defer pl.mu.Unlock()
	res, ok := pl.bundle[scKey{rows: pl.rowsFor(o.Rows), sharing: o.TrackSharing}]
	return res, ok
}

// InstallEstimate memoizes a bundle computed elsewhere — a persisted
// answer read back from a store — as Estimate's answer for the knobs,
// so later calls return it without recomputing.  The caller vouches
// that res equals what Estimate would compute; an entry already
// memoized is kept.
func (pl *Plan) InstallEstimate(res *core.Result, opts ...Option) {
	o := build(opts)
	k := scKey{rows: pl.rowsFor(o.Rows), sharing: o.TrackSharing}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if _, ok := pl.bundle[k]; !ok {
		pl.bundle[k] = res
	}
}

// estimateSC runs the §4.1 Standard-Cell side under its own span.
// The bundled candidate sweep is always five shapes around the chosen
// row count (the historical pipeline contract, independent of
// WithCandidates), and uses the unchecked kernel so degenerate
// modules still estimate.
func (pl *Plan) estimateSC(ctx context.Context, res *core.Result, o Options) (err error) {
	_, sp := obs.Start(ctx, "estimate.sc")
	defer func() { sp.EndErr(err) }()
	sc, err := pl.standardCell(o.Rows, o.TrackSharing)
	if err != nil {
		return err
	}
	res.SC = sc
	sp.SetInt("rows", int64(sc.Rows))
	sp.SetInt("tracks", int64(sc.Tracks))
	sp.SetInt("feedthroughs", int64(sc.FeedThroughs))
	sp.SetFloat("area", sc.Area)
	cand, err := pl.sweep(o.Rows, o.TrackSharing, 5)
	if err != nil {
		return err
	}
	res.SCCandidates = cand
	sp.SetInt("candidates", int64(len(cand)))
	return nil
}

// estimateFC runs the §4.2 Full-Custom side (both device-area modes)
// under its own span.
func (pl *Plan) estimateFC(ctx context.Context, res *core.Result, o Options) (err error) {
	_, sp := obs.Start(ctx, "estimate.fc")
	defer func() { sp.EndErr(err) }()
	if res.FCExact, err = pl.fullCustom(core.FCExactAreas); err != nil {
		return err
	}
	if res.FCAverage, err = pl.fullCustom(core.FCAverageAreas); err != nil {
		return err
	}
	sp.SetFloat("area_exact", res.FCExact.Area)
	sp.SetFloat("area_average", res.FCAverage.Area)
	return nil
}

// standardCell memoizes the Eq. 12/14 kernel per (rows, sharing).
func (pl *Plan) standardCell(rows int, sharing bool) (*core.SCEstimate, error) {
	k := scKey{rows: rows, sharing: sharing}
	pl.mu.Lock()
	sc, ok := pl.sc[k]
	pl.mu.Unlock()
	if ok {
		return sc, nil
	}
	sc, err := core.EstimateStandardCell(pl.stats, pl.proc, core.SCOptions{Rows: rows, TrackSharing: sharing, Spans: memoSpans{}})
	if err != nil {
		return nil, err
	}
	pl.mu.Lock()
	pl.sc[k] = sc
	pl.mu.Unlock()
	return sc, nil
}

// sweep memoizes the unchecked candidate kernel.
func (pl *Plan) sweep(rows int, sharing bool, count int) ([]*core.SCEstimate, error) {
	k := sweepKey{rows: rows, count: count, sharing: sharing}
	pl.mu.Lock()
	out, ok := pl.sweeps[k]
	pl.mu.Unlock()
	if ok {
		return out, nil
	}
	out, err := core.SweepStandardCellShapes(pl.stats, pl.proc, core.SCOptions{Rows: rows, TrackSharing: sharing, Spans: memoSpans{}}, count)
	if err != nil {
		return nil, err
	}
	pl.mu.Lock()
	pl.sweeps[k] = out
	pl.mu.Unlock()
	return out, nil
}

// fullCustom memoizes the Eq. 13 kernel.  The first call gathers the
// FC statistics once and fills both device-area modes from them.
func (pl *Plan) fullCustom(mode core.FCMode) (*core.FCEstimate, error) {
	valid := mode == core.FCExactAreas || mode == core.FCAverageAreas
	if valid {
		pl.mu.Lock()
		est := pl.fc[mode]
		pl.mu.Unlock()
		if est != nil {
			return est, nil
		}
	}
	s, err := pl.fcStats()
	if err != nil {
		return nil, err
	}
	if !valid {
		return core.EstimateFullCustomStats(s, pl.proc, mode) // the kernel's unknown-mode error
	}
	var fc [2]*core.FCEstimate
	for m := range fc {
		if fc[m], err = core.EstimateFullCustomStats(s, pl.proc, core.FCMode(m)); err != nil {
			return nil, err
		}
	}
	pl.mu.Lock()
	pl.fc = fc
	pl.mu.Unlock()
	return fc[mode], nil
}

// EstimateStandardCell runs only the §4.1 kernel (honors WithRows,
// WithTrackSharing), memoized.
func (pl *Plan) EstimateStandardCell(ctx context.Context, opts ...Option) (*core.SCEstimate, error) {
	o := build(opts)
	return pl.standardCell(pl.rowsFor(o.Rows), o.TrackSharing)
}

// EstimateFullCustom runs only the §4.2 kernel (honors WithFCMode),
// memoized; the default mode is exact device areas.
func (pl *Plan) EstimateFullCustom(ctx context.Context, opts ...Option) (*core.FCEstimate, error) {
	o := build(opts)
	return pl.fullCustom(o.FCMode)
}

// Candidates returns WithCandidates (default five) §7 shape
// candidates around the chosen row count, with the strict feasibility
// contract of core.EstimateStandardCellCandidates: degenerate
// requests return defined errors rather than short or useless slices.
func (pl *Plan) Candidates(ctx context.Context, opts ...Option) ([]*core.SCEstimate, error) {
	o := build(opts)
	o.Rows = pl.rowsFor(o.Rows)
	// The memo holds unchecked sweeps (Estimate's bundle shares it),
	// so the strict contract's preconditions run before the lookup; a
	// memoized sweep that satisfies them is only returnable when some
	// shape is port-feasible — otherwise delegate to the strict kernel
	// for the defined error.
	if o.Candidates >= 1 && pl.stats.N > 0 && o.Candidates <= pl.stats.N {
		k := sweepKey{rows: o.Rows, count: o.Candidates, sharing: o.TrackSharing}
		pl.mu.Lock()
		out, ok := pl.sweeps[k]
		pl.mu.Unlock()
		if ok {
			for _, est := range out {
				if est.PortFeasible {
					return out, nil
				}
			}
		}
	}
	out, err := core.EstimateStandardCellCandidates(pl.stats, pl.proc, o.SCOptions(), o.Candidates)
	if err != nil {
		return nil, err
	}
	pl.mu.Lock()
	pl.sweeps[sweepKey{rows: o.Rows, count: o.Candidates, sharing: o.TrackSharing}] = out
	pl.mu.Unlock()
	return out, nil
}

// Distributions computes the congestion distributions for the
// resolved row count under WithRows/WithGridded/WithCongestModel: the
// Poisson-binomial convolutions a congestion map at those knobs is
// scored from.  Nothing keeps them, so each call computes them afresh.
func (pl *Plan) Distributions(ctx context.Context, opts ...Option) (*congest.Distributions, error) {
	o := build(opts)
	return congest.ComputeDistributions(pl.stats, pl.congestRows(o), o.Gridded, o.CongestModel)
}

// congestRows resolves the analyzed row count: explicit rows win,
// then a ResizeRows default; otherwise the ⌈√N⌉ grid (gridded) or the
// §5 initial rows.
func (pl *Plan) congestRows(o Options) int {
	if o.Rows != 0 {
		return o.Rows
	}
	if pl.defaultRows != 0 {
		return pl.defaultRows
	}
	if o.Gridded {
		return congest.GridRows(pl.stats)
	}
	return pl.initialRows
}

// Congestion builds (or returns the memoized) congestion map under
// WithRows, WithGridded, WithCongestModel, WithCapacity, and
// WithFeedBudget.  The memo keeps the scored map only; the demand
// distributions behind it are dropped once scored, so a capacity or
// budget change recomputes them.
func (pl *Plan) Congestion(ctx context.Context, opts ...Option) (*congest.Map, error) {
	o := build(opts)
	k := pl.congKey(o)
	pl.mu.Lock()
	m, ok := pl.maps[k]
	pl.mu.Unlock()
	if ok {
		return m, nil
	}
	m, err := congest.Analyze(ctx, pl.stats, k.rows, k.gridded, o.CongestOptions())
	if err != nil {
		return nil, err
	}
	pl.mu.Lock()
	pl.maps[k] = m
	pl.mu.Unlock()
	return m, nil
}

// CachedCongestion returns the map Congestion has memoized for the
// knobs, without computing one.
func (pl *Plan) CachedCongestion(opts ...Option) (*congest.Map, bool) {
	k := pl.congKey(build(opts))
	pl.mu.Lock()
	defer pl.mu.Unlock()
	m, ok := pl.maps[k]
	return m, ok
}

// InstallCongestion is InstallEstimate for congestion maps.
func (pl *Plan) InstallCongestion(m *congest.Map, opts ...Option) {
	k := pl.congKey(build(opts))
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if _, ok := pl.maps[k]; !ok {
		pl.maps[k] = m
	}
}

// congKey is the memo key of one congestion map: the resolved row
// count plus every analysis knob.
func (pl *Plan) congKey(o Options) congKey {
	return congKey{
		rows:       pl.congestRows(o),
		gridded:    o.Gridded,
		model:      o.CongestModel,
		capacity:   o.Capacity,
		feedBudget: o.FeedBudget,
	}
}
