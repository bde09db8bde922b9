package engine

import (
	"context"
	"time"

	"maest/internal/core"
	"maest/internal/geom"
	"maest/internal/netlist"
	"maest/internal/obs"
	"maest/internal/tech"
)

// Incremental-recompilation metrics: the fallback ratio tells whether
// callers' edit scripts actually stay inside the incremental algebra,
// and the latency histogram is the ECO loop's edit-to-answer number.
var (
	mDeltas        = obs.DefCounter("maest_delta_total", "completed incremental plan deltas")
	mDeltaErr      = obs.DefCounter("maest_delta_errors_total", "failed incremental plan deltas")
	mDeltaFallback = obs.DefCounter("maest_delta_fallback_total", "plan deltas that fell back to a full recompile")
	mDeltaSec      = obs.DefHistogram("maest_delta_seconds", "incremental plan delta latency", obs.DefBuckets)
)

// Delta produces the Plan for this plan's circuit with the edit
// script applied, reusing every compiled intermediate the script
// provably does not touch.  The result is a first-class Plan —
// content-addressed, immutable, concurrency-safe — and is
// bit-identical (same hash, same results from every execute method)
// to compiling the edited circuit from scratch; the differential
// harness in delta_diff_test.go enforces that contract.
//
// What is reused: the process clone and its Eq. 12–14 scale factors,
// and every §3 statistic outside the edit's footprint — device edits
// adjust the width histogram and area sums by the touched types only,
// net edits re-bucket only the touched nets' degree classes.  The
// Eq. 2–3 and Eq. 11 values come from the process-wide distmemo, and
// an edit that keeps the degree histogram also keeps the parent's
// congestion maps, so it re-estimates on memo hits alone.
//
// SwapProcess is outside the incremental algebra and falls back to a
// full recompile (counted by maest_delta_fallback_total).  An empty
// or validation-only script returns the receiver itself.
func (pl *Plan) Delta(edits ...Edit) (*Plan, error) {
	return pl.DeltaCtx(context.Background(), edits...)
}

// DeltaCtx is Delta with observability: a "delta" span plus the delta
// metrics.
func (pl *Plan) DeltaCtx(ctx context.Context, edits ...Edit) (np *Plan, err error) {
	ctx, sp := obs.Start(ctx, "delta")
	sp.SetString("module", pl.circ.Name)
	sp.SetInt("edits", int64(len(edits)))
	defer func(t0 time.Time) {
		mDeltaSec.Observe(time.Since(t0).Seconds())
		if err != nil {
			mDeltaErr.Inc()
		} else {
			mDeltas.Inc()
			sp.SetString("plan", np.hash.String()[:12])
		}
		sp.EndErr(err)
	}(time.Now())

	rows, structural := 0, false
	var newProc *tech.Process
	for _, e := range edits {
		switch e := e.(type) {
		case resizeRowsEdit:
			if e.rows < 1 {
				return nil, estErr("module %q: resize to %d rows; need at least 1", pl.circ.Name, e.rows)
			}
			rows = e.rows
		case swapProcessEdit:
			if e.proc == nil {
				return nil, estErr("module %q: swap to nil process", pl.circ.Name)
			}
			newProc = e.proc
		default:
			structural = true
		}
	}

	if !structural && newProc == nil {
		if rows == 0 {
			// Empty (or validation-only) script: the parent already is
			// the answer, memos and all.
			return pl, nil
		}
		return pl.childWithRows(rows), nil
	}

	edited := pl.circ
	var eff *effects
	if structural {
		if edited, eff, err = applyScript(pl.circ, edits); err != nil {
			return nil, err
		}
	}

	if newProc != nil {
		// A process swap invalidates every device dimension, Eq. 12–14
		// constant, and distribution at once — outside the incremental
		// algebra, so pay for a full recompile.
		mDeltaFallback.Inc()
		sp.SetInt("fallback", 1)
		if np, err = CompileCtx(ctx, edited, newProc); err != nil {
			return nil, err
		}
		np.defaultRows = rows
		return np, nil
	}

	s, nCells, nTransistors, err := pl.deltaStats(edited, eff)
	if err != nil {
		return nil, err
	}
	if nCells > 0 && nTransistors > 0 {
		return nil, estErr("module %q mixes %d cells and %d transistors; estimate them as separate modules",
			edited.Name, nCells, nTransistors)
	}
	// The edit algebra never touches ports, so the parent's port order
	// always carries over; the device order survives any script that
	// added and removed nothing (pin rewires, net edits).
	canonPorts, canonDevs := pl.canonPorts, pl.canonDevs
	if len(eff.devs) != 0 {
		_, canonDevs = canonOrders(edited)
	}
	np = &Plan{
		circ:         edited,
		proc:         pl.proc, // shared: the compiled process clone is immutable
		procBlob:     pl.procBlob,
		stats:        s,
		canonPorts:   canonPorts,
		canonDevs:    canonDevs,
		cellLevel:    nCells > 0,
		nCells:       nCells,
		nTransistors: nTransistors,
		defaultRows:  rows,
		initialRows:  core.InitialRows(s, pl.proc),
	}
	buf := renderPool.Get().(*[]byte)
	*buf, np.hash = seal((*buf)[:0], &np.mid, edited, pl.procBlob, canonPorts, canonDevs)
	renderPool.Put(buf)
	np.initMemos(pl)
	sp.SetInt("devices", int64(s.N))
	sp.SetInt("nets", int64(s.H))
	return np, nil
}

// childWithRows is the rows-only delta: same circuit, process,
// statistics, and hash — only the default row count differs.  The
// memo tables start empty apart from the inherited congestion maps.
func (pl *Plan) childWithRows(rows int) *Plan {
	np := &Plan{
		circ:         pl.circ,
		proc:         pl.proc,
		procBlob:     pl.procBlob,
		stats:        pl.stats,
		hash:         pl.hash,
		mid:          pl.mid,
		canonPorts:   pl.canonPorts,
		canonDevs:    pl.canonDevs,
		cellLevel:    pl.cellLevel,
		nCells:       pl.nCells,
		nTransistors: pl.nTransistors,
		defaultRows:  rows,
		initialRows:  pl.initialRows,
	}
	np.initMemos(pl)
	return np
}

// deltaStats produces the edited circuit's §3 statistics by adjusting
// the parent's, touching only what the script's effects name: the
// device-population sums are moved by each added/removed type's
// dimensions, and each touched net is debited at its old degree and
// credited at its new one.  The result must equal netlist.Gather over
// the edited circuit field-for-field — the delta tests check exactly
// that.
func (pl *Plan) deltaStats(edited *netlist.Circuit, eff *effects) (*netlist.Stats, int, int, error) {
	s := cloneStats(pl.stats)
	nCells, nTransistors := pl.nCells, pl.nTransistors
	for _, dd := range eff.devs {
		dt, err := pl.proc.Device(dd.typ)
		if err != nil {
			return nil, 0, 0, estErr("module %q: %v", edited.Name, err)
		}
		if dd.sign > 0 {
			s.N++
			s.WidthCount[dt.Width]++
			s.SumWidth += dt.Width
			s.SumHeight += dt.Height
			s.ExactDeviceArea += dt.Area()
		} else {
			s.N--
			s.WidthCount[dt.Width]--
			if s.WidthCount[dt.Width] == 0 {
				delete(s.WidthCount, dt.Width)
			}
			s.SumWidth -= dt.Width
			s.SumHeight -= dt.Height
			s.ExactDeviceArea -= dt.Area()
		}
		if dt.Class == tech.ClassCell {
			nCells += dd.sign
		} else {
			nTransistors += dd.sign
		}
	}
	for _, name := range eff.nets {
		od, nd := netDegree(pl.circ, name), netDegree(edited, name)
		if od == nd {
			continue
		}
		debitDegree(s, od)
		creditDegree(s, nd)
	}
	s.MaxDegree = 0
	for d := range s.DegreeCount {
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
	}
	return s, nCells, nTransistors, nil
}

// netDegree returns the named net's component count, or -1 when the
// circuit has no such net.
func netDegree(c *netlist.Circuit, name string) int {
	if n := c.NetByName(name); n != nil {
		return n.Degree()
	}
	return -1
}

// debitDegree removes one net of the given degree from the histogram
// buckets (a negative degree means the net did not exist).
func debitDegree(s *netlist.Stats, d int) {
	switch {
	case d < 0:
	case d < 2:
		s.DegenerateNets--
	default:
		s.H--
		s.DegreeCount[d]--
		if s.DegreeCount[d] == 0 {
			delete(s.DegreeCount, d)
		}
	}
}

// creditDegree adds one net of the given degree to the histogram
// buckets.
func creditDegree(s *netlist.Stats, d int) {
	switch {
	case d < 0:
	case d < 2:
		s.DegenerateNets++
	default:
		s.H++
		s.DegreeCount[d]++
	}
}

// cloneStats deep-copies the mutable parts of a Stats (the two
// histogram maps); scalar fields copy by value.
func cloneStats(s *netlist.Stats) *netlist.Stats {
	cp := *s
	cp.WidthCount = make(map[geom.Lambda]int, len(s.WidthCount))
	for k, v := range s.WidthCount {
		cp.WidthCount[k] = v
	}
	cp.DegreeCount = make(map[int]int, len(s.DegreeCount))
	for k, v := range s.DegreeCount {
		cp.DegreeCount[k] = v
	}
	return &cp
}
