package report

import (
	"context"
	"fmt"

	"maest/internal/engine"
	"maest/internal/gen"
	"maest/internal/layout"
	"maest/internal/tech"
)

// FCRow is one Table 1 line: a Full-Custom module's estimates (both
// device-area modes) against its synthesized layout.
type FCRow struct {
	Module                   string
	Devices, Nets, Ports     int
	DeviceArea               float64
	WireAreaExact, WireAvg   float64
	TotalExact, TotalAverage float64
	RealArea                 float64
	ErrExact, ErrAverage     float64 // signed relative error
	AspectExact, AspectAvg   float64
	RealAspect               float64
}

// RunTable1 regenerates the Table 1 experiment: estimate each module
// of the Full-Custom suite with exact and average device areas and
// compare against the synthesized ground-truth layout.
func RunTable1(p *tech.Process, seed int64) ([]FCRow, error) {
	suite, err := gen.FullCustomSuite(p)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	var rows []FCRow
	for _, c := range suite {
		// One compile per module covers both device-area modes: the
		// first FC call gathers the Eq. 13 statistics and fills both.
		pl, err := engine.CompileCtx(ctx, c, p)
		if err != nil {
			return nil, err
		}
		s := pl.Stats()
		exact, err := pl.EstimateFullCustom(ctx, engine.WithFCMode(engine.FCExactAreas))
		if err != nil {
			return nil, err
		}
		avg, err := pl.EstimateFullCustom(ctx, engine.WithFCMode(engine.FCAverageAreas))
		if err != nil {
			return nil, err
		}
		real, err := layout.SynthesizeFullCustom(ctx, c, p, seed)
		if err != nil {
			return nil, err
		}
		realArea := float64(real.Area())
		rows = append(rows, FCRow{
			Module:        c.Name,
			Devices:       s.N,
			Nets:          s.H,
			Ports:         s.NumPorts,
			DeviceArea:    float64(s.ExactDeviceArea),
			WireAreaExact: exact.WireArea,
			WireAvg:       avg.WireArea,
			TotalExact:    exact.Area,
			TotalAverage:  avg.Area,
			RealArea:      realArea,
			ErrExact:      exact.Area/realArea - 1,
			ErrAverage:    avg.Area/realArea - 1,
			AspectExact:   exact.AspectRatio,
			AspectAvg:     avg.AspectRatio,
			RealAspect:    real.AspectRatio(),
		})
	}
	return rows, nil
}

// Table1 renders Table 1 rows in the paper's column layout.
func Table1(rows []FCRow) *Table {
	t := &Table{
		Title: "Table 1: Full-Custom Module Layout Area Estimates (λ²)",
		Header: []string{"Module", "Dev", "Nets", "Ports", "DevArea",
			"WireEst(ex)", "WireEst(av)", "TotalEst(ex)", "TotalEst(av)",
			"Real", "Err(ex)%", "Err(av)%", "AR(ex)", "AR(av)", "AR(real)"},
	}
	for _, r := range rows {
		t.AddRow(r.Module, r.Devices, r.Nets, r.Ports, r.DeviceArea,
			r.WireAreaExact, r.WireAvg, r.TotalExact, r.TotalAverage,
			r.RealArea, pct(r.ErrExact), pct(r.ErrAverage),
			r.AspectExact, r.AspectAvg, r.RealAspect)
	}
	return t
}

// SCRow is one Table 2 line: a Standard-Cell module estimated at a
// fixed row count against its placed-and-routed layout.
type SCRow struct {
	Module          string
	Rows            int
	Devices, Ports  int
	EstWidth        float64
	EstHeight       float64
	TracksEstimated int
	TracksReal      int
	EstArea         float64
	RealArea        float64
	Overestimate    float64 // est/real - 1
	EstAspect       float64
	RealAspect      float64
	SharedEstArea   float64 // §7 track-sharing extension estimate
	SharedOverest   float64
}

// Table2RowCounts mirrors the paper's experiment structure: three row
// configurations for the first module, two for the second.
var Table2RowCounts = [][]int{{4, 5, 6}, {5, 6}}

// RunTable2 regenerates the Table 2 experiment over the Standard-Cell
// suite.
func RunTable2(p *tech.Process, seed int64) ([]SCRow, error) {
	suite, err := gen.StandardCellSuite(p)
	if err != nil {
		return nil, err
	}
	if len(suite) != len(Table2RowCounts) {
		return nil, fmt.Errorf("report: suite size %d != row-count plan %d",
			len(suite), len(Table2RowCounts))
	}
	ctx := context.Background()
	var rows []SCRow
	for i, c := range suite {
		// One compile per module covers every row configuration and
		// the sharing ablation; each variant is a memoized execution
		// against the same plan.
		pl, err := engine.CompileCtx(ctx, c, p)
		if err != nil {
			return nil, err
		}
		s := pl.Stats()
		for _, n := range Table2RowCounts[i] {
			est, err := pl.EstimateStandardCell(ctx, engine.WithRows(n))
			if err != nil {
				return nil, err
			}
			shared, err := pl.EstimateStandardCell(ctx, engine.WithRows(n), engine.WithTrackSharing(true))
			if err != nil {
				return nil, err
			}
			real, err := layout.LayoutStandardCell(ctx, c, p, n, seed)
			if err != nil {
				return nil, err
			}
			tracksReal := 0
			for _, tr := range real.ChannelTracks {
				tracksReal += tr
			}
			realArea := float64(real.Area())
			rows = append(rows, SCRow{
				Module:          c.Name,
				Rows:            n,
				Devices:         s.N,
				Ports:           s.NumPorts,
				EstWidth:        est.Width,
				EstHeight:       est.Height,
				TracksEstimated: est.Tracks,
				TracksReal:      tracksReal,
				EstArea:         est.Area,
				RealArea:        realArea,
				Overestimate:    est.Area/realArea - 1,
				EstAspect:       est.AspectRatio,
				RealAspect:      real.AspectRatio(),
				SharedEstArea:   shared.Area,
				SharedOverest:   shared.Area/realArea - 1,
			})
		}
	}
	return rows, nil
}

// Table2 renders Table 2 rows in the paper's column layout, extended
// with the §7 track-sharing ablation columns.
func Table2(rows []SCRow) *Table {
	t := &Table{
		Title: "Table 2: Standard-Cell Module Layout Area Estimates (λ²)",
		Header: []string{"Module", "Rows", "Dev", "Ports", "EstH", "EstW",
			"TrkEst", "TrkReal", "EstArea", "RealArea", "Over%",
			"AR(est)", "AR(real)", "SharedEst", "SharedOver%"},
	}
	for _, r := range rows {
		t.AddRow(r.Module, r.Rows, r.Devices, r.Ports, r.EstHeight, r.EstWidth,
			r.TracksEstimated, r.TracksReal, r.EstArea, r.RealArea,
			pct(r.Overestimate), r.EstAspect, r.RealAspect,
			r.SharedEstArea, pct(r.SharedOverest))
	}
	return t
}

func pct(v float64) string { return fmt.Sprintf("%+.1f", v*100) }
