package report

import (
	"fmt"
	"math"

	"maest/internal/congest"
	"maest/internal/gen"
	"maest/internal/netlist"
	"maest/internal/place"
	"maest/internal/route"
	"maest/internal/tech"
)

// CongestRow is one congestion-validation line: a module's predicted
// per-channel track densities (crossing model) scored against the
// channel assignments the spine router actually produced.
type CongestRow struct {
	Module string
	Rows   int
	// PredictedTracks is the map's total expected track demand;
	// ActualTracks is the router's total.
	PredictedTracks float64
	ActualTracks    int
	// MAE is the mean absolute per-channel track error, Bias the
	// signed mean (positive = the model over-predicts).
	MAE  float64
	Bias float64
	// PeakUtil / PeakOverflow / HotChannel summarize the predicted
	// map's risk picture.
	PeakUtil     float64
	PeakOverflow float64
	HotChannel   int
}

// RunCongestValidation scores the crossing-model congestion maps
// against routed layouts over both experiment suites: every Table 2
// standard-cell configuration, plus the Table 1 full-custom modules
// placed and routed at their ⌈√N⌉ grid row count.
func RunCongestValidation(p *tech.Process, seed int64) ([]CongestRow, error) {
	var rows []CongestRow

	scSuite, err := gen.StandardCellSuite(p)
	if err != nil {
		return nil, err
	}
	for i, c := range scSuite {
		if i >= len(Table2RowCounts) {
			break
		}
		for _, n := range Table2RowCounts[i] {
			row, err := congestRow(c, p, n, seed)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}

	fcSuite, err := gen.FullCustomSuite(p)
	if err != nil {
		return nil, err
	}
	for _, c := range fcSuite {
		s, err := netlist.Gather(c, p)
		if err != nil {
			return nil, err
		}
		row, err := congestRow(c, p, congest.GridRows(s), seed)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// congestRow analyzes, places, routes, and validates one module at a
// fixed row count.
func congestRow(c *netlist.Circuit, p *tech.Process, n int, seed int64) (CongestRow, error) {
	s, err := netlist.Gather(c, p)
	if err != nil {
		return CongestRow{}, err
	}
	m, err := congest.Analyze(s, n, congest.Options{Model: congest.ModelCrossing})
	if err != nil {
		return CongestRow{}, err
	}
	pl, err := place.Place(c, p, place.Options{Rows: n, Seed: seed})
	if err != nil {
		return CongestRow{}, err
	}
	routed, err := route.RouteModule(pl, route.Options{})
	if err != nil {
		return CongestRow{}, err
	}
	v, err := ValidateRoute(m, routed)
	if err != nil {
		return CongestRow{}, err
	}
	return CongestRow{
		Module:          c.Name,
		Rows:            n,
		PredictedTracks: v.PredictedTotal,
		ActualTracks:    v.ActualTotal,
		MAE:             v.MAE,
		Bias:            v.Bias,
		PeakUtil:        m.MaxUtilization(),
		PeakOverflow:    m.MaxOverflow(),
		HotChannel:      m.HottestChannel(),
	}, nil
}

// Validation scores a predicted congestion map against the channel
// assignments an actual routing produced — the congestion analogue of
// the paper's Tables 1–2, which score predicted area against real
// layouts.
type Validation struct {
	Module string
	// Predicted[c] is the map's expected track demand in channel c;
	// Actual[c] is the router's track count there.
	Predicted []float64
	Actual    []int
	// MAE is the mean absolute per-channel track error.
	MAE float64
	// Bias is the mean signed error (predicted − actual): positive
	// means the model overestimates, as the paper's assumption 3
	// predicts it should.
	Bias float64
	// PredictedTotal and ActualTotal are the summed track counts.
	PredictedTotal float64
	ActualTotal    int
}

// ValidateRoute compares a congestion map's expected per-channel
// demand with a routed module's channel track counts.  The map and the
// routing must describe the same row count (the channel vectors must
// line up index-for-index); a mismatch wraps congest.ErrCongest.
func ValidateRoute(m *congest.Map, routed *route.Result) (*Validation, error) {
	if len(m.Channels) != len(routed.ChannelTracks) {
		return nil, fmt.Errorf("%w: module %q: map has %d channels, routing has %d",
			congest.ErrCongest, m.Module, len(m.Channels), len(routed.ChannelTracks))
	}
	v := &Validation{
		Module:    m.Module,
		Predicted: make([]float64, len(m.Channels)),
		Actual:    append([]int(nil), routed.ChannelTracks...),
	}
	sumAbs, sumSigned := 0.0, 0.0
	for c, ch := range m.Channels {
		v.Predicted[c] = ch.Expected
		v.PredictedTotal += ch.Expected
		v.ActualTotal += routed.ChannelTracks[c]
		diff := ch.Expected - float64(routed.ChannelTracks[c])
		sumAbs += math.Abs(diff)
		sumSigned += diff
	}
	n := float64(len(m.Channels))
	v.MAE = sumAbs / n
	v.Bias = sumSigned / n
	return v, nil
}

// CongestTable renders the congestion validation in the evaluation
// report's table layout.
func CongestTable(rows []CongestRow) *Table {
	t := &Table{
		Title: "Congestion validation: predicted channel densities vs. routed tracks",
		Header: []string{"Module", "Rows", "TrkPred", "TrkReal",
			"MAE/ch", "Bias/ch", "PeakUtil", "PeakP(over)", "HotCh"},
	}
	for _, r := range rows {
		t.AddRow(r.Module, r.Rows, r.PredictedTracks, r.ActualTracks,
			r.MAE, r.Bias, r.PeakUtil, r.PeakOverflow, r.HotChannel)
	}
	return t
}
