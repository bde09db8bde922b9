// Package baseline implements the comparators the paper positions
// itself against (§2):
//
//   - a naive active-area×factor rule of thumb (the "experienced
//     designer" guess the estimator is meant to replace),
//   - a PLEST-style estimator [Kurdahi & Parker] that predicts
//     standard-cell area from the local wiring density — which is only
//     measurable after physical layout, the circular dependency the
//     paper criticizes; we calibrate it from our own layout engine,
//   - the Gerveshi PLA observation [ref. 1] that PLA module area is
//     linear in the number of basic logic functions and devices,
//     reproduced with a gridded PLA area model plus a least-squares
//     fit.
package baseline

import (
	"context"
	"errors"
	"fmt"
	"math"

	"maest/internal/layout"
	"maest/internal/netlist"
	"maest/internal/tech"
)

// ErrBaseline wraps baseline estimation failures.
var ErrBaseline = errors.New("baseline: estimation failed")

// Naive returns the rule-of-thumb estimate: active device area
// multiplied by a routing factor (factor 2 is the folklore "routing
// doubles the area").
func Naive(s *netlist.Stats, factor float64) (float64, error) {
	if factor <= 0 {
		return 0, fmt.Errorf("%w: factor %g must be positive", ErrBaseline, factor)
	}
	if s.N == 0 {
		return 0, fmt.Errorf("%w: no devices", ErrBaseline)
	}
	return float64(s.ExactDeviceArea) * factor, nil
}

// PLESTModel is a density-calibrated standard-cell area model: it
// assumes every routing channel carries Density tracks on average.
type PLESTModel struct {
	Proc *tech.Process
	// Density is the average per-channel track count per routable
	// net, measured from finished layouts.
	Density float64
}

// CalibratePLEST measures the average channel density from real
// layouts of the given training circuits — the step that requires
// finished physical layout and makes this class of estimator unusable
// at floor-planning time (the paper's point).
func CalibratePLEST(train []*netlist.Circuit, p *tech.Process, rows int, seed int64) (*PLESTModel, error) {
	if len(train) == 0 {
		return nil, fmt.Errorf("%w: PLEST calibration needs training circuits", ErrBaseline)
	}
	if rows < 1 {
		return nil, fmt.Errorf("%w: rows %d < 1", ErrBaseline, rows)
	}
	totTracksPerNet := 0.0
	for _, c := range train {
		m, err := layout.LayoutStandardCell(context.TODO(), c, p, rows, seed)
		if err != nil {
			return nil, fmt.Errorf("%w: calibrating on %q: %v", ErrBaseline, c.Name, err)
		}
		s, err := netlist.Gather(c, p)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBaseline, err)
		}
		if s.H == 0 {
			continue
		}
		tracks := 0
		for _, t := range m.ChannelTracks {
			tracks += t
		}
		totTracksPerNet += float64(tracks) / float64(s.H)
	}
	return &PLESTModel{Proc: p, Density: totTracksPerNet / float64(len(train))}, nil
}

// Estimate predicts the standard-cell module area for the given row
// count: cell rows plus channels of Density·H tracks spread over the
// n+1 channels.
func (m *PLESTModel) Estimate(s *netlist.Stats, rows int) (float64, error) {
	if rows < 1 {
		return 0, fmt.Errorf("%w: rows %d < 1", ErrBaseline, rows)
	}
	if s.N == 0 {
		return 0, fmt.Errorf("%w: no devices", ErrBaseline)
	}
	width := s.AvgWidth() * float64(s.N) / float64(rows)
	tracks := m.Density * float64(s.H)
	height := float64(rows)*float64(m.Proc.RowHeight) + tracks*float64(m.Proc.TrackPitch)
	return width * height, nil
}

// PLA models a programmable logic array for the Gerveshi linear-area
// observation: Inputs and Outputs are the basic logic function
// counts, Terms the product-term rows.
type PLA struct {
	Inputs, Outputs, Terms int
}

// Devices returns the device count of the PLA personality matrix
// model: every input appears true and complemented in the AND plane,
// every output column in the OR plane, at ~50% programmed density,
// plus one driver per input and output.
func (q PLA) Devices() int {
	andPlane := 2 * q.Inputs * q.Terms
	orPlane := q.Outputs * q.Terms
	return (andPlane+orPlane)/2 + q.Inputs + q.Outputs
}

// Functions returns the number of basic logic functions (Gerveshi's
// first regressor): the implemented input and output columns.
func (q PLA) Functions() int { return q.Inputs + q.Outputs }

// Area returns the gridded PLA area in λ² under the given process:
// column pitch per input pair and output, row pitch per product term,
// plus fixed driver overhead bands.
func (q PLA) Area(p *tech.Process) (float64, error) {
	if q.Inputs < 1 || q.Outputs < 1 || q.Terms < 1 {
		return 0, fmt.Errorf("%w: PLA needs positive inputs/outputs/terms, got %+v", ErrBaseline, q)
	}
	colPitch := float64(p.TrackPitch)
	rowPitch := float64(p.TrackPitch)
	width := float64(2*q.Inputs+q.Outputs)*colPitch + 2*float64(p.RowHeight)
	height := float64(q.Terms)*rowPitch + 2*float64(p.RowHeight)
	return width * height, nil
}

// FitLinear fits y ≈ β₀ + Σ βᵢ·xᵢ by ordinary least squares (normal
// equations, Gaussian elimination with partial pivoting) and returns
// the coefficients (β₀ first) and the R² of the fit.
func FitLinear(xs [][]float64, ys []float64) (coeffs []float64, r2 float64, err error) {
	n := len(xs)
	if n == 0 || n != len(ys) {
		return nil, 0, fmt.Errorf("%w: need matching non-empty samples, got %d/%d", ErrBaseline, n, len(ys))
	}
	k := len(xs[0])
	for _, row := range xs {
		if len(row) != k {
			return nil, 0, fmt.Errorf("%w: ragged design matrix", ErrBaseline)
		}
	}
	dim := k + 1
	if n < dim {
		return nil, 0, fmt.Errorf("%w: %d samples cannot identify %d coefficients", ErrBaseline, n, dim)
	}
	// Build normal equations AᵀA β = Aᵀy with an intercept column.
	ata := make([][]float64, dim)
	for i := range ata {
		ata[i] = make([]float64, dim+1)
	}
	row := make([]float64, dim)
	for s := 0; s < n; s++ {
		row[0] = 1
		copy(row[1:], xs[s])
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				ata[i][j] += row[i] * row[j]
			}
			ata[i][dim] += row[i] * ys[s]
		}
	}
	coeffs, err = solve(ata)
	if err != nil {
		return nil, 0, err
	}
	// R².
	meanY := 0.0
	for _, y := range ys {
		meanY += y
	}
	meanY /= float64(n)
	ssRes, ssTot := 0.0, 0.0
	for s := 0; s < n; s++ {
		pred := coeffs[0]
		for i, x := range xs[s] {
			pred += coeffs[i+1] * x
		}
		ssRes += (ys[s] - pred) * (ys[s] - pred)
		ssTot += (ys[s] - meanY) * (ys[s] - meanY)
	}
	if ssTot == 0 {
		r2 = 1
	} else {
		r2 = 1 - ssRes/ssTot
	}
	return coeffs, r2, nil
}

// solve performs in-place Gaussian elimination on the augmented
// matrix and returns the solution vector.
func solve(m [][]float64) ([]float64, error) {
	dim := len(m)
	for col := 0; col < dim; col++ {
		pivot := col
		for r := col + 1; r < dim; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-12 {
			return nil, fmt.Errorf("%w: singular normal equations (collinear regressors)", ErrBaseline)
		}
		m[col], m[pivot] = m[pivot], m[col]
		for r := 0; r < dim; r++ {
			if r == col {
				continue
			}
			f := m[r][col] / m[col][col]
			for c := col; c <= dim; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	out := make([]float64, dim)
	for i := range out {
		out[i] = m[i][dim] / m[i][i]
	}
	return out, nil
}
