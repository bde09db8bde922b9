// Package place is the standard-cell placement engine that produces
// the "real" layouts the estimator is judged against — our stand-in
// for the TimberWolf 3.2 placements of the paper's Table 2.  Like
// TimberWolf it assigns cells to rows and orders them within rows by
// simulated annealing over half-perimeter wire length, with a penalty
// keeping row lengths balanced.
package place

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"maest/internal/geom"
	"maest/internal/netlist"
	"maest/internal/obs"
	"maest/internal/tech"
)

// Annealing metrics: iteration throughput, accept ratio, and cost
// improvement are what separate "the schedule converged" from "the
// schedule burned CPU" — the TimberWolf-side half of the paper's
// timing comparison.
var (
	mPlacements     = obs.DefCounter("maest_place_total", "completed placements")
	mPlaceSec       = obs.DefHistogram("maest_place_seconds", "placement latency", obs.DefBuckets)
	mAnnealMoves    = obs.DefCounter("maest_anneal_moves_total", "proposed annealing moves")
	mAnnealAccepted = obs.DefCounter("maest_anneal_accepted_total", "accepted annealing moves")
	mAnnealAccept   = obs.DefHistogram("maest_anneal_accept_ratio", "per-placement accepted/proposed move ratio", obs.RatioBuckets)
	mAnnealImprove  = obs.DefHistogram("maest_anneal_cost_improvement_ratio", "per-placement (initial-final)/initial cost improvement", obs.RatioBuckets)
)

// Options configures Place.
type Options struct {
	// Rows is the number of rows (≥ 1).
	Rows int
	// Seed drives the deterministic annealing RNG.
	Seed int64
	// Moves caps the number of annealing moves; 0 selects an
	// automatic budget proportional to circuit size.
	Moves int
}

// Placement is a legal row assignment and ordering of every device.
type Placement struct {
	Circuit *netlist.Circuit
	Proc    *tech.Process
	// Rows holds the device indices of each row, in left-to-right
	// order.
	Rows [][]int
	// RowOf and Slot locate each device: Rows[RowOf[d]][Slot[d]] == d.
	RowOf, Slot []int
	// widths caches per-device widths; heights per-device heights.
	widths, heights []geom.Lambda
}

// ErrPlace wraps placement failures.
var ErrPlace = errors.New("place: placement failed")

// Place builds a balanced initial placement and improves it with
// simulated annealing, under a "place" span carrying the annealing
// statistics (moves, accept ratio, cost trajectory) plus the
// placement metrics.  The result is deterministic for a given
// (circuit, options) pair: tracing does not perturb the anneal — the
// RNG stream and move sequence are identical with and without a sink.
func Place(ctx context.Context, c *netlist.Circuit, p *tech.Process, opts Options) (pl *Placement, err error) {
	_, sp := obs.Start(ctx, "place")
	sp.SetString("module", c.Name)
	defer func(t0 time.Time) {
		mPlaceSec.Observe(time.Since(t0).Seconds())
		if err == nil {
			mPlacements.Inc()
		}
		sp.EndErr(err)
	}(time.Now())
	pl, st, err := place(c, p, opts)
	if err != nil {
		return nil, err
	}
	sp.SetInt("devices", int64(c.NumDevices()))
	sp.SetInt("rows", int64(opts.Rows))
	sp.SetInt("moves", int64(st.proposed))
	sp.SetInt("accepted", int64(st.accepted))
	sp.SetFloat("cost_initial", st.costInitial)
	sp.SetFloat("cost_final", st.costFinal)
	if len(st.trajectory) > 0 {
		sp.SetString("cost_trajectory", formatTrajectory(st.trajectory))
	}
	mAnnealMoves.Add(int64(st.proposed))
	mAnnealAccepted.Add(int64(st.accepted))
	if st.proposed > 0 {
		mAnnealAccept.Observe(float64(st.accepted) / float64(st.proposed))
	}
	if st.costInitial > 0 {
		mAnnealImprove.Observe((st.costInitial - st.costFinal) / st.costInitial)
	}
	return pl, nil
}

// formatTrajectory renders sampled anneal costs as "c0→c1→…" for the
// span attribute.
func formatTrajectory(costs []float64) string {
	var b strings.Builder
	for i, c := range costs {
		if i > 0 {
			b.WriteString("→")
		}
		fmt.Fprintf(&b, "%.0f", c)
	}
	return b.String()
}

func place(c *netlist.Circuit, p *tech.Process, opts Options) (*Placement, annealStats, error) {
	if opts.Rows < 1 {
		return nil, annealStats{}, fmt.Errorf("%w: need ≥ 1 row, got %d", ErrPlace, opts.Rows)
	}
	if c.NumDevices() == 0 {
		return nil, annealStats{}, fmt.Errorf("%w: circuit %q has no devices", ErrPlace, c.Name)
	}
	widths, heights, err := netlist.DeviceDims(c, p)
	if err != nil {
		return nil, annealStats{}, fmt.Errorf("%w: %v", ErrPlace, err)
	}
	pl := &Placement{
		Circuit: c,
		Proc:    p,
		Rows:    make([][]int, opts.Rows),
		RowOf:   make([]int, c.NumDevices()),
		Slot:    make([]int, c.NumDevices()),
		widths:  widths,
		heights: heights,
	}
	// Initial placement: deal devices round-robin into rows in index
	// order, which balances both count and (statistically) width.
	for i := range c.Devices {
		r := i % opts.Rows
		pl.RowOf[i] = r
		pl.Slot[i] = len(pl.Rows[r])
		pl.Rows[r] = append(pl.Rows[r], i)
	}
	st := pl.anneal(opts)
	return pl, st, nil
}

// DeviceWidth returns the cached width of device d.
func (pl *Placement) DeviceWidth(d int) geom.Lambda { return pl.widths[d] }

// DeviceHeight returns the cached height of device d.
func (pl *Placement) DeviceHeight(d int) geom.Lambda { return pl.heights[d] }

// RowWidth returns the summed device width of row r (no feed-throughs).
func (pl *Placement) RowWidth(r int) geom.Lambda {
	var w geom.Lambda
	for _, d := range pl.Rows[r] {
		w += pl.widths[d]
	}
	return w
}

// RowHeight returns the height of row r: the process row height for
// cell rows, or the tallest device for transistor rows (full-custom
// synthesis reuses this placer).
func (pl *Placement) RowHeight(r int) geom.Lambda {
	h := geom.Lambda(0)
	for _, d := range pl.Rows[r] {
		if pl.heights[d] > h {
			h = pl.heights[d]
		}
	}
	if h == 0 {
		h = pl.Proc.RowHeight // empty row keeps nominal pitch
	}
	return h
}

// positions returns, for each device, the x of its centre given the
// current row orders.
func (pl *Placement) positions() []geom.Lambda {
	xs := make([]geom.Lambda, len(pl.RowOf))
	for _, row := range pl.Rows {
		var x geom.Lambda
		for _, d := range row {
			xs[d] = x + pl.widths[d]/2
			x += pl.widths[d]
		}
	}
	return xs
}

// rowCenters returns the y of each row's centre line, stacking rows
// with one nominal channel pitch between them (the exact channel
// heights only matter to the router; the placer just needs a
// consistent vertical metric).
func (pl *Placement) rowCenters() []geom.Lambda {
	ys := make([]geom.Lambda, len(pl.Rows))
	var y geom.Lambda
	for r := range pl.Rows {
		h := pl.RowHeight(r)
		ys[r] = y + h/2
		y += h + pl.Proc.TrackPitch*4 // nominal channel allowance
	}
	return ys
}

// WireLength returns the total half-perimeter wire length of the
// placement, the annealing objective.
func (pl *Placement) WireLength() geom.Lambda {
	xs := pl.positions()
	ys := pl.rowCenters()
	var total geom.Lambda
	for _, n := range pl.Circuit.Nets {
		if n.Degree() < 2 {
			continue
		}
		total += netHPWL(n, pl, xs, ys)
	}
	return total
}

func netHPWL(n *netlist.Net, pl *Placement, xs, ys []geom.Lambda) geom.Lambda {
	first := n.Devices[0].Index
	minX, maxX := xs[first], xs[first]
	minY, maxY := ys[pl.RowOf[first]], ys[pl.RowOf[first]]
	for _, dev := range n.Devices[1:] {
		d := dev.Index
		x, y := xs[d], ys[pl.RowOf[d]]
		if x < minX {
			minX = x
		}
		if x > maxX {
			maxX = x
		}
		if y < minY {
			minY = y
		}
		if y > maxY {
			maxY = y
		}
	}
	return (maxX - minX) + (maxY - minY)
}

// cost is the annealing objective: wire length plus a quadratic
// penalty on row-width imbalance (TimberWolf's row-length control).
func (pl *Placement) cost() float64 {
	wl := float64(pl.WireLength())
	var total, maxW float64
	for r := range pl.Rows {
		w := float64(pl.RowWidth(r))
		total += w
		if w > maxW {
			maxW = w
		}
	}
	mean := total / float64(len(pl.Rows))
	imbalance := 0.0
	for r := range pl.Rows {
		d := float64(pl.RowWidth(r)) - mean
		imbalance += d * d
	}
	return wl + imbalance/math.Max(mean, 1)
}

// annealStats summarizes one annealing run for the observability
// layer: move counts, endpoint costs, and a downsampled cost
// trajectory.
type annealStats struct {
	proposed, accepted     int
	costInitial, costFinal float64
	trajectory             []float64
}

// trajectorySamples bounds the sampled cost-trajectory length so span
// attributes stay readable regardless of the move budget.
const trajectorySamples = 9

// anneal improves the placement with a classic geometric-cooling
// schedule over two move types: swap two devices, or pop a device
// into a random slot of a random row.
func (pl *Placement) anneal(opts Options) annealStats {
	n := len(pl.RowOf)
	if n < 2 || len(pl.Rows) == 0 {
		return annealStats{}
	}
	moves := opts.Moves
	if moves == 0 {
		moves = 200 * n
		if moves > 400_000 {
			moves = 400_000
		}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	cur := pl.cost()
	st := annealStats{costInitial: cur, trajectory: []float64{cur}}
	stride := moves / trajectorySamples
	if stride == 0 {
		stride = 1
	}
	// Initial temperature: a fraction of current cost so early moves
	// are mostly accepted.
	temp := math.Max(cur*0.05, 1)
	cooling := math.Pow(1e-4, 1/float64(moves)) // reach 1e-4·T0 at the end
	for it := 0; it < moves; it++ {
		var undo func()
		if rng.Intn(2) == 0 {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			pl.swap(a, b)
			undo = func() { pl.swap(a, b) }
		} else {
			d := rng.Intn(n)
			fromRow, fromSlot := pl.RowOf[d], pl.Slot[d]
			toRow := rng.Intn(len(pl.Rows))
			toSlot := 0
			if len(pl.Rows[toRow]) > 0 {
				toSlot = rng.Intn(len(pl.Rows[toRow]) + 1)
			}
			if toRow == fromRow && (toSlot == fromSlot || toSlot == fromSlot+1) {
				continue
			}
			pl.move(d, toRow, toSlot)
			// Re-inserting at the original slot restores the original
			// order: only d moved, so the row minus d is unchanged.
			undo = func() { pl.move(d, fromRow, fromSlot) }
		}
		st.proposed++
		next := pl.cost()
		delta := next - cur
		if delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
			cur = next
			st.accepted++
		} else {
			undo()
		}
		if st.proposed%stride == 0 {
			st.trajectory = append(st.trajectory, cur)
		}
		temp *= cooling
	}
	st.costFinal = cur
	if st.trajectory[len(st.trajectory)-1] != cur {
		st.trajectory = append(st.trajectory, cur)
	}
	return st
}

// swap exchanges the positions of devices a and b.
func (pl *Placement) swap(a, b int) {
	ra, sa := pl.RowOf[a], pl.Slot[a]
	rb, sb := pl.RowOf[b], pl.Slot[b]
	pl.Rows[ra][sa], pl.Rows[rb][sb] = b, a
	pl.RowOf[a], pl.RowOf[b] = rb, ra
	pl.Slot[a], pl.Slot[b] = sb, sa
}

// move removes device d from its row and inserts it at slot of row r.
func (pl *Placement) move(d, r, slot int) {
	fr, fs := pl.RowOf[d], pl.Slot[d]
	row := pl.Rows[fr]
	row = append(row[:fs], row[fs+1:]...)
	pl.Rows[fr] = row
	for i := fs; i < len(row); i++ {
		pl.Slot[row[i]] = i
	}
	if r == fr && slot > len(pl.Rows[r]) {
		slot = len(pl.Rows[r])
	}
	dst := pl.Rows[r]
	if slot > len(dst) {
		slot = len(dst)
	}
	dst = append(dst, 0)
	copy(dst[slot+1:], dst[slot:])
	dst[slot] = d
	pl.Rows[r] = dst
	for i := slot; i < len(dst); i++ {
		pl.Slot[dst[i]] = i
	}
	pl.RowOf[d] = r
}

// Check validates the placement invariants: every device appears in
// exactly one row slot and the index maps agree with the row lists.
func (pl *Placement) Check() error {
	seen := make([]bool, len(pl.RowOf))
	for r, row := range pl.Rows {
		for s, d := range row {
			if d < 0 || d >= len(seen) {
				return fmt.Errorf("%w: row %d slot %d holds bad device %d", ErrPlace, r, s, d)
			}
			if seen[d] {
				return fmt.Errorf("%w: device %d placed twice", ErrPlace, d)
			}
			seen[d] = true
			if pl.RowOf[d] != r || pl.Slot[d] != s {
				return fmt.Errorf("%w: device %d index maps disagree (row %d/%d slot %d/%d)",
					ErrPlace, d, pl.RowOf[d], r, pl.Slot[d], s)
			}
		}
	}
	for d, ok := range seen {
		if !ok {
			return fmt.Errorf("%w: device %d not placed", ErrPlace, d)
		}
	}
	return nil
}

// PinPosition returns the (x, row) location of device d's connection
// point: the cell centre on the λ grid.
func (pl *Placement) PinPosition(d int) (x geom.Lambda, row int) {
	xs := pl.positions() // small circuits: recompute is fine for callers
	return xs[d], pl.RowOf[d]
}

// Positions exposes all device centre x coordinates (index = device).
func (pl *Placement) Positions() []geom.Lambda { return pl.positions() }

// PinColumns returns, for each device, the x column of each of its
// pins: pins are spread evenly across the cell width (pin k of an
// np-pin cell sits at left + (k+1)·w/(np+1)), as real cell layouts
// stagger their terminals.  The detailed router uses these columns so
// different nets entering one cell do not share a vertical.
func (pl *Placement) PinColumns() [][]geom.Lambda {
	lefts := make([]geom.Lambda, len(pl.RowOf))
	for _, row := range pl.Rows {
		var x geom.Lambda
		for _, d := range row {
			lefts[d] = x
			x += pl.widths[d]
		}
	}
	out := make([][]geom.Lambda, len(pl.RowOf))
	for d, dev := range pl.Circuit.Devices {
		np := len(dev.Pins)
		cols := make([]geom.Lambda, np)
		for k := 0; k < np; k++ {
			cols[k] = lefts[d] + pl.widths[d]*geom.Lambda(k+1)/geom.Lambda(np+1)
		}
		out[d] = cols
	}
	return out
}
