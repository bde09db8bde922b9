// Package floorplan is the chip floor planner the estimator feeds
// (paper §1, refs. Mason [2] and Ulysses [3]): it takes module shape
// candidates plus global interconnections and produces a slicing
// floor plan, choosing one shape per module.  PlanModules is the one
// entry point: a module enters either as a compiled engine.Plan (§4
// shape candidates via Plan.Candidates, channel overflow risk via
// Plan.Congestion) or as a fixed list of shapes, which is how an
// estimate database is planned (FromDB).  It also hosts the §7
// experiment measuring how estimate quality changes the number of
// floor-planning iterations.
package floorplan

import (
	"errors"
	"slices"
	"sort"

	"maest/internal/db"
	"maest/internal/obs"
)

// Floor-planner metrics: utilization tells whether the module shape
// estimates tile well; the latency histogram covers the §7
// iteration-loop budget.
var (
	mPlans     = obs.DefCounter("maest_floorplan_total", "completed floor plans")
	mPlanSec   = obs.DefHistogram("maest_floorplan_seconds", "floor-planning latency", obs.DefBuckets)
	mPlanUtil  = obs.DefHistogram("maest_floorplan_utilization_ratio", "chip area utilization of finished plans", obs.RatioBuckets)
	mPlanBlock = obs.DefCounter("maest_floorplan_modules_total", "modules placed by the floor planner")
)

// ErrPlan wraps floor-planning failures.
var ErrPlan = errors.New("floorplan: planning failed")

// Placed is one module's slot in the finished plan.
type Placed struct {
	Name       string
	X, Y, W, H float64
	// ShapeIndex is the index of the chosen candidate in the module's
	// shape list.
	ShapeIndex int
	// Rows is the standard-cell row count behind the chosen shape
	// (0 when the shape carries none, e.g. a naive square).
	Rows int
}

// Plan is a finished slicing floor plan.
type Plan struct {
	Chip   string
	Width  float64
	Height float64
	Blocks []Placed
	// WireLength is the half-perimeter length of the global nets over
	// block centres.
	WireLength float64
	// Routability is the pin-weighted Σ P(overflow) over the channels
	// of every Plan-backed module at its chosen row count — the
	// congestion term of the annealer's objective.  Zero when
	// congestion scoring was off or no module carried a plan.
	Routability float64
	// Cost is the objective value the planner minimized:
	// (area + wireWeight·wirelength·√area) · (1 + congestWeight·routability).
	Cost float64
	// Congestion details the winning plan's per-channel overflow risk
	// for every Plan-backed module (fixed-shape modules have none).
	Congestion []ModuleCongest
	// Stats reports the search effort that produced the plan.
	Stats SearchStats

	byName map[string]*Placed
}

// ModuleCongest is one module's channel overflow risk in the winning
// plan, at the row count the planner chose for it.
type ModuleCongest struct {
	Module string
	Rows   int
	// POverflowSum is Σ P(overflow) over the module's channels.
	POverflowSum float64
	Channels     []ChannelRisk
}

// ChannelRisk is one routing channel's overflow probability.
type ChannelRisk struct {
	Index     int
	POverflow float64
}

// SearchStats reports how hard the planner worked.
type SearchStats struct {
	// Iterations is the number of anneal moves tried (0 for the
	// deterministic greedy path).
	Iterations int
	// Evals is the number of cost evaluations, one per module order
	// tried.
	Evals int
	// RoutLookups and RoutMemoHits count the per-(module, rows)
	// routability queries and how many were answered by the search's
	// memo instead of the engine.
	RoutLookups  int
	RoutMemoHits int
	// InitialCost and FinalCost bracket the anneal trajectory.
	InitialCost float64
	FinalCost   float64
}

// Area returns the chip bounding-box area.
func (p *Plan) Area() float64 { return p.Width * p.Height }

// Utilization returns Σ block areas / chip area.
func (p *Plan) Utilization() float64 {
	if p.Area() == 0 {
		return 0
	}
	sum := 0.0
	for _, b := range p.Blocks {
		sum += b.W * b.H
	}
	return sum / p.Area()
}

// BlockByName returns the placed slot of a module, or nil.
func (p *Plan) BlockByName(name string) *Placed { return p.byName[name] }

// Net is one global interconnection between modules, the planner's
// own net shape (so callers never build an estimate database).
type Net struct {
	Name string
	Pins []NetPin
}

// NetPin is one connection of a global net.
type NetPin struct {
	Module string
	Port   string
}

// Shape is one fixed candidate shape of a module: its dimensions in λ
// and the standard-cell row count behind it (0 when it has none, e.g.
// a full-custom or naive square shape).
type Shape struct {
	W, H float64
	Rows int
}

// mod is the search core's view of one module: its position in the
// planner's input, its candidate shapes plus, for Plan-backed modules,
// the compiled plan that answers congestion questions and the module's
// global-net pin count (its weight in the routability term).
type mod struct {
	idx    int
	name   string
	shapes []Shape
	plan   planner // nil for fixed-shape modules
	pins   int
}

// shape candidates carried through the slicing combination, with
// back-pointers for reconstruction.  Kept to 24 bytes: sorting them is
// most of the search's time.
type combo struct {
	w, h float64
	// leaf: shapeIdx ≥ 0.  internal: cut is 'v' or 'h', li/ri select
	// the child combos (every list holds at most maxCombos).
	shapeIdx int32
	cut      byte
	li, ri   uint8
}

// subtree is one slicing-tree node's Pareto shape list under a given
// module order: a leaf holds one module's pruned shapes, an internal
// node the combination of its two children, which it keeps so a
// combo's li/ri back-pointers can be followed.
type subtree struct {
	combos      []combo
	left, right *subtree // nil at a leaf
	mod         *mod     // leaf only
	// Once scored as the root of an eval, best is that eval's answer
	// and lookups the routability queries it made.
	scored  bool
	best    choice
	lookups int
}

// FromDB converts an estimate database into PlanModules inputs: one
// fixed-shape module per record, shapes in database order (so a placed
// block's ShapeIndex indexes the record's Shapes), and the global nets.
// Plan the result with PlanModules; WithBudget(0) gives the
// deterministic greedy slicing pass.
func FromDB(d *db.Database) ([]PlanModule, []Net) {
	ms := make([]PlanModule, len(d.Modules))
	for i, m := range d.Modules {
		shapes := make([]Shape, len(m.Shapes))
		for si, s := range m.Shapes {
			shapes[si] = Shape{W: s.W, H: s.H, Rows: s.Rows}
		}
		ms[i] = PlanModule{Name: m.Name, Shapes: shapes}
	}
	nets := make([]Net, len(d.Nets))
	for i, n := range d.Nets {
		pins := make([]NetPin, len(n.Pins))
		for j, p := range n.Pins {
			pins[j] = NetPin{Module: p.Module, Port: p.Port}
		}
		nets[i] = Net{Name: n.Name, Pins: pins}
	}
	return ms, nets
}

// clusterOrder orders modules so strongly connected ones end up
// adjacent in the slicing tree: a greedy chain that always appends
// the unplaced module with the strongest connectivity to the chain's
// tail.
func clusterOrder(ms []*mod, nets []Net) []*mod {
	n := len(ms)
	conn := make(map[string]map[string]int, n)
	for _, m := range ms {
		conn[m.name] = map[string]int{}
	}
	for _, net := range nets {
		for i := 0; i < len(net.Pins); i++ {
			for j := i + 1; j < len(net.Pins); j++ {
				a, b := net.Pins[i].Module, net.Pins[j].Module
				if a == b {
					continue
				}
				conn[a][b]++
				conn[b][a]++
			}
		}
	}
	// Start from the largest module (stable under ties by name).
	idx := make([]*mod, len(ms))
	copy(idx, ms)
	sort.Slice(idx, func(i, j int) bool {
		ai := idx[i].shapes[0].W * idx[i].shapes[0].H
		aj := idx[j].shapes[0].W * idx[j].shapes[0].H
		if ai != aj {
			return ai > aj
		}
		return idx[i].name < idx[j].name
	})
	used := map[string]bool{idx[0].name: true}
	order := []*mod{idx[0]}
	for len(order) < n {
		tail := order[len(order)-1].name
		var best *mod
		bestScore := -1
		for _, m := range idx {
			if used[m.name] {
				continue
			}
			score := conn[tail][m.name]
			if score > bestScore || (score == bestScore && best != nil && m.name < best.name) {
				best, bestScore = m, score
			}
		}
		used[best.name] = true
		order = append(order, best)
	}
	return order
}

// span is one node of the fixed slicing-tree layout: the order
// positions [lo, hi) it covers and its children (-1 at a leaf).
type span struct {
	lo, hi      int
	left, right int
}

// treeLayout builds the balanced slicing tree over n order positions
// by pairing adjacent nodes level by level.  Leaves are spans 0..n-1
// and the root is the last span.  The layout depends on n alone, so a
// search builds it once and only the modules at its leaves change.
func treeLayout(n int) []span {
	spans := make([]span, n, 2*n-1)
	level := make([]int, n)
	for i := range spans {
		spans[i] = span{lo: i, hi: i + 1, left: -1, right: -1}
		level[i] = i
	}
	for len(level) > 1 {
		var next []int
		for i := 0; i < len(level); i += 2 {
			if i+1 == len(level) {
				next = append(next, level[i])
				continue
			}
			l, r := level[i], level[i+1]
			spans = append(spans, span{lo: spans[l].lo, hi: spans[r].hi, left: l, right: r})
			next = append(next, len(spans)-1)
		}
		level = next
	}
	return spans
}

// maxCombos caps each node's candidate list; pruning keeps the Pareto
// staircase so the cap rarely binds.  A combo's li/ri are bytes, so it
// must stay at most 256.
const maxCombos = 24

// leafCombos is a module's pruned shape list.
func leafCombos(m *mod) []combo {
	cs := make([]combo, len(m.shapes))
	for si, s := range m.shapes {
		cs[si] = combo{w: s.W, h: s.H, shapeIdx: int32(si)}
	}
	return pareto(cs)
}

// pareto keeps the non-dominated staircase (no other combo has both
// smaller-or-equal width and height), capped at maxCombos entries by
// area.  It sorts and filters cs in place and returns a prefix of it.
// slices.SortFunc runs the same pdqsort as sort.Slice, and every
// comparator is negative exactly when the matching less-than holds, so
// ties land in the order they always have.
func pareto(cs []combo) []combo {
	slices.SortFunc(cs, func(a, b combo) int {
		if a.w != b.w {
			return cmpLess(a.w, b.w)
		}
		return cmpLess(a.h, b.h)
	})
	out := cs[:0]
	for _, c := range cs {
		// Sorted by ascending (w, h): the last kept entry has
		// width ≤ c.w, so it dominates c unless c is strictly
		// shorter.  Kept entries therefore form a staircase of
		// increasing w and decreasing h.
		if len(out) > 0 && c.h >= out[len(out)-1].h {
			continue
		}
		out = append(out, c)
	}
	if len(out) > maxCombos {
		slices.SortFunc(out, func(a, b combo) int { return cmpLess(a.w*a.h, b.w*b.h) })
		out = out[:maxCombos]
		slices.SortFunc(out, func(a, b combo) int { return cmpLess(a.w, b.w) })
	}
	return out
}

// cmpLess compares by the < operator: unlike cmp.Compare, a NaN is
// neither less nor greater than anything.
func cmpLess(x, y float64) int {
	switch {
	case x < y:
		return -1
	case y < x:
		return 1
	}
	return 0
}
