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
	"math"
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
	// Evals is the number of full cost evaluations (tree rebuild +
	// realization + scoring).
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

// mod is the search core's view of one module: its candidate shapes
// plus, for Plan-backed modules, the compiled plan that answers
// congestion questions and the module's global-net pin count (its
// weight in the routability term).
type mod struct {
	name   string
	shapes []Shape
	plan   planner // nil for fixed-shape modules
	pins   int
}

// shape candidates carried through the slicing combination, with
// back-pointers for reconstruction.
type combo struct {
	w, h float64
	// leaf: shapeIdx ≥ 0.  internal: cut is 'v' or 'h', li/ri select
	// the child combos.
	shapeIdx int
	cut      byte
	li, ri   int
}

type node struct {
	// leaf
	leaf *mod
	// internal
	left, right *node
	combos      []combo
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

// buildTree pairs adjacent nodes level by level into a balanced
// slicing tree.
func buildTree(nodes []*node) *node {
	for len(nodes) > 1 {
		var next []*node
		for i := 0; i < len(nodes); i += 2 {
			if i+1 == len(nodes) {
				next = append(next, nodes[i])
				continue
			}
			next = append(next, &node{left: nodes[i], right: nodes[i+1]})
		}
		nodes = next
	}
	return nodes[0]
}

// maxCombos caps each node's candidate list; pruning keeps the Pareto
// staircase so the cap rarely binds.
const maxCombos = 24

func combineAll(n *node) {
	if n.leaf != nil {
		return
	}
	combineAll(n.left)
	combineAll(n.right)
	var out []combo
	for li, lc := range n.left.combos {
		for ri, rc := range n.right.combos {
			// Vertical cut: side by side.
			out = append(out, combo{
				w: lc.w + rc.w, h: math.Max(lc.h, rc.h),
				shapeIdx: -1, cut: 'v', li: li, ri: ri,
			})
			// Horizontal cut: stacked.
			out = append(out, combo{
				w: math.Max(lc.w, rc.w), h: lc.h + rc.h,
				shapeIdx: -1, cut: 'h', li: li, ri: ri,
			})
		}
	}
	n.combos = pareto(out)
}

// pareto keeps the non-dominated staircase (no other combo has both
// smaller-or-equal width and height), capped at maxCombos entries by
// area.
func pareto(cs []combo) []combo {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].w != cs[j].w {
			return cs[i].w < cs[j].w
		}
		return cs[i].h < cs[j].h
	})
	var out []combo
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
		sort.Slice(out, func(i, j int) bool { return out[i].w*out[i].h < out[j].w*out[j].h })
		out = out[:maxCombos]
		sort.Slice(out, func(i, j int) bool { return out[i].w < out[j].w })
	}
	return out
}

// realize walks the tree assigning positions for the chosen combo.
func realize(n *node, comboIdx int, x, y float64, plan *Plan) {
	c := n.combos[comboIdx]
	if n.leaf != nil {
		p := Placed{
			Name: n.leaf.name, X: x, Y: y, W: c.w, H: c.h,
			ShapeIndex: c.shapeIdx, Rows: n.leaf.shapes[c.shapeIdx].Rows,
		}
		plan.Blocks = append(plan.Blocks, p)
		plan.byName[p.Name] = &plan.Blocks[len(plan.Blocks)-1]
		return
	}
	realize(n.left, c.li, x, y, plan)
	lc := n.left.combos[c.li]
	if c.cut == 'v' {
		realize(n.right, c.ri, x+lc.w, y, plan)
	} else {
		realize(n.right, c.ri, x, y+lc.h, plan)
	}
}

func wireLength(nets []Net, plan *Plan) float64 {
	total := 0.0
	for _, net := range nets {
		minX, maxX := math.Inf(1), math.Inf(-1)
		minY, maxY := math.Inf(1), math.Inf(-1)
		seen := false
		for _, pin := range net.Pins {
			b := plan.byName[pin.Module]
			if b == nil {
				continue
			}
			cx, cy := b.X+b.W/2, b.Y+b.H/2
			minX, maxX = math.Min(minX, cx), math.Max(maxX, cx)
			minY, maxY = math.Min(minY, cy), math.Max(maxY, cy)
			seen = true
		}
		if seen {
			total += (maxX - minX) + (maxY - minY)
		}
	}
	return total
}
