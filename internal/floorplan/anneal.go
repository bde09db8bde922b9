package floorplan

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"maest/internal/congest"
	"maest/internal/engine"
	"maest/internal/obs"
)

// Annealer metrics, alongside the planner metrics in floorplan.go:
// move throughput tells whether the budget is spent in the tree
// machinery or the congestion engine, and the memo counters expose
// how well the per-(module, rows) routability cache is amortizing.
var (
	mAnnealIters    = obs.DefCounter("maest_floorplan_anneal_iterations_total", "simulated-annealing moves tried")
	mAnnealAccepted = obs.DefCounter("maest_floorplan_anneal_accepted_total", "annealing moves accepted")
	mRoutLookups    = obs.DefCounter("maest_floorplan_rout_lookups_total", "per-(module, rows) routability queries during search")
	mRoutMemoHits   = obs.DefCounter("maest_floorplan_rout_memo_hits_total", "routability queries answered by the search memo")
)

// planner is the slice of engine.Plan the search core needs: the
// per-channel congestion question.  An interface so tests can score
// synthetic congestion without compiling circuits.
type planner interface {
	Congestion(ctx context.Context, opts ...engine.Option) (*congest.Map, error)
}

// PlanModule is one module entering the planner.  It carries exactly
// one of Plan or Shapes.  A compiled Plan answers both questions the
// search asks: shape candidates (Plan.Candidates) and per-channel
// overflow risk (Plan.Congestion, backed by the shared distribution
// memo).  Fixed Shapes — an estimate database's records, a naive
// guess, measured layouts — are used as given, in order (a placed
// block's ShapeIndex indexes them), and add no routability term.
type PlanModule struct {
	Name   string
	Plan   *engine.Plan
	Shapes []Shape
}

// Default search knobs.  DefaultBudget is sized so a ten-module chip
// anneals in well under a second; DefaultCandidates matches the §7
// experiment's shape-candidate count.
const (
	DefaultBudget     = 2000
	DefaultCandidates = 5
	DefaultSeed       = 1
)

// config is the resolved option set.
type config struct {
	wireWeight    float64
	congestWeight float64
	seed          int64
	budget        int
	candidates    int
	trackSharing  bool
	progress      func(Progress)
}

// Option tunes the Plan-driven planner.
type Option func(*config)

// WithCongestWeight sets the routability weight: the cost of a
// candidate plan is multiplied by (1 + w·routability), where
// routability is the pin-weighted Σ P(overflow) over every module's
// channels at its chosen row count.  Zero (the default) turns
// congestion scoring off.
func WithCongestWeight(w float64) Option { return func(c *config) { c.congestWeight = w } }

// WithWireWeight sets the wire-length weight: every Pareto-optimal
// root shape is realized and the area term becomes
// area + w·wirelength·√area.  Zero (the default) scores pure area.
func WithWireWeight(w float64) Option { return func(c *config) { c.wireWeight = w } }

// WithSeed fixes the annealer's random source.  Plans are
// deterministic in (modules, nets, options, seed): the same inputs
// reproduce the same Plan byte for byte (see WritePlanText).
func WithSeed(seed int64) Option { return func(c *config) { c.seed = seed } }

// WithBudget sets the annealing move budget.  Zero or negative
// disables annealing, leaving the deterministic greedy pass: modules
// clustered by connectivity into a balanced slicing tree, the
// cheapest root shape realized.
func WithBudget(n int) Option { return func(c *config) { c.budget = n } }

// WithCandidates sets how many shape candidates to request per module
// (clamped to the module's feasible row range).  Zero selects
// DefaultCandidates.
func WithCandidates(n int) Option { return func(c *config) { c.candidates = n } }

// WithTrackSharing toggles the §7 routing-track-sharing extension for
// candidate generation.  The Plan-driven planner defaults to on, the
// §7-extended configuration the iteration experiment uses.
func WithTrackSharing(on bool) Option { return func(c *config) { c.trackSharing = on } }

// WithProgress installs a progress callback, invoked once per anneal
// move (from the planning goroutine).  The job API uses it to surface
// iteration counts and the current best cost while a plan is being
// annealed; it must be cheap and must not block.
func WithProgress(fn func(Progress)) Option { return func(c *config) { c.progress = fn } }

// Progress is one annealing progress report.
type Progress struct {
	// Iteration counts moves tried so far (1-based); Budget is the
	// configured total.
	Iteration int
	Budget    int
	// Best is the lowest cost seen; Current is the cost of the
	// currently accepted plan.
	Best    float64
	Current float64
}

// PlanModules floor-plans modules: shape candidates come from each
// module's engine.Plan or fixed Shapes, the slicing search minimizes
//
//	(area + wireWeight·wirelength·√area) · (1 + congestWeight·routability)
//
// and, with a positive budget, a simulated-annealing loop perturbs
// the module clustering order under a fixed seed.  Cancellation is
// checked every anneal move; ctx's error is returned as soon as it
// fires.  The routability term weights each module's Σ P(overflow)
// by its global-net pin count, so congestion in well-connected
// modules hurts more — the early-routability-assessment idea folded
// into the paper's slicing objective.
func PlanModules(ctx context.Context, chip string, mods []PlanModule, nets []Net, opts ...Option) (plan *Plan, err error) {
	cfg := config{
		seed:         DefaultSeed,
		budget:       DefaultBudget,
		candidates:   DefaultCandidates,
		trackSharing: true,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.candidates <= 0 {
		cfg.candidates = DefaultCandidates
	}

	ctx, sp := obs.Start(ctx, "floorplan.anneal")
	sp.SetString("chip", chip)
	sp.SetInt("modules", int64(len(mods)))
	sp.SetInt("budget", int64(cfg.budget))
	sp.SetInt("seed", cfg.seed)
	sp.SetFloat("congest_weight", cfg.congestWeight)
	defer func(t0 time.Time) {
		mPlanSec.Observe(time.Since(t0).Seconds())
		if err == nil {
			mPlans.Inc()
			mPlanBlock.Add(int64(len(plan.Blocks)))
			mPlanUtil.Observe(plan.Utilization())
			sp.SetFloat("cost", plan.Cost)
			sp.SetFloat("routability", plan.Routability)
			sp.SetInt("iterations", int64(plan.Stats.Iterations))
		}
		sp.EndErr(err)
	}(time.Now())

	ms, err := resolveModules(ctx, mods, nets, cfg)
	if err != nil {
		return nil, err
	}
	return run(ctx, chip, ms, nets, cfg)
}

// resolveModules validates the input and resolves each module's
// shape candidates: asked of its plan, or checked from its fixed
// list.
func resolveModules(ctx context.Context, mods []PlanModule, nets []Net, cfg config) ([]*mod, error) {
	if len(mods) == 0 {
		return nil, fmt.Errorf("%w: no modules", ErrPlan)
	}
	byName := make(map[string]*mod, len(mods))
	ms := make([]*mod, len(mods))
	for i, pm := range mods {
		if pm.Name == "" {
			return nil, fmt.Errorf("%w: module %d has no name", ErrPlan, i)
		}
		if byName[pm.Name] != nil {
			return nil, fmt.Errorf("%w: duplicate module %q", ErrPlan, pm.Name)
		}
		m := &mod{name: pm.Name, shapes: pm.Shapes}
		switch {
		case pm.Plan != nil && len(pm.Shapes) > 0:
			return nil, fmt.Errorf("%w: module %q carries both a plan and fixed shapes", ErrPlan, pm.Name)
		case pm.Plan != nil:
			shapes, err := planShapes(ctx, pm.Plan, cfg)
			if err != nil {
				return nil, fmt.Errorf("%w: module %q: %v", ErrPlan, pm.Name, err)
			}
			m.shapes, m.plan = shapes, pm.Plan
		case len(pm.Shapes) == 0:
			return nil, fmt.Errorf("%w: module %q has neither a compiled plan nor shapes", ErrPlan, pm.Name)
		default:
			for _, s := range pm.Shapes {
				if !(s.W > 0 && s.H > 0) || math.IsInf(s.W, 0) || math.IsInf(s.H, 0) {
					return nil, fmt.Errorf("%w: module %q shape %gx%g is not positive and finite", ErrPlan, pm.Name, s.W, s.H)
				}
			}
		}
		byName[pm.Name] = m
		ms[i] = m
	}
	for _, nt := range nets {
		for _, pin := range nt.Pins {
			m := byName[pin.Module]
			if m == nil {
				return nil, fmt.Errorf("%w: net %q references unknown module %q", ErrPlan, nt.Name, pin.Module)
			}
			m.pins++
		}
	}
	return ms, nil
}

// planShapes asks a compiled plan for its shape candidates, clamping
// the request into the module's feasible row range [1, N]:
// Plan.Candidates is strict and would refuse a count the module cannot
// honor.
func planShapes(ctx context.Context, pl *engine.Plan, cfg config) ([]Shape, error) {
	count := cfg.candidates
	if n := pl.Stats().N; count > n {
		count = n
	}
	if count < 1 {
		count = 1
	}
	cands, err := pl.Candidates(ctx,
		engine.WithCandidates(count), engine.WithTrackSharing(cfg.trackSharing))
	if err != nil {
		return nil, err
	}
	shapes := make([]Shape, len(cands))
	for i, c := range cands {
		shapes[i] = Shape{W: c.Width, H: c.Height, Rows: c.Rows}
	}
	return shapes, nil
}

// searcher carries one search's shared state: the routability memo
// (per module and row count — row choice is what the anneal varies,
// so the engine is asked about each (module, rows) pair once) and the
// effort counters.
type searcher struct {
	ctx    context.Context
	chip   string
	nets   []Net
	cfg    config
	byName map[string]*mod
	rout   map[routKey]float64
	stats  SearchStats
}

type routKey struct {
	name string
	rows int
}

// run is the search core: greedy clustering + slicing combination
// always, simulated annealing over the clustering order when the
// budget allows.
func run(ctx context.Context, chip string, ms []*mod, nets []Net, cfg config) (*Plan, error) {
	sc := &searcher{
		ctx:    ctx,
		chip:   chip,
		nets:   nets,
		cfg:    cfg,
		byName: make(map[string]*mod, len(ms)),
		rout:   map[routKey]float64{},
	}
	for _, m := range ms {
		sc.byName[m.name] = m
	}
	order := clusterOrder(ms, nets)
	best, err := sc.eval(order)
	if err != nil {
		return nil, err
	}
	sc.stats.InitialCost = best.Cost
	if cfg.budget > 0 && len(order) > 1 {
		if best, err = sc.anneal(order, best); err != nil {
			return nil, err
		}
	}
	sc.stats.FinalCost = best.Cost
	best.Stats = sc.stats
	if err := sc.fillCongestion(best); err != nil {
		return nil, err
	}
	return best, nil
}

// anneal perturbs the clustering order by pairwise swaps under
// Metropolis acceptance with geometric cooling.  Deterministic in the
// seed; cancellation is checked on every move.
func (sc *searcher) anneal(order []*mod, initial *Plan) (*Plan, error) {
	const (
		startTempFrac = 0.2  // initial temperature as a fraction of the initial cost
		endTempFrac   = 1e-4 // final temperature fraction: effectively greedy by the end
	)
	best, cur := initial, initial
	bestCost, curCost := initial.Cost, initial.Cost
	rng := rand.New(rand.NewSource(sc.cfg.seed))
	temp := curCost * startTempFrac
	cool := math.Pow(endTempFrac/startTempFrac, 1/float64(sc.cfg.budget))
	n := len(order)
	for it := 1; it <= sc.cfg.budget; it++ {
		if err := sc.ctx.Err(); err != nil {
			return nil, err
		}
		i := rng.Intn(n)
		j := rng.Intn(n - 1)
		if j >= i {
			j++
		}
		order[i], order[j] = order[j], order[i]
		cand, err := sc.eval(order)
		if err != nil {
			return nil, err
		}
		delta := cand.Cost - curCost
		if delta <= 0 || (temp > 0 && rng.Float64() < math.Exp(-delta/temp)) {
			cur, curCost = cand, cand.Cost
			mAnnealAccepted.Inc()
			if curCost < bestCost {
				best, bestCost = cand, curCost
			}
		} else {
			order[i], order[j] = order[j], order[i]
		}
		temp *= cool
		sc.stats.Iterations = it
		mAnnealIters.Inc()
		if sc.cfg.progress != nil {
			sc.cfg.progress(Progress{
				Iteration: it, Budget: sc.cfg.budget,
				Best: bestCost, Current: curCost,
			})
		}
	}
	_ = cur
	return best, nil
}

// eval builds and scores one plan from a module order: pareto'd leaf
// shapes → balanced slicing tree → combined shape lists → the
// cheapest root realization under the configured objective.
func (sc *searcher) eval(order []*mod) (*Plan, error) {
	sc.stats.Evals++
	leaves := make([]*node, len(order))
	for i, m := range order {
		n := &node{leaf: m}
		for si, s := range m.shapes {
			n.combos = append(n.combos, combo{w: s.W, h: s.H, shapeIdx: si})
		}
		n.combos = pareto(n.combos)
		leaves[i] = n
	}
	root := buildTree(leaves)
	combineAll(root)
	if len(root.combos) == 0 {
		return nil, fmt.Errorf("%w: no feasible shape combination", ErrPlan)
	}
	mkPlan := func(idx int) *Plan {
		plan := &Plan{Chip: sc.chip, byName: map[string]*Placed{}}
		plan.Width = root.combos[idx].w
		plan.Height = root.combos[idx].h
		realize(root, idx, 0, 0, plan)
		plan.WireLength = wireLength(sc.nets, plan)
		return plan
	}
	if sc.cfg.wireWeight <= 0 && sc.cfg.congestWeight <= 0 {
		// Pure minimum area: one realization (first strictly-smaller
		// index wins ties).
		best := 0
		for i, c := range root.combos {
			if c.w*c.h < root.combos[best].w*root.combos[best].h {
				best = i
			}
		}
		plan := mkPlan(best)
		plan.Cost = plan.Area()
		return plan, nil
	}
	// Weighted objective: realize every Pareto root shape and score
	// each.  The √area factor keeps area and wire length commensurable
	// across chip sizes; the congestion factor scales the whole
	// geometric cost so routability trades against silicon directly.
	var best *Plan
	bestScore := math.Inf(1)
	for i := range root.combos {
		p := mkPlan(i)
		if err := sc.score(p); err != nil {
			return nil, err
		}
		if p.Cost < bestScore {
			best, bestScore = p, p.Cost
		}
	}
	return best, nil
}

// score computes a realized plan's objective value, filling Cost and
// Routability.
func (sc *searcher) score(p *Plan) error {
	cost := p.Area()
	if sc.cfg.wireWeight > 0 {
		cost += sc.cfg.wireWeight * p.WireLength * math.Sqrt(p.Area())
	}
	if sc.cfg.congestWeight > 0 {
		r, err := sc.routability(p)
		if err != nil {
			return err
		}
		p.Routability = r
		cost *= 1 + sc.cfg.congestWeight*r
	}
	p.Cost = cost
	return nil
}

// routability sums each Plan-backed module's channel overflow risk at
// its chosen row count, weighted by the module's global-net pin count
// (the channels a global net crosses belong to the modules it pins).
// Memoized per (module, rows): the anneal revisits the same row
// choices constantly, and the engine's congestion answer for a pair
// never changes.
func (sc *searcher) routability(p *Plan) (float64, error) {
	total := 0.0
	for _, b := range p.Blocks {
		m := sc.byName[b.Name]
		if m == nil || m.plan == nil || m.pins == 0 || b.Rows < 1 {
			continue
		}
		k := routKey{name: b.Name, rows: b.Rows}
		sc.stats.RoutLookups++
		mRoutLookups.Inc()
		risk, ok := sc.rout[k]
		if ok {
			sc.stats.RoutMemoHits++
			mRoutMemoHits.Inc()
		} else {
			cm, err := m.plan.Congestion(sc.ctx, engine.WithRows(b.Rows))
			if err != nil {
				return 0, err
			}
			for _, ch := range cm.Channels {
				risk += ch.POverflow
			}
			sc.rout[k] = risk
		}
		total += float64(m.pins) * risk
	}
	return total, nil
}

// fillCongestion records the winning plan's per-channel overflow risk
// for every Plan-backed module — the detail clients of the job API
// read off the final answer.  The engine memoizes per (rows, knobs),
// so these lookups are hits when congestion scoring already ran.
func (sc *searcher) fillCongestion(p *Plan) error {
	for _, b := range p.Blocks {
		m := sc.byName[b.Name]
		if m == nil || m.plan == nil || b.Rows < 1 {
			continue
		}
		cm, err := m.plan.Congestion(sc.ctx, engine.WithRows(b.Rows))
		if err != nil {
			return err
		}
		mc := ModuleCongest{Module: b.Name, Rows: b.Rows}
		for _, ch := range cm.Channels {
			mc.Channels = append(mc.Channels, ChannelRisk{Index: ch.Index, POverflow: ch.POverflow})
			mc.POverflowSum += ch.POverflow
		}
		p.Congestion = append(p.Congestion, mc)
	}
	return nil
}
