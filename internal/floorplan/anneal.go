package floorplan

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
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
		m := &mod{idx: i, name: pm.Name, shapes: pm.Shapes}
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

// maxMemoCombos bounds the subtree memo: an insert that would take it
// past this many combos in total clears it first, which keeps one
// search's memo to a few MiB.
const maxMemoCombos = 1 << 16

// searcher carries one search's shared state.  The slicing-tree
// layout and every module's pruned leaf shapes are fixed for the whole
// search; only the module order at the leaves changes.  The subtree
// memo keeps each internal node's shape list per (node, ordered
// modules under it), so an anneal swap recombines only the nodes above
// the two swapped leaves, and a revisited order reuses the root's
// scored answer as well.  The routability memo answers per (module,
// rows) — row choice is what the anneal varies, so the engine is asked
// about each pair once.  slots and placed are the scratch every root
// shape is placed in to be scored; only the choice a search keeps
// becomes a Plan.
type searcher struct {
	ctx  context.Context
	chip string
	cfg  config

	byName  map[string]*mod
	netMods [][]int // per net, the module index of each pin

	tree       []span
	leaves     []*subtree // per module index
	memo       map[string]*subtree
	memoCombos int
	key        []byte  // memo key scratch
	cross      []combo // cross-product scratch

	rout   map[routKey]float64
	slots  []slot // per module index
	placed []*mod // the last placement's modules, in block order

	stats SearchStats
}

type routKey struct {
	mod  int
	rows int
}

// slot is one module's position in the placement scratch.
type slot struct {
	x, y, w, h float64
	shape      int
}

// choice is one eval's answer: the root shape list and the index of
// its cheapest shape, with that shape's objective terms.
type choice struct {
	root        *subtree
	idx         int
	cost        float64
	routability float64
}

// run is the search core: greedy clustering + slicing combination
// always, simulated annealing over the clustering order when the
// budget allows.
func run(ctx context.Context, chip string, ms []*mod, nets []Net, cfg config) (*Plan, error) {
	return newSearcher(ctx, chip, ms, nets, cfg).search(clusterOrder(ms, nets))
}

func newSearcher(ctx context.Context, chip string, ms []*mod, nets []Net, cfg config) *searcher {
	sc := &searcher{
		ctx:     ctx,
		chip:    chip,
		cfg:     cfg,
		byName:  make(map[string]*mod, len(ms)),
		netMods: make([][]int, len(nets)),
		tree:    treeLayout(len(ms)),
		leaves:  make([]*subtree, len(ms)),
		memo:    map[string]*subtree{},
		cross:   make([]combo, 0, 2*maxCombos*maxCombos),
		rout:    map[routKey]float64{},
		slots:   make([]slot, len(ms)),
		placed:  make([]*mod, 0, len(ms)),
	}
	for _, m := range ms {
		sc.byName[m.name] = m
		sc.leaves[m.idx] = &subtree{combos: leafCombos(m), mod: m}
	}
	for i, nt := range nets {
		for _, pin := range nt.Pins {
			sc.netMods[i] = append(sc.netMods[i], sc.byName[pin.Module].idx)
		}
	}
	return sc
}

// search evaluates the starting order, anneals it when the budget
// allows, and realizes the best choice.
func (sc *searcher) search(order []*mod) (*Plan, error) {
	defer func() {
		mRoutLookups.Add(int64(sc.stats.RoutLookups))
		mRoutMemoHits.Add(int64(sc.stats.RoutMemoHits))
	}()
	best, err := sc.eval(order)
	if err != nil {
		return nil, err
	}
	sc.stats.InitialCost = best.cost
	if sc.cfg.budget > 0 && len(order) > 1 {
		if best, err = sc.anneal(order, best); err != nil {
			return nil, err
		}
	}
	sc.stats.FinalCost = best.cost
	plan := sc.realize(best)
	plan.Stats = sc.stats
	if err := sc.fillCongestion(plan); err != nil {
		return nil, err
	}
	return plan, nil
}

// anneal perturbs the clustering order by pairwise swaps under
// Metropolis acceptance with geometric cooling.  Deterministic in the
// seed; cancellation is checked on every move.
func (sc *searcher) anneal(order []*mod, initial choice) (choice, error) {
	const (
		startTempFrac = 0.2  // initial temperature as a fraction of the initial cost
		endTempFrac   = 1e-4 // final temperature fraction: effectively greedy by the end
	)
	best := initial
	curCost := initial.cost
	rng := rand.New(rand.NewSource(sc.cfg.seed))
	temp := curCost * startTempFrac
	cool := math.Pow(endTempFrac/startTempFrac, 1/float64(sc.cfg.budget))
	n := len(order)
	for it := 1; it <= sc.cfg.budget; it++ {
		if err := sc.ctx.Err(); err != nil {
			return choice{}, err
		}
		i := rng.Intn(n)
		j := rng.Intn(n - 1)
		if j >= i {
			j++
		}
		order[i], order[j] = order[j], order[i]
		cand, err := sc.eval(order)
		if err != nil {
			return choice{}, err
		}
		delta := cand.cost - curCost
		if delta <= 0 || (temp > 0 && rng.Float64() < math.Exp(-delta/temp)) {
			curCost = cand.cost
			mAnnealAccepted.Inc()
			if curCost < best.cost {
				best = cand
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
				Best: best.cost, Current: curCost,
			})
		}
	}
	return best, nil
}

// eval scores one module order: the root's shape list, recombined only
// where the subtree memo has not seen this order, then its cheapest
// shape under the configured objective, scored once per memoized root.
func (sc *searcher) eval(order []*mod) (choice, error) {
	sc.stats.Evals++
	root := sc.subtree(len(sc.tree)-1, order)
	if root.scored {
		// Scoring it again would repeat the same routability lookups,
		// every one a memo hit by now, and reach the same answer.
		sc.stats.RoutLookups += root.lookups
		sc.stats.RoutMemoHits += root.lookups
		return root.best, nil
	}
	lookups := sc.stats.RoutLookups
	best, err := sc.score(root)
	if err != nil {
		return choice{}, err
	}
	root.scored, root.best, root.lookups = true, best, sc.stats.RoutLookups-lookups
	return best, nil
}

// score picks a root shape list's cheapest shape under the configured
// objective.
func (sc *searcher) score(root *subtree) (choice, error) {
	if len(root.combos) == 0 {
		return choice{}, fmt.Errorf("%w: no feasible shape combination", ErrPlan)
	}
	if sc.cfg.wireWeight <= 0 && sc.cfg.congestWeight <= 0 {
		// Pure minimum area (first strictly-smaller index wins ties).
		best := 0
		for i, c := range root.combos {
			if c.w*c.h < root.combos[best].w*root.combos[best].h {
				best = i
			}
		}
		c := root.combos[best]
		return choice{root: root, idx: best, cost: c.w * c.h}, nil
	}
	// Weighted objective: place every Pareto root shape and score
	// each.  The √area factor keeps area and wire length commensurable
	// across chip sizes; the congestion factor scales the whole
	// geometric cost so routability trades against silicon directly.
	best := choice{cost: math.Inf(1)}
	for i, c := range root.combos {
		sc.place(root, i)
		area := c.w * c.h
		cost := area
		if sc.cfg.wireWeight > 0 {
			cost += sc.cfg.wireWeight * sc.wireLength() * math.Sqrt(area)
		}
		r := 0.0
		if sc.cfg.congestWeight > 0 {
			var err error
			if r, err = sc.routability(); err != nil {
				return choice{}, err
			}
			cost *= 1 + sc.cfg.congestWeight*r
		}
		if cost < best.cost {
			best = choice{root: root, idx: i, cost: cost, routability: r}
		}
	}
	if best.root == nil {
		return choice{}, fmt.Errorf("%w: no root shape has a finite cost", ErrPlan)
	}
	return best, nil
}

// subtree returns tree node id's shape list with order's modules at
// its leaves.  An internal node comes from the memo when it has held
// the same modules in the same order before — exact, because combining
// and pruning are deterministic functions of the child lists —
// otherwise its children are resolved and combined, and the result is
// memoized.
func (sc *searcher) subtree(id int, order []*mod) *subtree {
	sp := sc.tree[id]
	if sp.left < 0 {
		return sc.leaves[order[sp.lo].idx]
	}
	sc.key = binary.AppendUvarint(sc.key[:0], uint64(id))
	for _, m := range order[sp.lo:sp.hi] {
		sc.key = binary.AppendUvarint(sc.key, uint64(m.idx))
	}
	if st, ok := sc.memo[string(sc.key)]; ok {
		return st
	}
	key := string(sc.key)
	l, r := sc.subtree(sp.left, order), sc.subtree(sp.right, order)
	st := &subtree{combos: sc.combine(l.combos, r.combos), left: l, right: r}
	if sc.memoCombos+len(st.combos) > maxMemoCombos {
		clear(sc.memo)
		sc.memoCombos = 0
	}
	sc.memo[key] = st
	sc.memoCombos += len(st.combos)
	return st
}

// combine crosses two child shape lists under both cuts and prunes the
// result.
func (sc *searcher) combine(l, r []combo) []combo {
	out := sc.cross[:0]
	for li, lc := range l {
		for ri, rc := range r {
			// Vertical cut: side by side.
			out = append(out, combo{
				w: lc.w + rc.w, h: math.Max(lc.h, rc.h),
				shapeIdx: -1, cut: 'v', li: uint8(li), ri: uint8(ri),
			})
			// Horizontal cut: stacked.
			out = append(out, combo{
				w: math.Max(lc.w, rc.w), h: lc.h + rc.h,
				shapeIdx: -1, cut: 'h', li: uint8(li), ri: uint8(ri),
			})
		}
	}
	sc.cross = out
	return slices.Clone(pareto(out))
}

// place walks root shape idx down to the leaves, writing each module's
// slot and the block order into the placement scratch.
func (sc *searcher) place(root *subtree, idx int) {
	sc.placed = sc.placed[:0]
	sc.placeAt(root, idx, 0, 0)
}

func (sc *searcher) placeAt(st *subtree, idx int, x, y float64) {
	c := st.combos[idx]
	if st.mod != nil {
		sc.slots[st.mod.idx] = slot{x: x, y: y, w: c.w, h: c.h, shape: int(c.shapeIdx)}
		sc.placed = append(sc.placed, st.mod)
		return
	}
	sc.placeAt(st.left, int(c.li), x, y)
	lc := st.left.combos[c.li]
	if c.cut == 'v' {
		sc.placeAt(st.right, int(c.ri), x+lc.w, y)
	} else {
		sc.placeAt(st.right, int(c.ri), x, y+lc.h)
	}
}

// wireLength is the half-perimeter length of the global nets over the
// placed block centres.
func (sc *searcher) wireLength() float64 {
	total := 0.0
	for _, pins := range sc.netMods {
		if len(pins) == 0 {
			continue
		}
		minX, maxX := math.Inf(1), math.Inf(-1)
		minY, maxY := math.Inf(1), math.Inf(-1)
		for _, mi := range pins {
			s := &sc.slots[mi]
			cx, cy := s.x+s.w/2, s.y+s.h/2
			minX, maxX = math.Min(minX, cx), math.Max(maxX, cx)
			minY, maxY = math.Min(minY, cy), math.Max(maxY, cy)
		}
		total += (maxX - minX) + (maxY - minY)
	}
	return total
}

// routability sums each placed Plan-backed module's channel overflow
// risk at its chosen row count, weighted by the module's global-net
// pin count (the channels a global net crosses belong to the modules
// it pins).  Memoized per (module, rows): the anneal revisits the same
// row choices constantly, and the engine's congestion answer for a
// pair never changes.
func (sc *searcher) routability() (float64, error) {
	total := 0.0
	for _, m := range sc.placed {
		rows := m.shapes[sc.slots[m.idx].shape].Rows
		if m.plan == nil || m.pins == 0 || rows < 1 {
			continue
		}
		k := routKey{mod: m.idx, rows: rows}
		sc.stats.RoutLookups++
		risk, ok := sc.rout[k]
		if ok {
			sc.stats.RoutMemoHits++
		} else {
			cm, err := m.plan.Congestion(sc.ctx, engine.WithRows(rows))
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

// realize builds the Plan of a choice.  Blocks is allocated at its
// final length before any block's address is taken, so BlockByName
// points into Blocks.
func (sc *searcher) realize(c choice) *Plan {
	sc.place(c.root, c.idx)
	rc := c.root.combos[c.idx]
	p := &Plan{
		Chip:        sc.chip,
		Width:       rc.w,
		Height:      rc.h,
		Blocks:      make([]Placed, len(sc.placed)),
		WireLength:  sc.wireLength(),
		Routability: c.routability,
		Cost:        c.cost,
		byName:      make(map[string]*Placed, len(sc.placed)),
	}
	for i, m := range sc.placed {
		s := sc.slots[m.idx]
		p.Blocks[i] = Placed{
			Name: m.name, X: s.x, Y: s.y, W: s.w, H: s.h,
			ShapeIndex: s.shape, Rows: m.shapes[s.shape].Rows,
		}
		p.byName[m.name] = &p.Blocks[i]
	}
	return p
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
