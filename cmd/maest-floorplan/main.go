// Command maest-floorplan floor-plans an estimate database produced
// by maest (or a generated random chip), and runs the §7
// iteration-reduction experiment comparing estimator-driven and
// naive-guess floor planning.
//
// Usage:
//
//	maest-floorplan estimates.db            # plan a database
//	maest-floorplan -generate -modules 6    # generate, estimate, plan
//	maest-floorplan -generate -anneal -congest-weight 1 -modules 6
//	                                        # Plan-driven annealer
//	maest-floorplan -experiment -modules 6  # iteration experiment
//	maest-floorplan -trace out.jsonl -metrics -generate -modules 6
//
// With -anneal the planner runs the routability-aware path: modules
// compile once into engine Plans held in the same content-addressed
// plan cache maest-serve uses, shape candidates come from
// Plan.Candidates, and the annealer's cost folds in the per-channel
// overflow probabilities weighted by -congest-weight.
//
// The observability flags match maest: -trace streams JSONL spans
// (per-module estimate spans under the chip span, then the
// floorplan.anneal span) and prints the summary tree to stderr,
// -metrics dumps the pipeline metrics, -pprof CPU-profiles the run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"maest/internal/db"
	"maest/internal/engine"
	"maest/internal/floorplan"
	"maest/internal/gen"
	"maest/internal/netlist"
	"maest/internal/obs"
	"maest/internal/report"
	"maest/internal/serve"
	"maest/internal/tech"
)

// options carries the parsed flag values into run.
type options struct {
	proc       string
	generate   bool
	experiment bool
	anneal     bool
	budget     int
	congestW   float64
	wireW      float64
	candidates int
	modules    int
	seed       int64
	svgOut     string
	trace      string
	metrics    bool
	pprof      string
}

func main() {
	var o options
	flag.StringVar(&o.proc, "proc", "nmos25", "builtin process name")
	flag.BoolVar(&o.generate, "generate", false, "generate a random chip instead of reading a database")
	flag.BoolVar(&o.experiment, "experiment", false, "run the floorplan-iteration experiment (E10)")
	flag.BoolVar(&o.anneal, "anneal", false, "run the Plan-driven annealer (requires -generate)")
	flag.IntVar(&o.budget, "budget", floorplan.DefaultBudget, "anneal move budget (<= 0 = greedy)")
	flag.Float64Var(&o.congestW, "congest-weight", 1, "routability weight in the anneal cost")
	flag.Float64Var(&o.wireW, "wire-weight", 0.5, "wire-length weight in the anneal cost")
	flag.IntVar(&o.candidates, "candidates", floorplan.DefaultCandidates, "shape candidates per module")
	flag.IntVar(&o.modules, "modules", 6, "module count for generated chips")
	flag.Int64Var(&o.seed, "seed", 1, "generation and layout seed")
	flag.StringVar(&o.svgOut, "svg", "", "render the floor plan as SVG to this file")
	flag.StringVar(&o.trace, "trace", "", "write a JSONL span trace to this file ('-' = stdout) and a summary tree to stderr")
	flag.BoolVar(&o.metrics, "metrics", false, "dump pipeline metrics (Prometheus text format) to stderr on exit")
	flag.StringVar(&o.pprof, "pprof", "", "write a CPU profile to this file (and a heap snapshot to FILE.heap)")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "maest-floorplan:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) (err error) {
	cli, ctx, err := obs.SetupCLI(context.Background(), o.trace, o.metrics, o.pprof)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := cli.Close(os.Stderr); err == nil {
			err = cerr
		}
	}()

	p, err := tech.Lookup(o.proc)
	if err != nil {
		return err
	}
	if o.experiment {
		return runExperiment(p, o.modules, o.seed)
	}
	if o.anneal {
		if !o.generate {
			return fmt.Errorf("-anneal plans generated chips; pass -generate")
		}
		return runAnneal(ctx, p, o)
	}
	var d *db.Database
	if o.generate {
		d, err = generateDB(ctx, p, o.modules, o.seed)
	} else {
		d, err = readDB(args)
	}
	if err != nil {
		return err
	}
	// A database is planned as fixed-shape modules by the greedy
	// slicing pass; -anneal is the search over compiled plans.
	mods, nets := floorplan.FromDB(d)
	plan, err := floorplan.PlanModules(ctx, d.Chip, mods, nets, floorplan.WithBudget(0))
	if err != nil {
		return err
	}
	fmt.Printf("chip %s: %.0f × %.0f λ = %.0f λ²  (utilization %.1f%%, wire length %.0f λ)\n",
		plan.Chip, plan.Width, plan.Height, plan.Area(), plan.Utilization()*100, plan.WireLength)
	for _, b := range plan.Blocks {
		fmt.Printf("  %-16s at (%6.0f,%6.0f)  %6.0f × %-6.0f shape #%d\n",
			b.Name, b.X, b.Y, b.W, b.H, b.ShapeIndex)
	}
	if len(nets) > 0 {
		gr, err := floorplan.GlobalRoute(nets, plan, p, 8)
		if err != nil {
			return err
		}
		fmt.Printf("global routing: %.0f λ of wire, %.0f λ² wiring area, worst bin congestion %.2f\n",
			gr.WireLength, gr.WiringArea, gr.MaxCongestion)
	}
	if o.svgOut != "" {
		f, err := os.Create(o.svgOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := floorplan.WriteSVG(f, plan, 1); err != nil {
			return err
		}
		fmt.Printf("rendered floor plan SVG to %s\n", o.svgOut)
	}
	return nil
}

// runAnneal floor-plans a generated chip on the Plan-driven path: one
// engine.Compile per module, memoized in the shared plan cache, then
// the simulated-annealing search over Plan.Candidates shapes with the
// congestion-scored cost.
func runAnneal(ctx context.Context, p *tech.Process, o options) error {
	chip, err := gen.RandomChip(gen.ChipConfig{
		Name: "random", Modules: o.modules, MinGates: 20, MaxGates: 80, Seed: o.seed,
	}, p)
	if err != nil {
		return err
	}
	// The same content-addressed plan cache maest-serve keeps: repeat
	// modules (and repeat runs inside one process) compile once.
	plans := serve.NewPlanCache(1024)
	mods := make([]floorplan.PlanModule, len(chip.Modules))
	for i, c := range chip.Modules {
		k, _ := engine.Canonicalize(nil, c, p)
		key := serve.Key(k.Hash())
		pl, ok := plans.Get(key)
		if !ok {
			pl, err = engine.CompileCanon(ctx, &k)
			if err != nil {
				return err
			}
			plans.Put(key, pl)
		}
		mods[i] = floorplan.PlanModule{Name: c.Name, Plan: pl}
	}
	nets := make([]floorplan.Net, len(chip.GlobalNets))
	for i, gn := range chip.GlobalNets {
		pins := make([]floorplan.NetPin, len(gn.Pins))
		for j, pin := range gn.Pins {
			pins[j] = floorplan.NetPin{Module: pin.Module, Port: pin.Port}
		}
		nets[i] = floorplan.Net{Name: gn.Name, Pins: pins}
	}
	plan, err := floorplan.PlanModules(ctx, chip.Name, mods, nets,
		floorplan.WithBudget(o.budget),
		floorplan.WithSeed(o.seed),
		floorplan.WithCongestWeight(o.congestW),
		floorplan.WithWireWeight(o.wireW),
		floorplan.WithCandidates(o.candidates))
	if err != nil {
		return err
	}
	fmt.Printf("chip %s: %.0f × %.0f λ = %.0f λ²  (utilization %.1f%%, wire length %.0f λ)\n",
		plan.Chip, plan.Width, plan.Height, plan.Area(), plan.Utilization()*100, plan.WireLength)
	fmt.Printf("anneal: %d moves, cost %.4g (routability %.4g), plan cache %d entries\n",
		plan.Stats.Iterations, plan.Cost, plan.Routability, plans.Len())
	for _, b := range plan.Blocks {
		fmt.Printf("  %-16s at (%6.0f,%6.0f)  %6.0f × %-6.0f shape #%d rows %d\n",
			b.Name, b.X, b.Y, b.W, b.H, b.ShapeIndex, b.Rows)
	}
	for _, mc := range plan.Congestion {
		fmt.Printf("  congest %-16s rows %-3d ΣP(overflow) %.4g over %d channels\n",
			mc.Module, mc.Rows, mc.POverflowSum, len(mc.Channels))
	}
	if o.svgOut != "" {
		f, err := os.Create(o.svgOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := floorplan.WriteSVG(f, plan, 1); err != nil {
			return err
		}
		fmt.Printf("rendered floor plan SVG to %s\n", o.svgOut)
	}
	return nil
}

func readDB(args []string) (*db.Database, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("expected one database file (or -generate)")
	}
	f, err := os.Open(args[0])
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return db.Read(f)
}

func generateDB(ctx context.Context, p *tech.Process, modules int, seed int64) (*db.Database, error) {
	chip, err := gen.RandomChip(gen.ChipConfig{
		Name: "random", Modules: modules, MinGates: 20, MaxGates: 80, Seed: seed,
	}, p)
	if err != nil {
		return nil, err
	}
	// Compile every module, then estimate the plans on the worker
	// pool: each module gets its own estimate span under one chip span,
	// and the pool exercises the utilization metrics.
	plans := make([]*engine.Plan, len(chip.Modules))
	for i, c := range chip.Modules {
		if plans[i], err = engine.CompileCtx(ctx, c, p); err != nil {
			return nil, err
		}
	}
	results, err := engine.EstimatePlans(ctx, plans, engine.WithTrackSharing(true))
	if err != nil {
		return nil, err
	}
	d := &db.Database{Chip: chip.Name}
	for _, res := range results {
		d.Modules = append(d.Modules, db.FromResult(res))
	}
	for _, gn := range chip.GlobalNets {
		rec := db.GlobalNet{Name: gn.Name}
		for _, pin := range gn.Pins {
			rec.Pins = append(rec.Pins, db.GlobalPin{Module: pin.Module, Port: pin.Port})
		}
		d.Nets = append(d.Nets, rec)
	}
	return d, nil
}

func runExperiment(p *tech.Process, modules int, seed int64) error {
	chip, err := gen.RandomChip(gen.ChipConfig{
		Name: "exp", Modules: modules, MinGates: 20, MaxGates: 60, Seed: seed,
	}, p)
	if err != nil {
		return err
	}
	// Sanity: the modules must be estimable.
	for _, c := range chip.Modules {
		if _, err := netlist.Gather(c, p); err != nil {
			return err
		}
	}
	fmt.Printf("floorplan iteration experiment: %d modules, seed %d (tolerance 25%%)\n", modules, seed)
	for _, src := range []struct {
		name string
		fn   report.ShapeSource
	}{
		{"estimator (this paper)", report.EstimatorShapes},
		{"naive active-area guess", report.NaiveShapes(1.0)},
	} {
		res, err := report.IterationExperiment(chip, p, src.fn, report.ExperimentOptions{Seed: seed})
		if err != nil {
			return err
		}
		status := "converged"
		if !res.Converged {
			status = "did NOT converge"
		}
		fmt.Printf("  %-24s %d iteration(s), misfit history %v, %s; final chip %.0f λ²\n",
			src.name, res.Iterations, res.Misfits, status, res.FinalPlan.Area())
	}
	return nil
}
