// Command maest is the module area estimator CLI — the Fig. 1
// pipeline: a circuit schematic (.mnet or .bench) plus a fabrication
// process database in, module area and aspect-ratio estimates out,
// optionally as a floor-planner database record.
//
// Usage:
//
//	maest [-proc nmos25|cmos30|@file] [-rows N] [-sharing] [-db] circuit.mnet
//	maest -bench -name c17 circuit.bench
//	maest -congest [-model occupancy|crossing] [-grid] circuit.mnet
//	maest -trace out.jsonl -metrics -pprof out.cpu circuit.mnet
//
// With no positional argument the circuit is read from stdin.
//
// -congest renders the module's congestion map (per-channel demand
// vs. capacity, overflow probabilities, feed-through pressure, ranked
// hotspots) instead of the area estimate; combined with -db it
// attaches the map's summary to the database record.  -grid selects
// the gridded full-custom variant.
//
// The observability flags: -trace streams a JSONL span trace to the
// file ("-" = stdout) and prints the span summary tree to stderr;
// -metrics dumps the Prometheus-style metrics to stderr; -pprof
// writes a CPU profile to the file and a heap snapshot to FILE.heap.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"maest"
	"maest/internal/obs"
)

// options carries the parsed flag values into run.
type options struct {
	proc    string
	rows    int
	sharing bool
	bench   bool
	verilog bool
	name    string
	asDB    bool
	stats   bool
	congest bool
	model   string
	grid    bool
	trace   string
	metrics bool
	pprof   string
}

func main() {
	var o options
	flag.StringVar(&o.proc, "proc", "nmos25", "process: builtin name or @file to load a process database")
	flag.IntVar(&o.rows, "rows", 0, "fix the standard-cell row count (0 = automatic §5 selection)")
	flag.BoolVar(&o.sharing, "sharing", false, "enable the §7 routing-track-sharing extension")
	flag.BoolVar(&o.bench, "bench", false, "input is ISCAS-style .bench instead of .mnet")
	flag.BoolVar(&o.verilog, "verilog", false, "input is structural gate-level Verilog instead of .mnet")
	flag.StringVar(&o.name, "name", "module", "module name for .bench inputs")
	flag.BoolVar(&o.asDB, "db", false, "emit a floor-planner database record instead of text")
	flag.BoolVar(&o.stats, "stats", false, "also print interconnect-complexity statistics")
	flag.BoolVar(&o.congest, "congest", false, "render the congestion map instead of the area estimate (with -db: attach its summary to the record)")
	flag.StringVar(&o.model, "model", "", "congestion demand model: occupancy (default) or crossing")
	flag.BoolVar(&o.grid, "grid", false, "analyze congestion on the gridded full-custom model (-rows fixes the grid rows, 0 = ⌈√N⌉)")
	flag.StringVar(&o.trace, "trace", "", "write a JSONL span trace to this file ('-' = stdout) and a summary tree to stderr")
	flag.BoolVar(&o.metrics, "metrics", false, "dump pipeline metrics (Prometheus text format) to stderr on exit")
	flag.StringVar(&o.pprof, "pprof", "", "write a CPU profile to this file (and a heap snapshot to FILE.heap)")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "maest:", err)
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

	proc, err := loadProcess(o.proc)
	if err != nil {
		return err
	}
	in, closer, err := openInput(args)
	if err != nil {
		return err
	}
	defer closer()

	var circ *maest.Circuit
	switch {
	case o.bench && o.verilog:
		return fmt.Errorf("-bench and -verilog are mutually exclusive")
	case o.bench:
		circ, err = maest.ParseBench(ctx, in, o.name, proc)
	case o.verilog:
		circ, err = maest.ParseVerilog(ctx, in, proc)
	default:
		circ, err = maest.ParseMnet(ctx, in)
	}
	if err != nil {
		return err
	}
	// One compile serves every question asked about the circuit: the
	// -congest -db combination runs both a congestion analysis and the
	// full estimate against the same plan, sharing the gathered
	// statistics and degree classes.
	pl, err := maest.Compile(ctx, circ, proc)
	if err != nil {
		return err
	}
	var cm *maest.CongestMap
	if o.congest {
		if cm, err = analyzeCongestion(ctx, o, pl); err != nil {
			return err
		}
		if !o.asDB {
			return cm.Render(os.Stdout)
		}
	}
	res, err := pl.Estimate(ctx, maest.WithRows(o.rows), maest.WithTrackSharing(o.sharing))
	if err != nil {
		return err
	}
	if o.asDB {
		rec := maest.ModuleRecordFromResult(res)
		if cm != nil {
			rec.Congestion = cm.DBSummary()
		}
		d := &maest.EstimateDB{Chip: res.Module, Modules: []maest.ModuleRecord{rec}}
		return maest.WriteEstimateDB(os.Stdout, d)
	}
	printResult(res, proc)
	if o.stats {
		printStats(circ)
	}
	return nil
}

// analyzeCongestion runs the -congest analysis against the compiled
// plan: the standard-cell map at the fixed or §5-automatic row count,
// or the gridded full-custom variant under -grid.
func analyzeCongestion(ctx context.Context, o options, pl *maest.Plan) (*maest.CongestMap, error) {
	model, err := maest.ParseCongestModel(o.model)
	if err != nil {
		return nil, err
	}
	return pl.Congestion(ctx,
		maest.WithRows(o.rows), maest.WithGridded(o.grid), maest.WithCongestModel(model))
}

func printStats(circ *maest.Circuit) {
	deg := maest.CircuitDegrees(circ)
	fmt.Printf("interconnect: %d routable nets, mean degree %.2f, max degree %d, %d pins\n",
		deg.RoutableNets, deg.MeanDegree, deg.MaxDegree, deg.TotalPins)
	if rent, err := maest.RentExponent(circ); err == nil {
		fmt.Printf("Rent's rule: P = %.2f·B^%.2f  (log-log R² %.2f)\n",
			rent.Coefficient, rent.Exponent, rent.R2)
	}
}

func loadProcess(spec string) (*maest.Process, error) {
	if file, ok := strings.CutPrefix(spec, "@"); ok {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return maest.ReadProcess(f)
	}
	return maest.LookupProcess(spec)
}

func openInput(args []string) (io.Reader, func(), error) {
	switch len(args) {
	case 0:
		return os.Stdin, func() {}, nil
	case 1:
		f, err := os.Open(args[0])
		if err != nil {
			return nil, nil, err
		}
		return f, func() { f.Close() }, nil
	default:
		return nil, nil, fmt.Errorf("expected at most one input file, got %d", len(args))
	}
}

func printResult(res *maest.Result, proc *maest.Process) {
	fmt.Printf("module %s  (process %s, λ = %.2f µm)\n",
		res.Module, proc.Name, float64(proc.LambdaNM)/1000)
	fmt.Printf("  devices %d   routable nets %d   ports %d\n",
		res.Stats.N, res.Stats.H, res.Stats.NumPorts)
	if res.SC != nil {
		sc := res.SC
		fmt.Printf("standard-cell (rows=%d, tracks=%d, feed-throughs=%d):\n",
			sc.Rows, sc.Tracks, sc.FeedThroughs)
		fmt.Printf("  %.0f × %.0f λ = %.0f λ²   aspect %.2f\n",
			sc.Width, sc.Height, sc.Area, sc.AspectRatio)
		if len(res.SCCandidates) > 0 {
			fmt.Println("  candidate shapes:")
			for _, c := range res.SCCandidates {
				fmt.Printf("    rows=%d  %.0f × %.0f λ  (%.0f λ², aspect %.2f)\n",
					c.Rows, c.Width, c.Height, c.Area, c.AspectRatio)
			}
		}
	}
	for _, fc := range []*maest.FCEstimate{res.FCExact, res.FCAverage} {
		if fc == nil {
			continue
		}
		fmt.Printf("full-custom (%s device areas):\n", fc.Mode)
		fmt.Printf("  device %.0f + wire %.0f = %.0f λ²   %.0f × %.0f λ   aspect %.2f\n",
			fc.DeviceArea, fc.WireArea, fc.Area, fc.Width, fc.Height, fc.AspectRatio)
	}
}
