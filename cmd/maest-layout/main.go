// Command maest-layout produces ground-truth module layouts: it
// places and routes a standard-cell circuit (the TimberWolf stand-in)
// or synthesizes a full-custom transistor layout (the manual-layout
// stand-in), and reports the measured geometry next to the
// estimator's prediction.
//
// Usage:
//
//	maest-layout [-proc nmos25] [-rows N] [-seed S] circuit.mnet
//	maest-layout -fc [-proc nmos25] [-seed S] transistor-circuit.mnet
//	maest-layout -trace out.jsonl -metrics -pprof out.cpu circuit.mnet
//
// The observability flags match maest: -trace streams JSONL spans
// (place/route children under the layout span) and prints the
// summary tree to stderr, -metrics dumps the annealing and routing
// metrics, -pprof CPU-profiles the run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"maest"
	"maest/internal/obs"
)

// options carries the parsed flag values into run.
type options struct {
	proc    string
	rows    int
	seed    int64
	fc      bool
	cifOut  string
	svgOut  string
	trace   string
	metrics bool
	pprof   string
}

func main() {
	var o options
	flag.StringVar(&o.proc, "proc", "nmos25", "process: builtin name or @file")
	flag.IntVar(&o.rows, "rows", 2, "standard-cell row count")
	flag.Int64Var(&o.seed, "seed", 1, "layout engine seed")
	flag.BoolVar(&o.fc, "fc", false, "synthesize a full-custom layout (transistor-level input)")
	flag.StringVar(&o.cifOut, "cif", "", "also write the detailed layout geometry as CIF to this file")
	flag.StringVar(&o.svgOut, "svg", "", "also render the detailed layout geometry as SVG to this file")
	flag.StringVar(&o.trace, "trace", "", "write a JSONL span trace to this file ('-' = stdout) and a summary tree to stderr")
	flag.BoolVar(&o.metrics, "metrics", false, "dump pipeline metrics (Prometheus text format) to stderr on exit")
	flag.StringVar(&o.pprof, "pprof", "", "write a CPU profile to this file (and a heap snapshot to FILE.heap)")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "maest-layout:", err)
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
	if len(args) != 1 {
		return fmt.Errorf("expected exactly one input file")
	}
	f, err := os.Open(args[0])
	if err != nil {
		return err
	}
	defer f.Close()
	circ, err := maest.ParseMnet(ctx, f)
	if err != nil {
		return err
	}

	// The estimate side goes through a compiled plan — the same
	// statistics serve whichever methodology is being laid out.
	plan, err := maest.Compile(ctx, circ, proc)
	if err != nil {
		return err
	}

	if o.fc {
		m, err := maest.SynthesizeFullCustom(ctx, circ, proc, o.seed)
		if err != nil {
			return err
		}
		est, err := plan.EstimateFullCustom(ctx, maest.WithFCMode(maest.FCExactAreas))
		if err != nil {
			return err
		}
		fmt.Printf("full-custom layout of %s: %d × %d λ = %d λ² (rows=%d, aspect %.2f)\n",
			m.Name, m.Width, m.Height, m.Area(), m.Rows, m.AspectRatio())
		fmt.Printf("estimator (exact areas): %.0f λ²  (error %+.1f%%)\n",
			est.Area, (est.Area/float64(m.Area())-1)*100)
		return nil
	}

	m, err := maest.LayoutStandardCell(ctx, circ, proc, o.rows, o.seed)
	if err != nil {
		return err
	}
	est, err := plan.EstimateStandardCell(ctx, maest.WithRows(o.rows))
	if err != nil {
		return err
	}
	tracks := 0
	for _, t := range m.ChannelTracks {
		tracks += t
	}
	fmt.Printf("standard-cell layout of %s: %d × %d λ = %d λ² (rows=%d, tracks=%d, feed-throughs=%d, aspect %.2f)\n",
		m.Name, m.Width, m.Height, m.Area(), m.Rows, tracks, m.FeedThroughs, m.AspectRatio())
	fmt.Printf("estimator: %.0f λ², %d tracks  (overestimate %+.1f%%)\n",
		est.Area, est.Tracks, (est.Area/float64(m.Area())-1)*100)
	if o.cifOut != "" || o.svgOut != "" {
		pl, err := maest.PlaceCircuit(ctx, circ, proc, maest.PlaceOptions{Rows: o.rows, Seed: o.seed})
		if err != nil {
			return err
		}
		det, err := maest.DetailRoutePlacement(pl)
		if err != nil {
			return err
		}
		g, err := maest.BuildGeometry(pl, det, proc)
		if err != nil {
			return err
		}
		if o.cifOut != "" {
			if err := writeTo(o.cifOut, func(w *os.File) error { return maest.WriteCIF(w, g, proc) }); err != nil {
				return err
			}
			fmt.Printf("wrote detailed CIF geometry (%d rects) to %s\n", len(g.Rects), o.cifOut)
		}
		if o.svgOut != "" {
			if err := writeTo(o.svgOut, func(w *os.File) error { return maest.WriteSVG(w, g, 0) }); err != nil {
				return err
			}
			fmt.Printf("rendered layout SVG to %s\n", o.svgOut)
		}
	}
	return nil
}

func writeTo(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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
