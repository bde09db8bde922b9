// Command maest-bench is the Table 1/2 accuracy gate: it reruns the
// paper's Table 1 and Table 2 experiments against the checked-in
// goldens (nmos25, layout-synthesis seed 1 — the values the goldens
// were rendered at) and emits the result as a schema-versioned
// BENCH_<label>.json snapshot.
//
// Usage:
//
//	maest-bench [-label local] [-o BENCH_local.json]
//	            [-golden testdata/golden]
//	            [-compare ref.json] [-tol 0.5]
//
// With -compare the fresh snapshot is diffed against a reference:
// accuracy drift beyond -tol percentage points (or a vanished module)
// exits 2, so CI can gate on it.  Performance is measured elsewhere,
// layer by layer against a real maest-serve, by `loadbench -trace 1`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"maest/internal/report"
	"maest/internal/tech"
)

// goldenSeed is the layout-synthesis seed the goldens were rendered
// at; any other seed only measures drift against a different layout.
const goldenSeed = 1

type options struct {
	label     string
	out       string
	goldenDir string
	compare   string
	tolPP     float64
}

func main() {
	var o options
	flag.StringVar(&o.label, "label", "local", "snapshot label (written into the file and its default name)")
	flag.StringVar(&o.out, "o", "", "output path (default BENCH_<label>.json)")
	flag.StringVar(&o.goldenDir, "golden", "testdata/golden", "directory holding the golden table1.txt/table2.txt")
	flag.StringVar(&o.compare, "compare", "", "reference BENCH_*.json to diff against; regressions exit 2")
	flag.Float64Var(&o.tolPP, "tol", 0.5, "allowed accuracy drift growth vs the reference, percentage points")
	flag.Parse()

	regressions, err := run(&o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "maest-bench:", err)
		os.Exit(1)
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "REGRESSION:", r)
		}
		os.Exit(2)
	}
}

// run builds the snapshot, writes it, and (with -compare) diffs it
// against the reference, returning the regression messages.
func run(o *options, w io.Writer) ([]string, error) {
	if o.out == "" {
		o.out = "BENCH_" + o.label + ".json"
	}

	snap := &report.BenchSnapshot{
		Schema:    report.BenchSchema,
		Label:     o.label,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
	}

	fmt.Fprintf(w, "maest-bench: accuracy vs %s goldens (seed %d)\n", o.goldenDir, goldenSeed)
	var err error
	snap.Accuracy, err = report.BuildAccuracy(o.goldenDir, tech.NMOS25(), goldenSeed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "maest-bench: %d module configs, max drift %.3fpp\n",
		len(snap.Accuracy.Modules), snap.Accuracy.MaxDriftPP)

	if err := report.WriteBenchSnapshot(o.out, snap); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "maest-bench: wrote %s\n", o.out)

	if o.compare == "" {
		return nil, nil
	}
	ref, err := report.ReadBenchSnapshot(o.compare)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	regressions := report.CompareBench(ref, snap, o.tolPP)
	if len(regressions) == 0 {
		fmt.Fprintf(w, "maest-bench: no regressions vs %s (tol %.2fpp)\n", o.compare, o.tolPP)
	}
	return regressions, nil
}
