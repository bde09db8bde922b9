// Benchmarks regenerating every table, figure, and numeric claim of
// the paper's evaluation (see DESIGN.md §4 for the experiment index).
// Each benchmark both times the artifact's regeneration and reports
// the reproduced quantities as custom metrics, so `go test -bench=.`
// doubles as the reproduction harness.  EXPERIMENTS.md records the
// paper-vs-measured comparison.
package maest_test

import (
	"context"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"maest"
	"maest/internal/baseline"
	"maest/internal/core"
	"maest/internal/gen"
	"maest/internal/metrics"
	"maest/internal/netlist"
	"maest/internal/pla"
	"maest/internal/prob"
	"maest/internal/report"
	"maest/internal/route"
	"maest/internal/tech"
)

// E1 — Table 1: Full-Custom module area estimates vs. synthesized
// ground-truth layouts, both device-area modes.
func BenchmarkTable1FullCustom(b *testing.B) {
	p := tech.NMOS25()
	var rows []report.FCRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = report.RunTable1(p, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	mean, lo, hi := 0.0, rows[0].ErrExact, rows[0].ErrExact
	for _, r := range rows {
		mean += math.Abs(r.ErrExact)
		lo = math.Min(lo, r.ErrExact)
		hi = math.Max(hi, r.ErrExact)
	}
	b.ReportMetric(mean/float64(len(rows))*100, "mean|err|%")
	b.ReportMetric(lo*100, "minErr%")
	b.ReportMetric(hi*100, "maxErr%")
}

// E2 — Table 2: Standard-Cell estimates vs. placed-and-routed
// layouts across the paper's row-count configurations.
func BenchmarkTable2StandardCell(b *testing.B) {
	p := tech.NMOS25()
	var rows []report.SCRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = report.RunTable2(p, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	lo, hi := rows[0].Overestimate, rows[0].Overestimate
	shared := 0.0
	for _, r := range rows {
		lo = math.Min(lo, r.Overestimate)
		hi = math.Max(hi, r.Overestimate)
		shared += r.SharedOverest
	}
	b.ReportMetric(lo*100, "minOver%")
	b.ReportMetric(hi*100, "maxOver%")
	b.ReportMetric(shared/float64(len(rows))*100, "sharedMeanOver%")
}

// E3 — Fig. 1: the end-to-end estimator pipeline (HDL + process in,
// both estimates out).
func BenchmarkFigure1Pipeline(b *testing.B) {
	const mnet = `
module demo
port in a
port in b
port out y
device g1 NAND2 a b n1
device g2 INV n1 n2
device g3 NOR2 n1 b n3
device g4 NAND2 n2 n3 y
end
`
	p := maest.NMOS25()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := maest.ParseMnet(strings.NewReader(mnet))
		if err != nil {
			b.Fatal(err)
		}
		pl, err := maest.Compile(c, p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pl.Estimate(ctx, maest.WithRows(2)); err != nil {
			b.Fatal(err)
		}
	}
}

// E4 — §4.1 claim: the central row maximizes the feed-through
// probability for every (n, D); verified analytically and by Monte
// Carlo, as the paper's "numerical simulation results".
func BenchmarkCentralRowClaim(b *testing.B) {
	violations := 0
	for i := 0; i < b.N; i++ {
		violations = 0
		for n := 2; n <= 15; n++ {
			for D := 2; D <= 10; D++ {
				row, err := prob.ArgmaxFeedThroughRow(n, D)
				if err != nil {
					b.Fatal(err)
				}
				pBest, _ := prob.FeedThroughProb(n, D, row)
				pCentral, _ := prob.FeedThroughProb(n, D, prob.CentralRow(n))
				if pBest-pCentral > 1e-12 {
					violations++
				}
			}
		}
	}
	b.ReportMetric(float64(violations), "violations")
}

// E5 — Eq. 9 claim: P_feed-through(central) → 0.5 as n → ∞.
func BenchmarkEq9Limit(b *testing.B) {
	var p6 float64
	for i := 0; i < b.N; i++ {
		for _, n := range []int{2, 10, 100, 10_000, 1_000_000} {
			p, err := prob.CentralFeedThroughProb(n)
			if err != nil {
				b.Fatal(err)
			}
			if n == 1_000_000 {
				p6 = p
			}
		}
	}
	b.ReportMetric(p6, "P(n=1e6)")
	b.ReportMetric(0.5-p6, "gapToHalf")
}

// E6 — Eqs. 2–3: expected rows spanned E(i) against Monte Carlo
// simulation of the placement model.
func BenchmarkRowSpanExpectation(b *testing.B) {
	rng := rand.New(rand.NewSource(1988))
	worst := 0.0
	for i := 0; i < b.N; i++ {
		worst = 0
		for _, c := range []struct{ n, d int }{{3, 2}, {5, 3}, {8, 5}, {6, 12}} {
			analytic, err := prob.ExpectedRowSpan(c.n, c.d)
			if err != nil {
				b.Fatal(err)
			}
			sim, err := prob.SimulateRowSpan(rng, c.n, c.d, 50_000)
			if err != nil {
				b.Fatal(err)
			}
			worst = math.Max(worst, math.Abs(sim-analytic))
		}
	}
	b.ReportMetric(worst, "worstAbsGap")
}

// E7 — Eqs. 10–11: the feed-through count expectation E(M).
func BenchmarkFeedThroughCount(b *testing.B) {
	var em float64
	for i := 0; i < b.N; i++ {
		p, err := prob.CentralFeedThroughProb(5)
		if err != nil {
			b.Fatal(err)
		}
		em, err = prob.ExpectedFeedThroughs(200, p)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(em, "E(M)|H=200,n=5")
}

// E8a — §6 CPU-time claim: the Full-Custom estimator ran in under
// 1.5 s per module on a Sun 3/50; time the whole five-module suite.
func BenchmarkEstimatorCPUTimeFullCustom(b *testing.B) {
	p := tech.NMOS25()
	suite, err := gen.FullCustomSuite(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range suite {
			if _, err := maest.EstimateFullCustom(c, p, maest.FCExactAreas); err != nil {
				b.Fatal(err)
			}
			if _, err := maest.EstimateFullCustom(c, p, maest.FCAverageAreas); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// E8b — §6 CPU-time claim: the Standard-Cell estimator ran in under
// 3 s per module; time both suite modules including candidate shapes.
func BenchmarkEstimatorCPUTimeStandardCell(b *testing.B) {
	p := tech.NMOS25()
	suite, err := gen.StandardCellSuite(p)
	if err != nil {
		b.Fatal(err)
	}
	var stats []*netlist.Stats
	for _, c := range suite {
		s, err := netlist.Gather(c, p)
		if err != nil {
			b.Fatal(err)
		}
		stats = append(stats, s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range stats {
			if _, err := core.EstimateStandardCellCandidates(s, p, core.SCOptions{}, 5); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// E9 — §7 ablation: one-net-per-track (paper assumption 3) vs. the
// track-sharing extension, measured against a real routed layout.
func BenchmarkTrackSharingAblation(b *testing.B) {
	p := tech.NMOS25()
	c, err := gen.RandomCircuit(gen.RandomConfig{
		Name: "ablate", Gates: 100, Inputs: 8, Outputs: 6, Seed: 9,
	}, p)
	if err != nil {
		b.Fatal(err)
	}
	s, err := netlist.Gather(c, p)
	if err != nil {
		b.Fatal(err)
	}
	real, err := maest.LayoutStandardCell(c, p, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	var plain, shared *core.SCEstimate
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plain, err = core.EstimateStandardCell(s, p, core.SCOptions{Rows: 4})
		if err != nil {
			b.Fatal(err)
		}
		shared, err = core.EstimateStandardCell(s, p, core.SCOptions{Rows: 4, TrackSharing: true})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric((plain.Area/float64(real.Area())-1)*100, "plainOver%")
	b.ReportMetric((shared.Area/float64(real.Area())-1)*100, "sharedOver%")
}

// E10 — §1/§7 claim: better estimates reduce floor-planning
// iterations (estimator vs. naive active-area guess).
func BenchmarkFloorplanIterations(b *testing.B) {
	p := tech.NMOS25()
	chip, err := gen.RandomChip(gen.ChipConfig{
		Name: "iter", Modules: 4, MinGates: 20, MaxGates: 60, Seed: 3,
	}, p)
	if err != nil {
		b.Fatal(err)
	}
	var est, naive *report.ExperimentResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est, err = report.IterationExperiment(chip, p, report.EstimatorShapes, report.ExperimentOptions{Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		naive, err = report.IterationExperiment(chip, p, report.NaiveShapes(1.0), report.ExperimentOptions{Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(est.Iterations), "estimatorIters")
	b.ReportMetric(float64(naive.Iterations), "naiveIters")
}

// E11 — §2 baselines: the PLEST-style density-calibrated estimator
// (which needs finished layouts) and the Gerveshi PLA linear model.
func BenchmarkBaselines(b *testing.B) {
	p := tech.NMOS25()
	suite, err := gen.StandardCellSuite(p)
	if err != nil {
		b.Fatal(err)
	}
	s, err := netlist.Gather(suite[1], p)
	if err != nil {
		b.Fatal(err)
	}
	var r2 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model, err := baseline.CalibratePLEST(suite[:1], p, 2, 1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := model.Estimate(s, 4); err != nil {
			b.Fatal(err)
		}
		// Gerveshi linearity fit on PLA shapes.
		rng := rand.New(rand.NewSource(4))
		var xs [][]float64
		var ys []float64
		for k := 0; k < 60; k++ {
			q := baseline.PLA{Inputs: 2 + rng.Intn(12), Outputs: 1 + rng.Intn(8), Terms: 4 + rng.Intn(40)}
			a, err := q.Area(p)
			if err != nil {
				b.Fatal(err)
			}
			xs = append(xs, []float64{float64(q.Functions()), float64(q.Devices())})
			ys = append(ys, a)
		}
		if _, r2, err = baseline.FitLinear(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r2, "plaLinearR2")
}

// E12 — §5: aspect-ratio estimation under increasing port pressure;
// the paper says most estimates fall between 1:1 and 1:2.
func BenchmarkAspectRatio(b *testing.B) {
	p := tech.NMOS25()
	inBand := 0
	total := 0
	for i := 0; i < b.N; i++ {
		inBand, total = 0, 0
		for _, gates := range []int{30, 60, 120} {
			for _, ports := range []int{4, 8, 16} {
				c, err := gen.RandomCircuit(gen.RandomConfig{
					Name: "ar", Gates: gates, Inputs: ports, Outputs: ports, Seed: int64(gates + ports),
				}, p)
				if err != nil {
					b.Fatal(err)
				}
				s, err := netlist.Gather(c, p)
				if err != nil {
					b.Fatal(err)
				}
				est, err := core.EstimateStandardCell(s, p, core.SCOptions{})
				if err != nil {
					b.Fatal(err)
				}
				ar := est.AspectRatio
				if ar > 1 {
					ar = 1 / ar
				}
				total++
				if ar >= 0.5 {
					inBand++ // within 1:1 .. 1:2
				}
			}
		}
	}
	b.ReportMetric(float64(inBand)/float64(total)*100, "within1to2Band%")
}

// E13 — detailed channel routing (VCG + jogs) over the Table-2-scale
// module: validates and reports track inflation over the density
// bound.
func BenchmarkDetailedRouting(b *testing.B) {
	p := tech.NMOS25()
	c, err := gen.RandomCircuit(gen.RandomConfig{
		Name: "det", Gates: 100, Inputs: 8, Outputs: 6, Seed: 1,
	}, p)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := maest.PlaceCircuitCtx(context.Background(), c, p, maest.PlaceOptions{Rows: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	coarse, err := route.RouteModule(pl, route.Options{TrackSharing: true})
	if err != nil {
		b.Fatal(err)
	}
	var det *maest.DetailedRouting
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det, err = maest.DetailRoutePlacement(pl)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := det.Validate(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(det.TotalTracks), "detailTracks")
	b.ReportMetric(float64(coarse.TotalTracks), "densityBound")
	b.ReportMetric(float64(det.TotalDoglegs), "jogs")
}

// E14 — Gerveshi linearity on real PLA netlists: the Full-Custom
// estimator's area per device stays nearly constant as PLAs grow.
func BenchmarkPLALinearity(b *testing.B) {
	p := tech.NMOS25()
	var lo, hi float64
	for i := 0; i < b.N; i++ {
		lo, hi = 1e18, 0
		for _, cfg := range []struct{ in, out, terms int }{
			{3, 2, 5}, {6, 4, 12}, {10, 6, 26}, {12, 8, 36},
		} {
			q, err := pla.Random(cfg.in, cfg.out, cfg.terms, 0.45, 7)
			if err != nil {
				b.Fatal(err)
			}
			circ, err := q.Circuit("pla", p)
			if err != nil {
				b.Fatal(err)
			}
			est, err := maest.EstimateFullCustom(circ, p, maest.FCExactAreas)
			if err != nil {
				b.Fatal(err)
			}
			r := est.Area / float64(q.Devices())
			lo = math.Min(lo, r)
			hi = math.Max(hi, r)
		}
	}
	b.ReportMetric(hi/lo, "areaPerDeviceSpread")
}

// E15 — interconnect-complexity context: the Rent exponents of the
// workloads the sweeps run on.
func BenchmarkRentExponents(b *testing.B) {
	p := tech.NMOS25()
	chain, err := gen.Chain("ch", 64, p)
	if err != nil {
		b.Fatal(err)
	}
	logic, err := gen.RandomCircuit(gen.RandomConfig{
		Name: "r", Gates: 200, Inputs: 8, Outputs: 6, Seed: 5,
	}, p)
	if err != nil {
		b.Fatal(err)
	}
	var rc, rl *metrics.RentResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rc, err = maest.RentExponent(chain)
		if err != nil {
			b.Fatal(err)
		}
		rl, err = maest.RentExponent(logic)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rc.Exponent, "chainRent")
	b.ReportMetric(rl.Exponent, "logicRent")
}

// E16 — feed-through model ablation: the paper's central-row
// two-component bound (Eqs. 9–11) vs. the full per-row Eq. 4/5
// profile, on both a 2-pin-net workload (bound dominates) and a
// high-fanout workload (bound under-counts).
func BenchmarkFeedThroughProfileAblation(b *testing.B) {
	p := tech.NMOS25()
	chain, err := gen.Chain("ch", 60, p)
	if err != nil {
		b.Fatal(err)
	}
	sChain, err := netlist.Gather(chain, p)
	if err != nil {
		b.Fatal(err)
	}
	fan, err := gen.RandomCircuit(gen.RandomConfig{
		Name: "fan", Gates: 60, Inputs: 6, Outputs: 4, Seed: 2, Locality: 0.15,
	}, p)
	if err != nil {
		b.Fatal(err)
	}
	sFan, err := netlist.Gather(fan, p)
	if err != nil {
		b.Fatal(err)
	}
	var chainRatio, fanRatio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cse := range []struct {
			s     *netlist.Stats
			ratio *float64
		}{{sChain, &chainRatio}, {sFan, &fanRatio}} {
			prof, err := core.FeedThroughRowProfile(cse.s, 5)
			if err != nil {
				b.Fatal(err)
			}
			if prof.Central > 0 {
				*cse.ratio = prof.Max() / prof.Central
			}
		}
	}
	b.ReportMetric(chainRatio, "profile/central(2pin)")
	b.ReportMetric(fanRatio, "profile/central(fanout)")
}

// E17 — observability overhead: a cold compile + estimate with
// tracing disabled must match the untraced seed (the nil-sink fast
// path adds no allocations), and the JSONL-traced run bounds the
// enabled cost.
func BenchmarkEstimateObservabilityOff(b *testing.B) {
	p := tech.NMOS25()
	c, err := gen.RandomCircuit(gen.RandomConfig{
		Name: "obs", Gates: 60, Inputs: 6, Outputs: 4, Seed: 11,
	}, p)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl, err := maest.CompileCtx(ctx, c, p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pl.Estimate(ctx, maest.WithRows(4)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimateObservabilityOn(b *testing.B) {
	p := tech.NMOS25()
	c, err := gen.RandomCircuit(gen.RandomConfig{
		Name: "obs", Gates: 60, Inputs: 6, Outputs: 4, Seed: 11,
	}, p)
	if err != nil {
		b.Fatal(err)
	}
	ctx := maest.WithTraceSink(context.Background(), maest.NewJSONLTraceSink(io.Discard))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl, err := maest.CompileCtx(ctx, c, p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pl.Estimate(ctx, maest.WithRows(4)); err != nil {
			b.Fatal(err)
		}
	}
}
