package floorplan

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"maest/internal/gen"
)

// planDigest is TestPlanModulesDigest's expected value.  It was
// computed before the search core became incremental (fixed tree,
// subtree memo, plan-free scoring) and must never change: a search
// rewrite that moves it changed some answer.
const planDigest = "7c80bd02345898037f056f6b05302172eb24844d56a265ed84438d445c820a6c"

// tieChip is a fixed-shape chip whose sides are multiples of 10 λ, so
// equal widths, heights and areas are common and every sort tie-break
// in the search shows up in the answer.
func tieChip(seed int64) ([]PlanModule, []Net) {
	rng := rand.New(rand.NewSource(seed))
	mods := make([]PlanModule, 2+rng.Intn(11))
	for i := range mods {
		shapes := make([]Shape, 1+rng.Intn(4))
		for s := range shapes {
			shapes[s] = Shape{W: float64(10 * (1 + rng.Intn(8))), H: float64(10 * (1 + rng.Intn(8))), Rows: rng.Intn(6)}
		}
		mods[i] = PlanModule{Name: fmt.Sprintf("t%d", i), Shapes: shapes}
	}
	nets := make([]Net, len(mods)+rng.Intn(2*len(mods)))
	for i := range nets {
		a := rng.Intn(len(mods))
		b := (a + 1 + rng.Intn(len(mods)-1)) % len(mods)
		nets[i] = Net{Name: fmt.Sprintf("w%d", i), Pins: []NetPin{
			{Module: mods[a].Name, Port: "o"}, {Module: mods[b].Name, Port: "i"},
		}}
	}
	return mods, nets
}

// TestPlanModulesDigest is the search core's determinism proof: one
// SHA-256 over the canonical text and search statistics of 672 plans —
// estimator chips of 2–9 modules and tie-heavy fixed-shape chips of
// 2–12 modules, each under four objective weightings, greedy and
// annealed.
func TestPlanModulesDigest(t *testing.T) {
	weights := [][2]float64{{1, 0.5}, {0, 0}, {0, 1}, {1, 0}}
	h := sha256.New()
	n := 0
	add := func(chip string, mods []PlanModule, nets []Net, seed int64, budgets ...int) {
		for _, w := range weights {
			for _, budget := range budgets {
				plan, err := PlanModules(context.Background(), chip, mods, nets,
					WithCongestWeight(w[0]), WithWireWeight(w[1]), WithBudget(budget), WithSeed(seed))
				if err != nil {
					t.Fatalf("%s cw=%g ww=%g budget=%d: %v", chip, w[0], w[1], budget, err)
				}
				var buf bytes.Buffer
				if err := WritePlanText(&buf, plan); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(buf.Bytes())
				h.Write(sum[:])
				io.WriteString(h, fmt.Sprintf("%+v\n", plan.Stats))
				n++
			}
		}
	}
	for modules := 2; modules <= 9; modules++ {
		for k := 0; k < 3; k++ {
			seed := int64(100*modules + k)
			mods, nets := estimatorChip(t, gen.ChipConfig{
				Name: fmt.Sprintf("digest%d_%d", modules, k), Modules: modules,
				MinGates: 20, MaxGates: 200, Seed: seed,
			})
			add(fmt.Sprintf("digest%d_%d", modules, k), mods, nets, seed, 0, 150)
		}
	}
	for k := 0; k < 60; k++ {
		mods, nets := tieChip(int64(k + 1))
		add(fmt.Sprintf("tie%d", k), mods, nets, int64(k+7), 0, 200)
	}
	if n != 672 {
		t.Fatalf("digest covered %d plans, want 672", n)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != planDigest {
		t.Fatalf("plan digest = %s, want %s", got, planDigest)
	}
}

// jobChip is one floorplan-jobs shaped input, as the load benchmark
// submits them: 4–8 modules of 20–200 gates.
type jobChip struct {
	mods []PlanModule
	nets []Net
}

func jobChips(tb testing.TB, count int) []jobChip {
	chips := make([]jobChip, count)
	for i := range chips {
		chips[i].mods, chips[i].nets = estimatorChip(tb, gen.ChipConfig{
			Name: fmt.Sprintf("job%d", i), Modules: 4 + i%5,
			MinGates: 20, MaxGates: 200, Seed: int64(7919 * (i + 1)),
		})
	}
	return chips
}

// jobMoves is a floorplan job's anneal budget.
const jobMoves = 500

// jobOptions are a floorplan job's annealer knobs.
func jobOptions(seed int64) []Option {
	return []Option{WithBudget(jobMoves), WithCongestWeight(1), WithWireWeight(0.5), WithSeed(seed)}
}

// BenchmarkPlanModulesJob runs floorplan jobs over 40 chips and
// reports the cost of one anneal move.
func BenchmarkPlanModulesJob(b *testing.B) {
	chips := jobChips(b, 40)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := chips[i%len(chips)]
		if _, err := PlanModules(ctx, "job", c.mods, c.nets, jobOptions(int64(i+1))...); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(jobMoves*b.N), "ns/move")
}

// TestPlanModulesAllocs gates the search's allocation count on one
// 8-module floorplan job.  The ceiling sits about 20% above the 2,364
// measured; an evaluation that realizes or recombines more than it
// must costs tens of thousands.
func TestPlanModulesAllocs(t *testing.T) {
	const ceiling = 2850
	mods, nets := estimatorChip(t, gen.ChipConfig{
		Name: "allocs", Modules: 8, MinGates: 20, MaxGates: 200, Seed: 7919 * 5,
	})
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := PlanModules(context.Background(), "allocs", mods, nets, jobOptions(1)...); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Fatalf("search made %.0f allocations, ceiling %d", allocs, ceiling)
	}
}

// TestSubtreeMemoBounded runs a long search on 9 modules and checks
// after every move that the subtree memo holds at most maxMemoCombos
// combos, and that the bound was reached and the memo cleared.
func TestSubtreeMemoBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	mods := make([]PlanModule, 9)
	for i := range mods {
		shapes := make([]Shape, 5)
		for s := range shapes {
			shapes[s] = Shape{W: 10 + 90*rng.Float64(), H: 10 + 90*rng.Float64()}
		}
		mods[i] = PlanModule{Name: fmt.Sprintf("m%d", i), Shapes: shapes}
	}
	ctx := context.Background()
	cfg := config{budget: 20000, seed: 3}
	ms, err := resolveModules(ctx, mods, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := newSearcher(ctx, "memo", ms, nil, cfg)
	last, clears := 0, 0
	sc.cfg.progress = func(Progress) {
		if sc.memoCombos > maxMemoCombos {
			t.Fatalf("memo holds %d combos, bound %d", sc.memoCombos, maxMemoCombos)
		}
		if sc.memoCombos < last {
			clears++
		}
		last = sc.memoCombos
	}
	if _, err := sc.search(clusterOrder(ms, nil)); err != nil {
		t.Fatal(err)
	}
	if clears == 0 {
		t.Fatalf("memo never reached its bound (%d combos at the end)", sc.memoCombos)
	}
}
