// Floorplanning flow (the paper's Fig. 1 output path): estimate every
// module of a multi-module chip, write the estimate database the
// floor planner consumes, and produce a slicing floor plan that picks
// one candidate shape per module.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"maest"
)

func main() {
	ctx := context.Background()
	proc := maest.NMOS25()

	chip, err := maest.RandomChip(maest.ChipConfig{
		Name: "demo_chip", Modules: 6, MinGates: 25, MaxGates: 90, Seed: 7,
	}, proc)
	if err != nil {
		log.Fatal(err)
	}

	// Compile every module once, then estimate the plans concurrently
	// (Fig. 1) and collect the records.
	plans := make([]*maest.Plan, len(chip.Modules))
	for i, mod := range chip.Modules {
		if plans[i], err = maest.Compile(ctx, mod, proc); err != nil {
			log.Fatal(err)
		}
	}
	results, err := maest.EstimatePlans(ctx, plans, maest.WithTrackSharing(true))
	if err != nil {
		log.Fatal(err)
	}
	d := &maest.EstimateDB{Chip: chip.Name}
	for _, res := range results {
		d.Modules = append(d.Modules, maest.ModuleRecordFromResult(res))
	}
	for _, gn := range chip.GlobalNets {
		rec := maest.GlobalNet{Name: gn.Name}
		for _, pin := range gn.Pins {
			rec.Pins = append(rec.Pins, maest.GlobalPin{Module: pin.Module, Port: pin.Port})
		}
		d.Nets = append(d.Nets, rec)
	}

	// The database is a text artifact two tools can exchange.
	var buf bytes.Buffer
	if err := maest.WriteEstimateDB(&buf, d); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("estimate database: %d modules, %d global nets, %d bytes\n",
		len(d.Modules), len(d.Nets), buf.Len())

	// The records become fixed-shape planner modules; the greedy
	// slicing pass (no annealing) picks one shape per module.
	mods, nets := maest.FloorplanInputs(d)
	plan, err := maest.PlanModules(ctx, d.Chip, mods, nets, maest.WithBudget(0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("floor plan: %.0f × %.0f λ = %.0f λ², utilization %.1f%%, wire %.0f λ\n\n",
		plan.Width, plan.Height, plan.Area(), plan.Utilization()*100, plan.WireLength)
	for _, b := range plan.Blocks {
		shape := d.ModuleByName(b.Name).Shapes[b.ShapeIndex]
		fmt.Printf("  %-14s (%6.0f,%6.0f)  %5.0f × %-5.0f  using %s\n",
			b.Name, b.X, b.Y, b.W, b.H, shape.Label)
	}

	// Chip-level wiring demand: the global interconnections the Fig. 1
	// database carries are routed over a coarse congestion grid.
	gr, err := maest.GlobalRoute(nets, plan, proc, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nglobal routing: %.0f λ of wire (%.0f λ² wiring area), worst congestion %.2f\n",
		gr.WireLength, gr.WiringArea, gr.MaxCongestion)

	var svg bytes.Buffer
	if err := maest.WritePlanSVG(&svg, plan, 1); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan renders to %d bytes of SVG (maest.WritePlanSVG)\n", svg.Len())
}
