// Parameter sweep: how does estimation accuracy behave as modules
// grow and as net fan-out rises?  This is the kind of study §7 of the
// paper proposes ("additional experiments will be run ... on larger
// designs"), run here against the built-in ground-truth layout
// engine.
package main

import (
	"context"
	"fmt"
	"log"

	"maest"
)

func main() {
	ctx := context.Background()
	proc := maest.NMOS25()

	fmt.Println("sweep 1: module size (rows fixed by the §5 algorithm, sharing on)")
	fmt.Println("gates  N    H    rows  est λ²    real λ²   err%")
	for _, gates := range []int{20, 40, 80, 160, 320} {
		circ, err := maest.RandomCircuit(maest.RandomConfig{
			Name: fmt.Sprintf("m%d", gates), Gates: gates,
			Inputs: 6, Outputs: 5, Seed: int64(gates),
		}, proc)
		if err != nil {
			log.Fatal(err)
		}
		plan, err := maest.Compile(ctx, circ, proc)
		if err != nil {
			log.Fatal(err)
		}
		stats := plan.Stats()
		est, err := plan.EstimateStandardCell(ctx, maest.WithTrackSharing(true))
		if err != nil {
			log.Fatal(err)
		}
		real, err := maest.LayoutStandardCell(ctx, circ, proc, est.Rows, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%5d  %-3d  %-3d  %-4d  %-8.0f  %-8d  %+.0f\n",
			gates, stats.N, stats.H, est.Rows, est.Area, real.Area(),
			(est.Area/float64(real.Area())-1)*100)
	}

	fmt.Println("\nsweep 2: net locality (lower locality -> longer, higher-fanout nets)")
	fmt.Println("locality  maxD  est λ²    real λ²   err%")
	for _, loc := range []float64{0.9, 0.6, 0.3, 0.1} {
		circ, err := maest.RandomCircuit(maest.RandomConfig{
			Name: "loc", Gates: 100, Inputs: 6, Outputs: 5,
			Locality: loc, Seed: 11,
		}, proc)
		if err != nil {
			log.Fatal(err)
		}
		plan, err := maest.Compile(ctx, circ, proc)
		if err != nil {
			log.Fatal(err)
		}
		stats := plan.Stats()
		est, err := plan.EstimateStandardCell(ctx,
			maest.WithRows(4), maest.WithTrackSharing(true))
		if err != nil {
			log.Fatal(err)
		}
		real, err := maest.LayoutStandardCell(ctx, circ, proc, 4, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%8.1f  %-4d  %-8.0f  %-8d  %+.0f\n",
			loc, stats.MaxDegree, est.Area, real.Area(),
			(est.Area/float64(real.Area())-1)*100)
	}
}
