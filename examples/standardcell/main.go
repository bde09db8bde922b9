// Standard-cell flow (the paper's Table 2 experiment on one module):
// estimate a cell-level module across several row counts, then place
// and route it for real at each row count and compare — including the
// §7 track-sharing extension that explains the overestimates.
package main

import (
	"context"
	"fmt"
	"log"

	"maest"
)

func main() {
	proc := maest.NMOS25()

	// A moderate random control block, the kind of module the paper
	// ran through TimberWolf.
	circ, err := maest.RandomCircuit(maest.RandomConfig{
		Name: "control", Gates: 80, Inputs: 8, Outputs: 6, Seed: 42,
	}, proc)
	if err != nil {
		log.Fatal(err)
	}
	// One compile serves all eight estimator questions below; each
	// (rows, sharing) variant is an incremental execution on the plan.
	ctx := context.Background()
	plan, err := maest.Compile(ctx, circ, proc)
	if err != nil {
		log.Fatal(err)
	}
	stats := plan.Stats()
	fmt.Printf("module %q: N=%d devices, H=%d nets, %d ports, W_avg=%.1f λ\n\n",
		circ.Name, stats.N, stats.H, stats.NumPorts, stats.AvgWidth())

	fmt.Println("rows  est λ²    shared λ²  real λ²   over%  shared-over%  tracks est/real")
	for _, rows := range []int{2, 3, 4, 5} {
		est, err := plan.EstimateStandardCell(ctx, maest.WithRows(rows))
		if err != nil {
			log.Fatal(err)
		}
		shared, err := plan.EstimateStandardCell(ctx,
			maest.WithRows(rows), maest.WithTrackSharing(true))
		if err != nil {
			log.Fatal(err)
		}
		real, err := maest.LayoutStandardCell(ctx, circ, proc, rows, 1)
		if err != nil {
			log.Fatal(err)
		}
		tracksReal := 0
		for _, t := range real.ChannelTracks {
			tracksReal += t
		}
		fmt.Printf("%4d  %-8.0f  %-9.0f  %-8d  %+5.0f  %+12.0f  %d/%d\n",
			rows, est.Area, shared.Area, real.Area(),
			(est.Area/float64(real.Area())-1)*100,
			(shared.Area/float64(real.Area())-1)*100,
			est.Tracks, tracksReal)
	}
	fmt.Println("\nThe one-net-per-track assumption makes the plain estimate an upper")
	fmt.Println("bound (the paper saw +42%..+70%); modelling track sharing removes")
	fmt.Println("most of the gap, as §7 of the paper predicted.")
}
