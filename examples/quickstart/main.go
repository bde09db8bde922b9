// Quickstart: estimate one module's area and aspect ratio under both
// layout methodologies, starting from an .mnet netlist string — the
// minimal end-to-end use of the public API.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"maest"
)

const netlist = `
module counter_slice
port in  d
port in  clk
port in  en
port out q
device ff1  DFF   d2 clk q
device g1   NAND2 q en n1
device g2   INV   n1 d1
device g3   XOR2  d1 d  d2
end
`

func main() {
	ctx := context.Background()
	proc := maest.NMOS25() // the paper's nMOS λ = 2.5 µm process

	circ, err := maest.ParseMnet(ctx, strings.NewReader(netlist))
	if err != nil {
		log.Fatal(err)
	}

	// Compile once, then execute: the plan holds the gathered
	// statistics, so every further question about this circuit
	// (estimates at other row counts, congestion maps) is incremental.
	plan, err := maest.Compile(ctx, circ, proc)
	if err != nil {
		log.Fatal(err)
	}

	res, err := plan.Estimate(ctx)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("module %q: %d devices, %d routable nets, %d ports\n",
		res.Module, res.Stats.N, res.Stats.H, res.Stats.NumPorts)

	sc := res.SC
	fmt.Printf("standard-cell: %.0f λ² (%.0f×%.0f, %d rows, %d tracks, aspect %.2f)\n",
		sc.Area, sc.Width, sc.Height, sc.Rows, sc.Tracks, sc.AspectRatio)

	fc := res.FCExact
	fmt.Printf("full-custom:   %.0f λ² (device %.0f + wire %.0f, aspect %.2f)\n",
		fc.Area, fc.DeviceArea, fc.WireArea, fc.AspectRatio)

	fmt.Println("\ncandidate standard-cell shapes for the floor planner:")
	for _, c := range res.SCCandidates {
		fmt.Printf("  rows=%d  %4.0f × %-4.0f λ   aspect %.2f\n",
			c.Rows, c.Width, c.Height, c.AspectRatio)
	}
}
