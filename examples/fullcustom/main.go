// Full-custom flow (the paper's Table 1 experiment on one module):
// build a transistor-level circuit, estimate its area with exact and
// average device areas, then synthesize an actual layout and compare
// — reproducing the "estimate vs. manually created layout" protocol.
package main

import (
	"context"
	"fmt"
	"log"

	"maest"
)

func main() {
	proc := maest.NMOS25()

	// A 1-bit full adder at gate level, lowered to transistors the
	// way the paper's Full-Custom methodology lays out individual
	// devices.
	b := maest.NewCircuitBuilder("fulladder")
	b.AddDevice("x1", "XOR2", "a", "b", "axb")
	b.AddDevice("x2", "XOR2", "axb", "cin", "sum")
	b.AddDevice("n1", "NAND2", "a", "b", "t1")
	b.AddDevice("n2", "NAND2", "cin", "axb", "t2")
	b.AddDevice("n3", "NAND2", "t1", "t2", "cout")
	for _, in := range []string{"a", "b", "cin"} {
		b.AddPort(in, maest.In, in)
	}
	b.AddPort("sum", maest.Out, "sum")
	b.AddPort("cout", maest.Out, "cout")
	gates, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	xtors, err := maest.ExpandTransistors(gates, proc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d gates -> %d transistors\n",
		gates.Name, gates.NumDevices(), xtors.NumDevices())

	// One compile covers both device-area modes (the two Table 1
	// column groups): the transistor statistics are gathered once.
	ctx := context.Background()
	plan, err := maest.Compile(ctx, xtors, proc)
	if err != nil {
		log.Fatal(err)
	}
	for _, mode := range []maest.FCMode{maest.FCExactAreas, maest.FCAverageAreas} {
		est, err := plan.EstimateFullCustom(ctx, maest.WithFCMode(mode))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("estimate (%s areas): device %.0f + wire %.0f = %.0f λ², aspect %.2f\n",
			est.Mode, est.DeviceArea, est.WireArea, est.Area, est.AspectRatio)
	}

	// Ground truth: synthesize the layout (the manual-layout
	// stand-in) and measure it.
	real, err := maest.SynthesizeFullCustom(ctx, xtors, proc, 1)
	if err != nil {
		log.Fatal(err)
	}
	est, err := plan.EstimateFullCustom(ctx, maest.WithFCMode(maest.FCExactAreas))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synthesized layout:  %d × %d λ = %d λ² (%d transistor rows)\n",
		real.Width, real.Height, real.Area(), real.Rows)
	fmt.Printf("estimation error: %+.1f%% (paper reports -17%%..+26%% on its five modules)\n",
		(est.Area/float64(real.Area())-1)*100)
}
