package engine

import (
	"context"
	"testing"

	"maest/internal/engine/distmemo"
	"maest/internal/gen"
	"maest/internal/netlist"
	"maest/internal/tech"
)

// deltaAllocCeiling is the allocation budget for deriving one child
// plan from a single pin-rewire edit on the 160-gate benchmark module.
// The clone arenas, inherited canonical orders, and cached process
// blob hold the measured figure around 45 objects; the ceiling leaves
// headroom for normal churn while catching a regression back toward
// the naive clone-and-recompile cost (several hundred objects).
const deltaAllocCeiling = 96

// benchEcoModule builds the module the delta benchmarks edit: a
// 160-gate generated standard-cell circuit.
func benchEcoModule(b *testing.B, p *tech.Process) *netlist.Circuit {
	b.Helper()
	c, err := gen.RandomCircuit(gen.RandomConfig{
		Name: "bench_eco", Gates: 160, Inputs: 5, Outputs: 4, Seed: 21,
	}, p)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// toggleEdit alternates connecting and disconnecting one pin on a
// scratch net, so a chain of deltas stays bounded while every step
// still dirties a net and re-runs the §3 statistics patch.
func toggleEdit(dev string, step int) Edit {
	if step%2 == 0 {
		return ConnectPin(dev, "eco_hot")
	}
	return DisconnectPin(dev, "eco_hot")
}

// BenchmarkDeltaSingleEdit pins the cost of Plan.Delta itself for one
// pin-rewire edit: circuit clone, mutation, statistics patch, and the
// canonical re-hash with inherited sort orders.  This is the fixed
// overhead every incremental re-estimate pays before any distribution
// work, so it is held to an explicit allocation ceiling.
func BenchmarkDeltaSingleEdit(b *testing.B) {
	p := tech.NMOS25()
	c := benchEcoModule(b, p)
	pl, err := Compile(c, p)
	if err != nil {
		b.Fatal(err)
	}
	dev := c.Devices[0].Name
	cur := pl
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		np, err := cur.Delta(toggleEdit(dev, i))
		if err != nil {
			b.Fatal(err)
		}
		cur = np
	}
	b.StopTimer()
	step := 0
	if allocs := testing.AllocsPerRun(100, func() {
		np, err := cur.Delta(toggleEdit(dev, step))
		if err != nil {
			b.Fatal(err)
		}
		cur = np
		step++
	}); allocs > deltaAllocCeiling {
		b.Fatalf("Delta allocates %.0f objects per edit, ceiling %d", allocs, deltaAllocCeiling)
	}
}

// BenchmarkDeltaReEstimate times the full incremental re-estimate op —
// Delta plus the child's Eq. 12 standard-cell estimate and Eq. 2–11
// congestion analysis — with the distribution memo warm, exactly the
// per-edit work an incremental caller pays.  verify.sh gates the ECO
// speedup on its ns/op against BenchmarkFullReEstimate's.
func BenchmarkDeltaReEstimate(b *testing.B) {
	p := tech.NMOS25()
	c := benchEcoModule(b, p)
	ctx := context.Background()
	pl, err := Compile(c, p)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := pl.EstimateStandardCell(ctx); err != nil {
		b.Fatal(err)
	}
	if _, err := pl.Congestion(ctx); err != nil {
		b.Fatal(err)
	}
	dev := c.Devices[0].Name
	cur := pl
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		np, err := cur.Delta(toggleEdit(dev, i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := np.EstimateStandardCell(ctx); err != nil {
			b.Fatal(err)
		}
		if _, err := np.Congestion(ctx); err != nil {
			b.Fatal(err)
		}
		cur = np
	}
}

// BenchmarkFullReEstimate times the same op down the from-scratch
// route — ApplyEdits, Compile, estimate, congestion, memo purged per
// step like a cold process.  verify.sh requires its ns/op to be at
// least 5x BenchmarkDeltaReEstimate's: the ECO gate, a ratio that
// holds across machines even though the raw timings do not.
func BenchmarkFullReEstimate(b *testing.B) {
	p := tech.NMOS25()
	c := benchEcoModule(b, p)
	ctx := context.Background()
	dev := c.Devices[0].Name
	cur := c
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		distmemo.Purge()
		next, err := ApplyEdits(cur, toggleEdit(dev, i))
		if err != nil {
			b.Fatal(err)
		}
		pl, err := Compile(next, p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pl.EstimateStandardCell(ctx); err != nil {
			b.Fatal(err)
		}
		if _, err := pl.Congestion(ctx); err != nil {
			b.Fatal(err)
		}
		cur = next
	}
}
