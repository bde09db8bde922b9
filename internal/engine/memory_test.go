package engine

import (
	"context"
	"runtime"
	"testing"

	"maest/internal/gen"
	"maest/internal/tech"
)

// keptBytes returns the live heap that run leaves behind while pl stays
// reachable: the heap after a collection, minus the heap before run.
func keptBytes(pl *Plan, run func()) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC() // and the pools' victim caches
	runtime.ReadMemStats(&before)
	run()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(pl)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// congestionKept compiles cfg's module and returns the heap its plan
// keeps after Plan.Congestion at each of rows.
func congestionKept(t *testing.T, cfg gen.RandomConfig, rows func(*Plan) []int) int64 {
	t.Helper()
	p := tech.NMOS25()
	c, err := gen.RandomCircuit(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Compile(c, p)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rs := rows(pl)
	return keptBytes(pl, func() {
		for _, r := range rs {
			if _, err := pl.Congestion(ctx, WithRows(r)); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// A congestion answer keeps its scores, not its distributions.  On a
// loadbench-shaped 800-gate module, congestion at every row count
// Plan.Candidates offers keeps about 11.7 KB in the plan, held under a
// 32 KiB ceiling; when the plan kept the distributions it was 309 KB.
func TestCongestionKeepsScoresOnly(t *testing.T) {
	const ceiling = 32 << 10
	kept := congestionKept(t, gen.RandomConfig{
		Name: "kept", Gates: 800, Inputs: 6, Outputs: 5, Locality: 0.6, Seed: 38,
	}, func(pl *Plan) []int {
		shapes, err := pl.Candidates(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var rows []int
		for _, s := range shapes {
			rows = append(rows, s.Rows)
		}
		if len(rows) < 4 {
			t.Fatalf("%d candidate row counts", len(rows))
		}
		return rows
	})
	t.Logf("congestion over every candidate row count keeps %d bytes", kept)
	if kept > ceiling {
		t.Fatalf("plan keeps %d bytes after congestion, ceiling %d", kept, ceiling)
	}
}

// The same on the 3,000-gate module of `maest-gen -kind rand -gates
// 3000 -inputs 40 -outputs 20 -seed 3` at rows = 500, which finishes in
// about a second on 2 vCPUs.  The answer keeps about 78 KB, held under
// a 256 KiB ceiling; with its distributions it kept 6.4 MB.
func TestCongestionKeepsScoresOnly3000Gates(t *testing.T) {
	if testing.Short() {
		t.Skip("3,000-gate congestion analysis")
	}
	const ceiling = 256 << 10
	kept := congestionKept(t, gen.RandomConfig{
		Name: "rand", Gates: 3000, Inputs: 40, Outputs: 20, Seed: 3,
	}, func(*Plan) []int { return []int{500} })
	t.Logf("congestion at rows = 500 keeps %d bytes", kept)
	if kept > ceiling {
		t.Fatalf("plan keeps %d bytes after congestion, ceiling %d", kept, ceiling)
	}
}
