package engine

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"maest/internal/congest"
	"maest/internal/core"
	"maest/internal/engine/distmemo"
	"maest/internal/gen"
	"maest/internal/tech"
)

// TestPlanConcurrentHammer shares one compiled plan across many
// goroutines mixing every execute method at overlapping knobs — the
// serving layer's steady state, where /v1/estimate, /v1/congestion,
// and the batch pool all hold the same cached plan.  Run under
// -race (CI does) this pins the Plan's concurrency contract; the
// result comparisons pin that racing duplicate computations are
// idempotent.
func TestPlanConcurrentHammer(t *testing.T) {
	p := tech.NMOS25()
	c, err := gen.RandomCircuit(gen.RandomConfig{
		Name: "hammer", Gates: 40, Inputs: 5, Outputs: 4, Seed: 9,
	}, p)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Compile(c, p)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Reference answers, computed single-threaded on a second plan of
	// the same circuit.
	ref, err := Compile(c, p)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := ref.Estimate(ctx, WithRows(3))
	if err != nil {
		t.Fatal(err)
	}
	wantMap, err := ref.Congestion(ctx, WithRows(3))
	if err != nil {
		t.Fatal(err)
	}

	const workers = 16
	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (w + i) % 5 {
				case 0:
					res, err := pl.Estimate(ctx, WithRows(3))
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(res, wantRes) {
						t.Error("concurrent Estimate diverged from sequential result")
						return
					}
				case 1:
					m, err := pl.Congestion(ctx, WithRows(3))
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(m, wantMap) {
						t.Error("concurrent Congestion diverged from sequential result")
						return
					}
				case 2:
					if _, err := pl.EstimateFullCustom(ctx); err != nil {
						errs <- err
						return
					}
				case 3:
					if _, err := pl.Candidates(ctx, WithRows(3), WithCandidates(5)); err != nil {
						errs <- err
						return
					}
				case 4:
					if _, err := pl.Congestion(ctx, WithRows(3), WithGridded(false), WithCapacity(40+i%3)); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestDeltaConcurrentHammer extends the hammer to the ECO loop's
// steady state: many goroutines building Delta children off one
// shared parent, executing them, recompiling the same circuits from
// scratch, and purging the process-wide distribution memo mid-flight.
// Under -race this pins the shared memo's concurrency contract; the
// result comparisons pin that a purge (or a racing duplicate store)
// can change only where numbers come from, never what they are.
func TestDeltaConcurrentHammer(t *testing.T) {
	p := tech.NMOS25()
	c, err := gen.RandomCircuit(gen.RandomConfig{
		Name: "ecohammer", Gates: 30, Inputs: 5, Outputs: 4, Seed: 11,
	}, p)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Compile(c, p)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	d0 := c.Devices[0].Name
	d1 := c.Devices[1].Name
	scripts := [][]Edit{
		{ConnectPin(d0, "hz_a"), ConnectPin(d1, "hz_a")},
		{AddCell("hz_g1", "INV", "hz_b", "hz_c"), ConnectPin(d0, "hz_b")},
		{RemoveCell(d1)},
		{AddNet("hz_n", d0, d1)},
		{ResizeRows(4)},
		{ConnectPin(d1, "hz_c"), ResizeRows(3)},
	}

	// Reference answers, computed sequentially via the recompile route.
	refRes := make([]*core.Result, len(scripts))
	refMap := make([]*congest.Map, len(scripts))
	for i, script := range scripts {
		edited, err := ApplyEdits(c, script...)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Compile(edited, p)
		if err != nil {
			t.Fatal(err)
		}
		var opts []Option
		if rows := scriptRows(script); rows > 0 {
			opts = append(opts, WithRows(rows))
		}
		if refRes[i], err = ref.Estimate(ctx, opts...); err != nil {
			t.Fatal(err)
		}
		if refMap[i], err = ref.Congestion(ctx, opts...); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 16
	const iters = 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				idx := (w + i) % len(scripts)
				switch (w + i) % 5 {
				case 0, 1:
					child, err := pl.Delta(scripts[idx]...)
					if err != nil {
						errs <- err
						return
					}
					res, err := child.Estimate(ctx)
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(res, refRes[idx]) {
						t.Error("concurrent Delta estimate diverged from sequential recompile")
						return
					}
					m, err := child.Congestion(ctx)
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(m, refMap[idx]) {
						t.Error("concurrent Delta congestion diverged from sequential recompile")
						return
					}
				case 2:
					edited, err := ApplyEdits(c, scripts[idx]...)
					if err != nil {
						errs <- err
						return
					}
					if _, err := Compile(edited, p); err != nil {
						errs <- err
						return
					}
				case 3:
					if _, err := pl.Estimate(ctx); err != nil {
						errs <- err
						return
					}
					if _, err := pl.Congestion(ctx, WithRows(3)); err != nil {
						errs <- err
						return
					}
				case 4:
					if (w+i)%15 == 4 {
						distmemo.Purge()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
