package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"maest/internal/core"
	"maest/internal/gen"
	"maest/internal/netlist"
	"maest/internal/obs"
	"maest/internal/tech"
)

// chipPlans compiles n deterministic random modules.
func chipPlans(t testing.TB, n int) []*Plan {
	t.Helper()
	p := tech.NMOS25()
	var out []*Plan
	for i := 0; i < n; i++ {
		c, err := gen.RandomCircuit(gen.RandomConfig{
			Name: fmt.Sprintf("m%d", i), Gates: 30 + i*5, Inputs: 4, Outputs: 3, Seed: int64(i + 1),
		}, p)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := Compile(c, p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, pl)
	}
	return out
}

// badPlan compiles a module whose estimate fails inside Plan.Estimate:
// the inverter g1 has an output pin but no input, which the gate-level
// statistics accept and the Full-Custom transistor expansion rejects.
func badPlan(t *testing.T, name string) *Plan {
	t.Helper()
	b := netlist.NewBuilder(name)
	b.AddDevice("g1", "INV", "a")
	b.AddDevice("g2", "INV", "a", "b")
	b.AddPort("pb", netlist.Out, "b")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Compile(c, tech.NMOS25())
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return pl
}

func TestEstimateChipMatchesSequential(t *testing.T) {
	plans := chipPlans(t, 6)
	par, err := EstimatePlans(context.Background(), plans, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(plans) {
		t.Fatalf("results = %d", len(par))
	}
	p := tech.NMOS25()
	for i, pl := range plans {
		// A fresh compile, so the comparison is not a memo hit on the
		// plan the pool just filled.
		fresh, err := Compile(pl.Circuit(), p)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := fresh.Estimate(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		name := pl.Circuit().Name
		if par[i].Module != name {
			t.Fatalf("result %d is for %q, want %q", i, par[i].Module, name)
		}
		if par[i].SC.Area != seq.SC.Area || par[i].FCExact.Area != seq.FCExact.Area {
			t.Fatalf("module %q: parallel and sequential estimates differ", name)
		}
	}
}

func TestEstimateChipWorkerClamping(t *testing.T) {
	plans := chipPlans(t, 2)
	for _, workers := range []int{-1, 0, 1, 16} {
		res, err := EstimatePlans(context.Background(), plans, WithWorkers(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res) != 2 {
			t.Fatalf("workers=%d: %d results", workers, len(res))
		}
	}
}

func TestEstimateChipErrors(t *testing.T) {
	if _, err := EstimatePlans(context.Background(), nil, WithWorkers(2)); !errors.Is(err, core.ErrEstimate) {
		t.Errorf("empty chip: err = %v, want ErrEstimate", err)
	}
	// One plan failing inside Plan.Estimate fails the whole chip.
	plans := append(chipPlans(t, 2), badPlan(t, "bad"))
	if _, err := EstimatePlans(context.Background(), plans, WithWorkers(4)); err == nil {
		t.Error("bad module accepted")
	}
}

func TestEstimateChipAggregatesAllErrors(t *testing.T) {
	// Every failing module must be named in the joined error, not
	// just the lowest-index one.
	plans := chipPlans(t, 2)
	plans = append(plans, badPlan(t, "badA"), badPlan(t, "badB"))
	_, err := EstimatePlans(context.Background(), plans, WithWorkers(4))
	if err == nil {
		t.Fatal("bad modules accepted")
	}
	for _, name := range []string{"badA", "badB"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("joined error missing module %q: %v", name, err)
		}
	}
	if !errors.Is(err, core.ErrEstimate) {
		t.Errorf("joined error lost ErrEstimate: %v", err)
	}
}

// cancelSink cancels a context after n "estimate" spans have
// completed — a deterministic way to cancel EstimatePlans mid-pool.
type cancelSink struct {
	mu     sync.Mutex
	after  int
	seen   int
	cancel context.CancelFunc
}

func (s *cancelSink) Record(d *obs.SpanData) {
	if d.Name != "estimate" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seen++
	if s.seen == s.after {
		s.cancel()
	}
}

// Cancellation mid-pool: unstarted plans are skipped and ctx.Err() is
// surfaced, not an aggregate of per-module failures.
func TestEstimateChipCancelledMidPool(t *testing.T) {
	plans := chipPlans(t, 16)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &cancelSink{after: 1, cancel: cancel}
	ctx = obs.WithSink(ctx, sink)

	// One worker: after the first plan's span ends the context is
	// cancelled, so the pool must skip (nearly) all remaining work.
	res, err := EstimatePlans(ctx, plans, WithWorkers(1))
	if res != nil {
		t.Fatal("cancelled chip estimate returned results")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	sink.mu.Lock()
	estimated := sink.seen
	sink.mu.Unlock()
	// The plan in flight at cancel time may complete; everything
	// queued behind it must not run.
	if estimated > 2 {
		t.Fatalf("%d modules estimated after cancellation, want ≤ 2", estimated)
	}
}

// A context cancelled before the call estimates nothing.
func TestEstimateChipCancelledUpFront(t *testing.T) {
	plans := chipPlans(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	count := &countSink{}
	if _, err := EstimatePlans(obs.WithSink(ctx, count), plans, WithWorkers(2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := count.estimates(); n != 0 {
		t.Fatalf("%d modules estimated under a dead context", n)
	}
}

// countSink counts completed "estimate" spans.
type countSink struct {
	mu sync.Mutex
	n  int
}

func (s *countSink) Record(d *obs.SpanData) {
	if d.Name != "estimate" {
		return
	}
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}

func (s *countSink) estimates() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Deadline expiry mid-pool surfaces DeadlineExceeded (the serving
// layer maps this to 504).
func TestEstimateChipDeadline(t *testing.T) {
	plans := chipPlans(t, 8)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	if _, err := EstimatePlans(ctx, plans, WithWorkers(2)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
