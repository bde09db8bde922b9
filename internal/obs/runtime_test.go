package obs

import (
	"math"
	"runtime/metrics"
	"testing"
	"time"
)

func TestRuntimeSamplerDisabled(t *testing.T) {
	var rs *RuntimeSampler
	rs.Start() // all no-ops on nil
	rs.Sample()
	rs.Stop()
	if NewRuntimeSampler(0) != nil || NewRuntimeSampler(-time.Second) != nil {
		t.Fatal("non-positive interval must return a nil (disabled) sampler")
	}
}

func TestRuntimeSamplerPublishesGauges(t *testing.T) {
	rs := NewRuntimeSampler(time.Hour) // interval irrelevant; we call Sample directly
	defer rs.Stop()
	rs.Sample()
	if g := rs.goroutines.Value(); g < 1 {
		t.Fatalf("goroutine gauge = %g, want ≥ 1", g)
	}
	if h := rs.heapBytes.Value(); h <= 0 {
		t.Fatalf("heap gauge = %g, want > 0", h)
	}
	for _, g := range []*Gauge{rs.gcPauseP50, rs.gcPauseP99, rs.schedP50, rs.schedP99} {
		if v := g.Value(); v < 0 || v != v {
			t.Fatalf("quantile gauge = %g, want finite ≥ 0", v)
		}
	}
}

func TestRuntimeSamplerStartStop(t *testing.T) {
	rs := NewRuntimeSampler(time.Millisecond)
	rs.Start()
	rs.Start() // idempotent
	time.Sleep(5 * time.Millisecond)
	rs.Stop()
	rs.Stop() // idempotent
	if g := rs.goroutines.Value(); g < 1 {
		t.Fatalf("background loop never sampled (goroutines = %g)", g)
	}
}

func TestRuntimeSamplerStopWithoutStart(t *testing.T) {
	done := make(chan struct{})
	go func() {
		NewRuntimeSampler(time.Hour).Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop on a never-started sampler hung")
	}
}

func TestRuntimeHistQuantile(t *testing.T) {
	h := &metrics.Float64Histogram{
		Counts:  []uint64{0, 3, 1, 0},
		Buckets: []float64{0, 0.001, 0.01, 0.1, 1},
	}
	if got := runtimeHistQuantile(h, 0.5); got != 0.01 {
		t.Fatalf("p50 = %g, want 0.01 (upper edge of median bucket)", got)
	}
	if got := runtimeHistQuantile(h, 1); got != 0.1 {
		t.Fatalf("p100 = %g, want 0.1", got)
	}
	empty := &metrics.Float64Histogram{Counts: []uint64{0}, Buckets: []float64{0, 1}}
	if got := runtimeHistQuantile(empty, 0.99); got != 0 {
		t.Fatalf("empty histogram quantile = %g, want 0", got)
	}
	// Rank in an +Inf-bounded overflow bucket clamps to the finite lower edge.
	overflow := &metrics.Float64Histogram{
		Counts:  []uint64{0, 2},
		Buckets: []float64{0, 0.5, math.Inf(1)},
	}
	if got := runtimeHistQuantile(overflow, 0.99); got != 0.5 {
		t.Fatalf("overflow-bucket quantile = %g, want 0.5", got)
	}
}

func TestReadRequestCostsDelta(t *testing.T) {
	start := ReadRequestCosts()
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 64<<10))
	}
	_ = sink
	d := ReadRequestCosts().Since(start)
	if d.AllocBytes < 64*64<<10 {
		t.Fatalf("alloc delta = %d bytes, want ≥ %d", d.AllocBytes, 64*64<<10)
	}
	if d.GCAssistSeconds < 0 {
		t.Fatalf("gc assist delta = %g, want ≥ 0", d.GCAssistSeconds)
	}
	// Reversed order clamps to zero rather than underflowing.
	if rev := start.Since(ReadRequestCosts()); rev.AllocBytes != 0 {
		t.Fatalf("reversed delta = %+v, want zero", rev)
	}
}
