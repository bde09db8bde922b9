package obs

import (
	"math"
	"runtime/metrics"
	"sync"
	"time"
)

// Runtime telemetry: a runtime/metrics-backed sampler publishing the
// Go runtime's health signals (GC pause quantiles, heap size,
// goroutine count, scheduler latency) into the process metrics
// registry, plus a cheap two-counter read for per-request GC/alloc
// deltas in flight records.  Nothing here runs unless a sampler is
// started or a request-cost read is made, so binaries that do not opt
// in pay nothing — the same contract as the nil span and nil flight
// recorder paths.

const (
	rmGoroutines = "/sched/goroutines:goroutines"
	rmHeapBytes  = "/memory/classes/heap/objects:bytes"
	rmGCCycles   = "/gc/cycles/total:gc-cycles"
	rmGCPauses   = "/gc/pauses:seconds"
	rmSchedLat   = "/sched/latencies:seconds"
	rmAllocBytes = "/gc/heap/allocs:bytes"
	rmGCAssist   = "/cpu/classes/gc/mark/assist:cpu-seconds"
)

// RuntimeSampler periodically reads the Go runtime metrics and
// publishes them as gauges in the Default registry:
//
//	maest_runtime_goroutines
//	maest_runtime_heap_bytes
//	maest_runtime_gc_cycles
//	maest_runtime_gc_pause_p50_seconds / _p99_seconds
//	maest_runtime_sched_latency_p50_seconds / _p99_seconds
//
// A nil *RuntimeSampler is the disabled sampler: every method is a
// no-op.  Start/Stop manage one background goroutine; Sample is safe
// to call directly (and concurrently with the background loop).
type RuntimeSampler struct {
	interval time.Duration

	mu      sync.Mutex // guards samples across Sample callers
	samples []metrics.Sample

	goroutines *Gauge
	heapBytes  *Gauge
	gcCycles   *Gauge
	gcPauseP50 *Gauge
	gcPauseP99 *Gauge
	schedP50   *Gauge
	schedP99   *Gauge

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewRuntimeSampler returns a sampler publishing every interval;
// interval <= 0 returns nil (disabled).  Gauges are registered here —
// not at package init — so binaries without a sampler keep their
// /metrics exposition free of runtime families.
func NewRuntimeSampler(interval time.Duration) *RuntimeSampler {
	if interval <= 0 {
		return nil
	}
	names := []string{rmGoroutines, rmHeapBytes, rmGCCycles, rmGCPauses, rmSchedLat}
	samples := make([]metrics.Sample, len(names))
	for i, n := range names {
		samples[i].Name = n
	}
	return &RuntimeSampler{
		interval:   interval,
		samples:    samples,
		goroutines: DefGauge("maest_runtime_goroutines", "live goroutines"),
		heapBytes:  DefGauge("maest_runtime_heap_bytes", "bytes of live heap objects"),
		gcCycles:   DefGauge("maest_runtime_gc_cycles", "completed GC cycles since process start"),
		gcPauseP50: DefGauge("maest_runtime_gc_pause_p50_seconds", "median stop-the-world GC pause"),
		gcPauseP99: DefGauge("maest_runtime_gc_pause_p99_seconds", "p99 stop-the-world GC pause"),
		schedP50:   DefGauge("maest_runtime_sched_latency_p50_seconds", "median goroutine scheduling latency"),
		schedP99:   DefGauge("maest_runtime_sched_latency_p99_seconds", "p99 goroutine scheduling latency"),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
}

// Start launches the background sampling loop (one immediate sample,
// then one per interval).  Starting twice is a no-op.
func (rs *RuntimeSampler) Start() {
	if rs == nil {
		return
	}
	rs.startOnce.Do(func() {
		go func() {
			defer close(rs.done)
			rs.Sample()
			t := time.NewTicker(rs.interval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					rs.Sample()
				case <-rs.stop:
					return
				}
			}
		}()
	})
}

// Stop ends the background loop and waits for it to exit.  Stopping a
// never-started or nil sampler is a no-op.
func (rs *RuntimeSampler) Stop() {
	if rs == nil {
		return
	}
	rs.startOnce.Do(func() { close(rs.done) }) // never started: nothing to wait for
	rs.stopOnce.Do(func() { close(rs.stop) })
	<-rs.done
}

// Sample reads the runtime metrics once and updates the gauges.
func (rs *RuntimeSampler) Sample() {
	if rs == nil {
		return
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	metrics.Read(rs.samples)
	for _, s := range rs.samples {
		switch s.Name {
		case rmGoroutines:
			rs.goroutines.Set(uint64Value(s))
		case rmHeapBytes:
			rs.heapBytes.Set(uint64Value(s))
		case rmGCCycles:
			rs.gcCycles.Set(uint64Value(s))
		case rmGCPauses:
			if h := histValue(s); h != nil {
				rs.gcPauseP50.Set(runtimeHistQuantile(h, 0.50))
				rs.gcPauseP99.Set(runtimeHistQuantile(h, 0.99))
			}
		case rmSchedLat:
			if h := histValue(s); h != nil {
				rs.schedP50.Set(runtimeHistQuantile(h, 0.50))
				rs.schedP99.Set(runtimeHistQuantile(h, 0.99))
			}
		}
	}
}

func uint64Value(s metrics.Sample) float64 {
	if s.Value.Kind() == metrics.KindUint64 {
		return float64(s.Value.Uint64())
	}
	return 0
}

func histValue(s metrics.Sample) *metrics.Float64Histogram {
	if s.Value.Kind() == metrics.KindFloat64Histogram {
		return s.Value.Float64Histogram()
	}
	return nil
}

// runtimeHistQuantile estimates the q-quantile of a runtime/metrics
// histogram, returning the upper edge of the bucket containing the
// target rank (conservative), clamped to the nearest finite edge so
// the ±Inf sentinel buckets never leak into gauges or JSON.
func runtimeHistQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	q = math.Min(math.Max(q, 0), 1)
	rank := q * float64(total)
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if c > 0 && float64(cum) >= rank {
			// Bucket i spans Buckets[i]..Buckets[i+1].
			hi := h.Buckets[i+1]
			if !math.IsInf(hi, 1) {
				return hi
			}
			lo := h.Buckets[i]
			if !math.IsInf(lo, -1) {
				return lo
			}
			return 0
		}
	}
	return 0
}

// RequestCosts is a snapshot of the process's cumulative allocation
// and GC-assist counters.  Two snapshots bracketing a request yield
// the request window's delta via Since.  The counters are
// process-wide, so under concurrency a request's delta includes its
// neighbours' work — still the number an operator wants when a
// latency spike correlates with allocation pressure.
type RequestCosts struct {
	AllocBytes      uint64
	GCAssistSeconds float64
}

// ReadRequestCosts reads the two cost counters.  It is cheap (two
// runtime metric reads, one small allocation) but not free: callers
// on zero-alloc paths must gate it behind their enabled check.
func ReadRequestCosts() RequestCosts {
	s := make([]metrics.Sample, 2)
	s[0].Name = rmAllocBytes
	s[1].Name = rmGCAssist
	metrics.Read(s)
	var rc RequestCosts
	if s[0].Value.Kind() == metrics.KindUint64 {
		rc.AllocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		rc.GCAssistSeconds = s[1].Value.Float64()
	}
	return rc
}

// Since returns the counter deltas from start to end (clamped at zero
// against counter resets, which do not happen in practice).
func (end RequestCosts) Since(start RequestCosts) RequestCosts {
	var d RequestCosts
	if end.AllocBytes > start.AllocBytes {
		d.AllocBytes = end.AllocBytes - start.AllocBytes
	}
	if end.GCAssistSeconds > start.GCAssistSeconds {
		d.GCAssistSeconds = end.GCAssistSeconds - start.GCAssistSeconds
	}
	return d
}
