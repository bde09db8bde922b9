// Package engine is the compile/execute split over the paper's
// estimation pipeline.  Compile turns one circuit + process pair into
// an immutable, content-addressed Plan holding everything the Eq.
// 2–14 math needs but never changes between calls — the gathered
// netlist statistics (§3), the methodology classification, a private
// clone of the process, and the §5 initial row count —
// and the Plan's execute methods (Estimate, EstimateStandardCell,
// EstimateFullCustom, Candidates, Distributions, Congestion) run the
// internal/core math kernels and internal/congest distribution
// machinery against it, memoizing every intermediate they produce.
//
// The split encodes the observation the early-routability literature
// makes structurally (Kar et al., PAPERS.md): area and congestion
// estimates share one netlist-statistics substrate, so a serving
// layer answering "estimate" and "congestion" for the same circuit
// should parse and gather once, not twice.  A second consumer of a
// compiled Plan — another row count, the congestion endpoint, a
// floorplanner loop re-asking — pays a map lookup, not a re-gather
// and re-convolution (benchmark-pinned to zero allocations on the
// warm path).
//
// All execute methods are safe for concurrent use of one Plan.
package engine

import (
	"fmt"
	"time"

	"maest/internal/core"
	"maest/internal/obs"
)

// Pipeline-stage metrics.  The estimate counters and histogram keep
// the names internal/core registered before the orchestration moved
// here, so dashboards survive the refactor; compile gets its own set
// so plan-cache hit ratios upstream can be corroborated against how
// often compilation actually runs.
var (
	mCompiles    = obs.DefCounter("maest_compile_total", "completed plan compilations")
	mCompileErr  = obs.DefCounter("maest_compile_errors_total", "failed plan compilations")
	mCompileSec  = obs.DefHistogram("maest_compile_seconds", "plan compilation latency", obs.DefBuckets)
	mEstimates   = obs.DefCounter("maest_estimate_total", "completed module estimates")
	mEstimateErr = obs.DefCounter("maest_estimate_errors_total", "failed module estimates")
	mEstimateSec = obs.DefHistogram("maest_estimate_seconds", "per-module estimate latency", obs.DefBuckets)
)

// estErr wraps engine failures under core.ErrEstimate with the same
// message prefix the core orchestration produced, so callers (and the
// serving layer's 422 mapping) dispatching on errors.Is keep working
// unchanged.
func estErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", core.ErrEstimate, fmt.Sprintf(format, args...))
}

// observe closes the estimate latency/outcome metrics around one
// execute call.
func observe(t0 time.Time, err error) {
	mEstimateSec.Observe(time.Since(t0).Seconds())
	if err != nil {
		mEstimateErr.Inc()
	} else {
		mEstimates.Inc()
	}
}
