package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"maest/internal/core"
	"maest/internal/obs"
)

// Chip-scale metrics: the worker pool is the throughput engine of the
// "estimate every module, then floor-plan" workflow, so its
// utilization is what tells whether the pipeline runs as fast as the
// hardware allows.  Metric names predate the move from internal/core.
var (
	mChips       = obs.DefCounter("maest_chip_estimates_total", "completed chip-level estimate runs")
	mChipModules = obs.DefCounter("maest_chip_modules_total", "modules estimated through the chip worker pool")
	mChipWorkers = obs.DefGauge("maest_chip_workers", "worker count of the most recent chip estimate")
	mChipWorkSec = obs.DefHistogram("maest_chip_wall_seconds", "chip estimate wall-clock latency", obs.DefBuckets)
	mChipUtil    = obs.DefHistogram("maest_chip_worker_utilization_ratio", "per-worker busy fraction of a chip estimate", obs.RatioBuckets)
)

// EstimatePlans estimates already-compiled plans concurrently — the
// paper's workflow estimates each module independently before floor
// planning, which parallelizes perfectly.  Callers compile (or
// cache-hit) each module first, then fan the estimation out here.
// Results are returned in plan order.
//
// The pool runs under an "estimate_chip" span parenting one estimate
// per plan.  Cancellation is prompt: plans not yet started are
// skipped and ctx.Err is surfaced itself.  When several plans fail,
// every failure is reported (errors.Join), each tagged with its
// module name.  Honored options: WithRows, WithTrackSharing,
// WithWorkers (≤ 0 selects GOMAXPROCS).
func EstimatePlans(ctx context.Context, plans []*Plan, opts ...Option) (res []*core.Result, err error) {
	o := build(opts)
	ctx, sp := obs.Start(ctx, "estimate_chip")
	defer func() { sp.EndErr(err) }()
	n := len(plans)
	if n == 0 {
		return nil, estErr("chip has no modules")
	}
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	sp.SetInt("modules", int64(n))
	sp.SetInt("workers", int64(workers))

	results := make([]*core.Result, n)
	errs := make([]error, n)
	busy := make([]time.Duration, workers)
	idx := make(chan int)
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range idx {
				// Cancellation check per plan: a plan already
				// estimating runs to completion (the estimator is not
				// preemptible), but unstarted ones are skipped so the
				// pool winds down promptly.
				if ctx.Err() != nil {
					continue
				}
				start := time.Now()
				results[i], errs[i] = plans[i].estimate(ctx, o)
				busy[w] += time.Since(start)
			}
		}(w)
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if cerr := ctx.Err(); cerr != nil {
		// Surface the cancellation itself: partial results are not
		// a usable chip estimate, and module errors observed after
		// the deadline are noise.
		sp.SetString("cancelled", cerr.Error())
		return nil, cerr
	}

	wall := time.Since(t0)
	mChips.Inc()
	mChipModules.Add(int64(n))
	mChipWorkers.Set(float64(workers))
	mChipWorkSec.Observe(wall.Seconds())
	if wall > 0 {
		var util float64
		for _, b := range busy {
			r := b.Seconds() / wall.Seconds()
			mChipUtil.Observe(r)
			util += r
		}
		sp.SetFloat("utilization", util/float64(workers))
	}

	// Aggregate every module failure — a multi-module run must be
	// diagnosable in one pass, not one lowest-index error at a time.
	var failures []error
	for i, e := range errs {
		if e != nil {
			failures = append(failures, fmt.Errorf("%w (module %q)", e, plans[i].circ.Name))
		}
	}
	if len(failures) > 0 {
		sp.SetInt("failed_modules", int64(len(failures)))
		return nil, errors.Join(failures...)
	}
	return results, nil
}
