package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"maest/internal/engine"
	"maest/internal/netlist"
	"maest/internal/obs"
	"maest/internal/report"
	"maest/internal/tech"
)

// The accuracy watchdog turns maest-bench's offline drift gate into a
// production signal: a background loop that periodically replays the
// pinned golden circuit set (the paper's Table 1/2 experiments)
// through the server's live plan cache, diffs the fresh accuracy
// snapshot against the checked-in bench reference, and degrades
// /healthz when any module's drift from golden grows beyond tolerance.
// An estimator that silently starts answering floorplanner loops with
// drifted areas is a worse failure than one that is down — a load
// balancer can only act on the signal if /healthz carries it.

var (
	mWatchdogProbes    = obs.DefCounter("maest_serve_watchdog_probes_total", "accuracy watchdog probes run")
	mWatchdogErrors    = obs.DefCounter("maest_serve_watchdog_probe_errors_total", "accuracy watchdog probes that failed to run")
	mWatchdogSec       = obs.DefHistogram("maest_serve_watchdog_probe_seconds", "accuracy watchdog probe duration", obs.DefBuckets)
	mAccuracyDriftPP   = obs.DefGauge("maest_serve_accuracy_drift_pp", "largest per-module drift from the golden tables, percentage points")
	mAccuracyDegraded  = obs.DefGauge("maest_serve_accuracy_degraded", "1 when accuracy drift exceeds tolerance, else 0")
	mAccuracyRegressed = obs.DefGauge("maest_serve_accuracy_regressions", "modules currently drifted beyond tolerance vs the bench reference")
)

// WatchdogOptions configures the accuracy watchdog.
type WatchdogOptions struct {
	// Interval is the probe period; 0 disables the watchdog.
	Interval time.Duration
	// GoldenDir holds the golden tables (testdata/golden).
	GoldenDir string
	// Reference is the path of the pinned bench snapshot
	// (testdata/bench/BENCH_reference.json) probes are diffed against.
	Reference string
	// TolPP is the allowed drift growth beyond the reference, in
	// percentage points (the same knob as maest-bench -tol).
	TolPP float64
	// Seed drives the layout synthesis the goldens are anchored to; it
	// must match the seed the reference snapshot was built with.
	Seed int64
}

// watchdogState is one probe's outcome, swapped in atomically so
// /healthz reads are lock-free.
type watchdogState struct {
	degraded    bool
	maxDriftPP  float64
	regressions []string
	lastErr     string
}

// Watchdog is the background accuracy prober.  A nil *Watchdog is the
// disabled state.
type Watchdog struct {
	s    *Server
	opts WatchdogOptions

	refMu sync.Mutex
	ref   *report.BenchSnapshot

	state atomic.Pointer[watchdogState]

	probes      atomic.Int64
	probeErrors atomic.Int64

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

func newWatchdog(s *Server, opts WatchdogOptions) *Watchdog {
	wd := &Watchdog{
		s:    s,
		opts: opts,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	wd.state.Store(&watchdogState{})
	return wd
}

// Start launches the probe loop (one immediate probe, then one per
// interval).  Starting twice, or starting a nil watchdog, is a no-op.
func (wd *Watchdog) Start() {
	if wd == nil {
		return
	}
	wd.startOnce.Do(func() {
		go func() {
			defer close(wd.done)
			wd.Probe(context.Background())
			t := time.NewTicker(wd.opts.Interval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					wd.Probe(context.Background())
				case <-wd.stop:
					return
				}
			}
		}()
	})
}

// Stop ends the probe loop and waits for it to exit.
func (wd *Watchdog) Stop() {
	if wd == nil {
		return
	}
	wd.startOnce.Do(func() { close(wd.done) }) // never started
	wd.stopOnce.Do(func() { close(wd.stop) })
	<-wd.done
}

// Probe runs one accuracy check synchronously: replay the golden set
// through the live plan cache, diff against the reference, publish
// gauges, and update the /healthz state.  A probe that cannot run
// (missing reference, compile failure) counts as an error and marks
// the service degraded — "cannot verify accuracy" must not read as
// healthy.  It returns the regression messages (nil when clean).
func (wd *Watchdog) Probe(ctx context.Context) []string {
	if wd == nil {
		return nil
	}
	t0 := time.Now()
	mWatchdogProbes.Inc()
	wd.probes.Add(1)
	regressions, maxDrift, err := wd.probe(ctx)
	mWatchdogSec.Observe(time.Since(t0).Seconds())

	st := &watchdogState{maxDriftPP: maxDrift, regressions: regressions}
	if err != nil {
		mWatchdogErrors.Inc()
		wd.probeErrors.Add(1)
		st.lastErr = err.Error()
		st.degraded = true
	} else if len(regressions) > 0 {
		st.degraded = true
	}
	wd.state.Store(st)

	mAccuracyDriftPP.Set(maxDrift)
	mAccuracyRegressed.Set(float64(len(regressions)))
	if st.degraded {
		mAccuracyDegraded.Set(1)
	} else {
		mAccuracyDegraded.Set(0)
	}
	return regressions
}

func (wd *Watchdog) probe(ctx context.Context) ([]string, float64, error) {
	ref, err := wd.reference()
	if err != nil {
		return nil, 0, err
	}
	proc, err := tech.Lookup(ref.Accuracy.Process)
	if err != nil {
		return nil, 0, fmt.Errorf("watchdog: reference process: %w", err)
	}
	seed := wd.opts.Seed
	if seed == 0 {
		seed = ref.Accuracy.Seed
	}
	// The probe compiles through s.plan: every golden circuit resolves
	// via — and warms — the same content-addressed plan cache serving
	// production requests, so the watchdog measures the deployed
	// pipeline, not a parallel one.
	compile := func(ctx context.Context, c *netlist.Circuit, p *tech.Process) (*engine.Plan, error) {
		return wd.s.plan(ctx, Key(engine.PlanHash(c, p)), c, p)
	}
	fresh, err := report.BuildAccuracyCtx(ctx, wd.opts.GoldenDir, proc, seed, compile)
	if err != nil {
		return nil, 0, fmt.Errorf("watchdog: probe: %w", err)
	}
	return report.CompareAccuracy(&ref.Accuracy, &fresh, wd.opts.TolPP), fresh.MaxDriftPP, nil
}

// reference lazily loads and caches the pinned bench snapshot.
func (wd *Watchdog) reference() (*report.BenchSnapshot, error) {
	wd.refMu.Lock()
	defer wd.refMu.Unlock()
	if wd.ref != nil {
		return wd.ref, nil
	}
	ref, err := report.ReadBenchSnapshot(wd.opts.Reference)
	if err != nil {
		return nil, fmt.Errorf("watchdog: reference: %w", err)
	}
	wd.ref = ref
	return ref, nil
}

// Health returns the watchdog's current /healthz view.
func (wd *Watchdog) Health() WatchdogHealth {
	if wd == nil {
		return WatchdogHealth{}
	}
	st := wd.state.Load()
	return WatchdogHealth{
		Degraded:    st.degraded,
		Probes:      wd.probes.Load(),
		ProbeErrors: wd.probeErrors.Load(),
		MaxDriftPP:  st.maxDriftPP,
		Regressions: len(st.regressions),
		LastError:   st.lastErr,
	}
}

// Degraded reports whether the last probe found the service out of
// accuracy tolerance (or failed to verify it).
func (wd *Watchdog) Degraded() bool {
	if wd == nil {
		return false
	}
	return wd.state.Load().degraded
}
