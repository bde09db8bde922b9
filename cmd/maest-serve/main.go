// Command maest-serve is the long-lived estimation service: the
// Fig. 1 pipeline behind an HTTP/JSON API with a content-addressed
// plan cache, concurrency limiting, per-request deadlines, request
// telemetry (flight recorder + structured access log), and graceful
// shutdown.
//
// Usage:
//
//	maest-serve [-addr :8080] [-proc nmos25] [-cache N]
//	            [-concurrency N] [-timeout 30s] [-max-bytes N]
//	            [-workers N] [-retry-after 1] [-drain 10s]
//	            [-job-workers 2] [-job-queue 32]
//	            [-flight N] [-access-log FILE] [-debug-addr ADDR]
//	            [-trace out.jsonl] [-pprof out.cpu]
//	            [-runtime-metrics 15s]
//	            [-store-dir DIR] [-store-max-bytes N]
//	            [-trace-store DIR] [-trace-sample-rate 0.05]
//	            [-trace-slow 100ms]
//	            [-watchdog 0] [-watchdog-golden DIR] [-watchdog-ref FILE]
//	            [-watchdog-tol 0.5]
//
// -store-dir mounts the persistent plan store: estimate results,
// congestion maps and finished floorplan jobs persist across restarts
// under their content addresses, so a restarted instance answers
// repeat requests from disk instead of re-paying compile+execute.  The
// store is write-once: a rewritten key supersedes its older record,
// and beyond -store-max-bytes the oldest segments are evicted whole.
// -watchdog starts the accuracy watchdog: every interval the golden
// circuit set replays through the live plan cache and /healthz
// degrades (503) when any module drifts beyond -watchdog-tol
// percentage points from the pinned reference.
//
// Endpoints:
//
//	POST /v1/estimate        {"netlist": "...", "format": "mnet|bench|verilog", ...}
//	POST /v1/estimate/batch  {"modules": [{"netlist": "..."}, ...]}
//	POST /v1/estimate/delta  {"parent": "<plan key>", "edits": [...]}
//	POST /v1/congestion      {"netlist": "...", "model": "occupancy|crossing", ...}
//	POST /v1/floorplan       submit an async floorplan job (202 + job id)
//	GET  /v1/jobs/{id}       poll a job (accepted|annealing|done|failed|cancelled)
//	DELETE /v1/jobs/{id}     cancel a job (idempotent)
//	GET  /healthz            liveness probe
//	GET  /metrics            Prometheus text exposition
//
// With -debug-addr the observatory listener additionally serves (on a
// separate socket, so request payloads never leave the debug network):
//
//	GET /debug/flight?n=N    recent request records + latency quantiles
//	GET /debug/slowest?k=K   top-K requests by duration, span breakdown
//	GET /debug/store         persistent-store statistics snapshot
//	GET /debug/trace/{id}    one trace's stitched span tree (with
//	                         -trace-store, across restarts)
//	GET /debug/traces        the persisted-trace index scan
//	GET /debug/plans         per-plan cost profiles
//	GET /debug/pprof/*       the Go runtime profiler
//	GET /metrics             the same exposition, for sidecar scrapers
//
// -trace-store mounts the persistent trace store: requests kept by the
// tail sampler (every error, everything slower than -trace-slow, and a
// -trace-sample-rate baseline) persist their full span trees, and the
// trace behind yesterday's latency spike is still one GET
// /debug/trace/{id} after a restart.
//
// SIGINT/SIGTERM drain in-flight estimates for up to -drain before
// the listener closes hard; in-flight floorplan jobs are cancelled,
// persisted as cancelled (with -store-dir), and leak no goroutine.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"maest/internal/obs"
	"maest/internal/serve"
	"maest/internal/store"
)

// options carries the parsed flag values into run.
type options struct {
	addr        string
	proc        string
	cacheSize   int
	concurrency int
	timeout     time.Duration
	maxBytes    int64
	workers     int
	retryAfter  int
	jobWorkers  int
	jobQueue    int
	drain       time.Duration
	flight      int
	accessLog   string
	debugAddr   string
	trace       string
	pprof       string

	runtimeMetrics time.Duration
	storeDir       string
	storeMaxBytes  int64
	traceStoreDir  string
	traceRate      float64
	traceSlow      time.Duration
	watchdog       time.Duration
	watchdogGolden string
	watchdogRef    string
	watchdogTol    float64
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.StringVar(&o.proc, "proc", "nmos25", "default builtin process for requests naming none")
	flag.IntVar(&o.cacheSize, "cache", 1024, "plan cache capacity in compiled plans, whose memos hold the cached answers (negative disables)")
	flag.IntVar(&o.concurrency, "concurrency", 0, "max concurrent estimate requests; excess gets 429 (0 = 2×GOMAXPROCS)")
	flag.DurationVar(&o.timeout, "timeout", 30*time.Second, "per-request estimation deadline")
	flag.Int64Var(&o.maxBytes, "max-bytes", 8<<20, "request body size limit in bytes")
	flag.IntVar(&o.workers, "workers", 0, "batch estimation worker pool size (0 = GOMAXPROCS)")
	flag.IntVar(&o.retryAfter, "retry-after", 1, "Retry-After hint in seconds on 429 responses when load is shed")
	flag.IntVar(&o.jobWorkers, "job-workers", 2, "floorplan job worker pool size")
	flag.IntVar(&o.jobQueue, "job-queue", 32, "floorplan job queue capacity; a full queue answers 429")
	flag.DurationVar(&o.drain, "drain", 10*time.Second, "graceful-shutdown drain budget for in-flight estimates")
	flag.IntVar(&o.flight, "flight", 256, "flight-recorder capacity in request records (0 disables)")
	flag.StringVar(&o.accessLog, "access-log", "", "write a JSON access log line per request to this file ('-' = stdout, empty disables)")
	flag.StringVar(&o.debugAddr, "debug-addr", "", "serve the observatory debug endpoints (/debug/flight, /debug/slowest, /metrics) on this extra address (empty disables)")
	flag.StringVar(&o.trace, "trace", "", "write a JSONL span trace to this file ('-' = stdout) and a summary tree to stderr on exit")
	flag.StringVar(&o.pprof, "pprof", "", "write a CPU profile to this file (and a heap snapshot to FILE.heap)")
	flag.DurationVar(&o.runtimeMetrics, "runtime-metrics", 15*time.Second, "Go runtime telemetry sampling interval for /metrics (0 disables)")
	flag.StringVar(&o.storeDir, "store-dir", "", "mount the persistent plan store in this directory: results persist across restarts and warm-start the caches (empty disables)")
	flag.Int64Var(&o.storeMaxBytes, "store-max-bytes", 1<<30, "persistent store size budget in bytes; the oldest segments are evicted beyond it (negative disables eviction)")
	flag.StringVar(&o.traceStoreDir, "trace-store", "", "persist tail-sampled request traces in this directory; GET /debug/trace/{id} then answers across restarts (empty disables)")
	flag.Float64Var(&o.traceRate, "trace-sample-rate", 0.05, "baseline fraction of traces kept by the tail sampler (errors and the slow tail are always kept)")
	flag.DurationVar(&o.traceSlow, "trace-slow", 100*time.Millisecond, "requests at least this slow are always sampled (0 disables the slow-tail rule)")
	flag.DurationVar(&o.watchdog, "watchdog", 0, "accuracy watchdog probe interval; replays the golden set through the live plan cache and degrades /healthz on drift (0 disables)")
	flag.StringVar(&o.watchdogGolden, "watchdog-golden", "testdata/golden", "golden tables directory for the accuracy watchdog")
	flag.StringVar(&o.watchdogRef, "watchdog-ref", "testdata/bench/BENCH_reference.json", "pinned bench snapshot the watchdog diffs against")
	flag.Float64Var(&o.watchdogTol, "watchdog-tol", 0.5, "allowed drift growth beyond the reference, in percentage points")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "maest-serve:", err)
		os.Exit(1)
	}
}

// run starts the service and blocks until a termination signal has
// been handled (metrics stay live on /metrics; -trace/-pprof flush at
// exit like the other maest commands).
func run(o options) (err error) {
	cli, ctx, err := obs.SetupCLI(context.Background(), o.trace, false, o.pprof)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := cli.Close(os.Stderr); err == nil {
			err = cerr
		}
	}()

	accessLog, closeLog, err := openAccessLog(o.accessLog)
	if err != nil {
		return err
	}
	defer closeLog()

	rt, err := startServer(ctx, o, accessLog, nil)
	if err != nil {
		return err
	}
	log.Printf("maest-serve: listening on %s (process %s, cache %d, flight %d, drain %s)",
		rt.apiAddr, o.proc, o.cacheSize, o.flight, o.drain)
	if rt.debug != nil {
		log.Printf("maest-serve: observatory on %s", rt.debugAddr)
	}
	if rt.store != nil {
		st := rt.store.Stats()
		log.Printf("maest-serve: persistent store at %s (%d segments, %d records, %d bytes)",
			o.storeDir, st.Segments, st.Records, st.Bytes)
	}
	if rt.traceStore != nil {
		st := rt.traceStore.Stats()
		log.Printf("maest-serve: trace store at %s (%d records, %d bytes; rate %g, slow %s)",
			o.traceStoreDir, st.Records, st.Bytes, o.traceRate, o.traceSlow)
	}

	sigCtx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-sigCtx.Done()
	log.Printf("maest-serve: shutting down, draining for up to %s", o.drain)
	return rt.shutdown(o.drain)
}

// openAccessLog resolves the -access-log flag into a writer: empty
// disables, '-' selects stdout, anything else appends to the file.
func openAccessLog(path string) (io.Writer, func() error, error) {
	switch path {
	case "":
		return nil, func() error { return nil }, nil
	case "-":
		return os.Stdout, func() error { return nil }, nil
	default:
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, err
		}
		return f, f.Close, nil
	}
}

// running holds the bound listeners of one maest-serve instance: the
// API server and, when -debug-addr is set, the observatory sidecar.
type running struct {
	api        *http.Server
	apiAddr    string
	debug      *http.Server // nil when -debug-addr is empty
	debugAddr  string
	handler    *serve.Server
	sampler    *obs.RuntimeSampler // nil when -runtime-metrics is 0
	store      *store.Store        // nil when -store-dir is empty
	traceStore *store.Store        // nil when -trace-store is empty
}

// startServer validates the options, binds the listeners, and serves
// in the background, returning the bound addresses (the tests listen
// on port 0).  hook is threaded into serve.Options for deterministic
// end-to-end overload tests; production passes nil.
func startServer(ctx context.Context, o options, accessLog io.Writer, hook func()) (*running, error) {
	var st *store.Store
	if o.storeDir != "" {
		var err error
		st, err = store.Open(store.Options{Dir: o.storeDir, MaxBytes: o.storeMaxBytes})
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	var tst *store.Store
	if o.traceStoreDir != "" {
		var err error
		tst, err = store.Open(store.Options{Dir: o.traceStoreDir, MaxBytes: o.storeMaxBytes})
		if err != nil {
			if st != nil {
				st.Close()
			}
			return nil, fmt.Errorf("trace store: %w", err)
		}
	}
	handler := serve.New(serve.Options{
		Process:         o.proc,
		CacheSize:       o.cacheSize,
		MaxConcurrent:   o.concurrency,
		Timeout:         o.timeout,
		MaxRequestBytes: o.maxBytes,
		Workers:         o.workers,
		RetryAfter:      o.retryAfter,
		JobWorkers:      o.jobWorkers,
		JobQueue:        o.jobQueue,
		EstimateHook:    hook,
		FlightSize:      o.flight,
		AccessLog:       accessLog,
		Store:           st,
		TraceStore:      tst,
		Sample: obs.SamplePolicy{
			Rate:       o.traceRate,
			SlowMicros: o.traceSlow.Microseconds(),
			KeepErrors: true,
		},
		Watchdog: serve.WatchdogOptions{
			Interval:  o.watchdog,
			GoldenDir: o.watchdogGolden,
			Reference: o.watchdogRef,
			TolPP:     o.watchdogTol,
		},
	})
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		if st != nil {
			st.Close()
		}
		if tst != nil {
			tst.Close()
		}
		return nil, err
	}
	rt := &running{
		api: &http.Server{
			Handler:           handler,
			ReadHeaderTimeout: 10 * time.Second,
			// Estimate requests carry their own deadline; pad the write
			// timeout past it so the 504 body still reaches the client.
			WriteTimeout: o.timeout + 5*time.Second,
			BaseContext:  func(net.Listener) context.Context { return ctx },
		},
		apiAddr:    ln.Addr().String(),
		handler:    handler,
		sampler:    obs.NewRuntimeSampler(o.runtimeMetrics),
		store:      st,
		traceStore: tst,
	}
	rt.sampler.Start()
	rt.handler.Watchdog().Start()
	go serveListener(rt.api, ln)

	if o.debugAddr != "" {
		dln, err := net.Listen("tcp", o.debugAddr)
		if err != nil {
			ln.Close()
			if st != nil {
				st.Close()
			}
			if tst != nil {
				tst.Close()
			}
			return nil, fmt.Errorf("debug listener: %w", err)
		}
		rt.debug = &http.Server{
			Handler:           handler.DebugHandler(),
			ReadHeaderTimeout: 10 * time.Second,
			BaseContext:       func(net.Listener) context.Context { return ctx },
		}
		rt.debugAddr = dln.Addr().String()
		go serveListener(rt.debug, dln)
	}
	return rt, nil
}

func serveListener(srv *http.Server, ln net.Listener) {
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("maest-serve: %v", err)
	}
}

// shutdown drains in-flight estimates for up to the drain budget,
// then closes the listeners hard.  The debug listener has no
// long-running requests and closes immediately.
func (rt *running) shutdown(drain time.Duration) error {
	rt.handler.Watchdog().Stop()
	rt.sampler.Stop()
	if rt.debug != nil {
		rt.debug.Close()
	}
	// The stores outlive the listeners: results computed (and traces
	// sampled) by the last in-flight requests still flush through the
	// write-behind queues before the files close.
	defer func() {
		rt.handler.FlushStore()
		if rt.store != nil {
			rt.store.Close()
		}
		rt.handler.FlushTraces()
		if rt.traceStore != nil {
			rt.traceStore.Close()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := rt.api.Shutdown(ctx); err != nil {
		rt.api.Close()
		return fmt.Errorf("drain incomplete after %s: %w", drain, err)
	}
	return nil
}
