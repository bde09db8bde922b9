package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"maest/internal/congest"
	"maest/internal/core"
	"maest/internal/engine"
	"maest/internal/netlist"
	"maest/internal/obs"
	"maest/internal/store"
	"maest/internal/tech"
)

// Request metrics.  Rejections and timeouts get their own counters:
// under overload they are the difference between "the service is
// slow" and "the service is shedding load as designed".
var (
	mRequests  = obs.DefCounter("maest_serve_requests_total", "estimate requests received")
	mErrors    = obs.DefCounter("maest_serve_request_errors_total", "estimate requests answered with an error")
	mRejected  = obs.DefCounter("maest_serve_rejected_total", "estimate requests shed with 429 under overload")
	mTimeouts  = obs.DefCounter("maest_serve_timeouts_total", "estimate requests that exceeded their deadline")
	mInflight  = obs.DefGauge("maest_serve_inflight", "estimate requests currently holding a concurrency slot")
	mServeSec  = obs.DefHistogram("maest_serve_request_seconds", "estimate request latency", obs.DefBuckets)
	mBatchSize = obs.DefHistogram("maest_serve_batch_modules", "modules per batch request", obs.CountBuckets)
)

// Options configures a Server.  The zero value serves with sensible
// production defaults (nmos25, 1024-plan cache, 2×GOMAXPROCS
// concurrent estimates, 30 s deadline, 8 MiB request bodies).
type Options struct {
	// Process is the default built-in process for requests that do
	// not name one.  Empty means "nmos25".
	Process string
	// CacheSize is the plan cache capacity in compiled plans (each
	// plan's memo holds every answer computed against it); 0 selects
	// 1024, negative disables caching.
	CacheSize int
	// MaxConcurrent bounds the estimate requests running at once;
	// excess requests are shed with 429.  0 selects 2×GOMAXPROCS.
	MaxConcurrent int
	// Timeout is the per-request estimation deadline; 0 selects 30 s.
	Timeout time.Duration
	// MaxRequestBytes bounds request bodies; 0 selects 8 MiB.
	MaxRequestBytes int64
	// Workers sizes the batch endpoint's default worker pool
	// (overridable per request); 0 selects GOMAXPROCS.
	Workers int
	// RetryAfter is the Retry-After hint, in seconds, sent with 429
	// responses when load is shed; 0 selects 1 s.  Operators running
	// aggressive floorplanner loops raise it to spread retry storms.
	RetryAfter int
	// JobWorkers bounds the floorplan jobs annealing at once; 0
	// selects 2.  Workers start lazily on the first submitted job.
	JobWorkers int
	// JobQueue is the pending floorplan job queue depth; submits
	// beyond it are shed with 429 and Retry-After.  0 selects 32.
	JobQueue int
	// EstimateHook, when non-nil, runs while a request holds its
	// concurrency slot, before estimation begins.  It exists so
	// end-to-end tests can hold a slot open deterministically; leave
	// nil in production.
	EstimateHook func()
	// FlightSize is the flight-recorder capacity: the number of recent
	// request records kept for the /debug/flight and /debug/slowest
	// observatory endpoints.  0 disables the recorder (the telemetry
	// adds nothing to the request path then).
	FlightSize int
	// AccessLog, when non-nil, receives one structured JSON line per
	// request (method, path, status, duration, request ID, cache hit).
	AccessLog io.Writer
	// Store, when non-nil, is the persistent plan store mounted as a
	// write-behind tier under the plan cache: a plan-memo miss probes
	// the store before paying for the execute (a hit is installed into
	// the memo), and computed results are persisted asynchronously.
	// The caller owns the store's lifecycle; call Server.FlushStore
	// before closing it.
	Store *store.Store
	// TraceStore, when non-nil, persists tail-sampled request traces
	// (write-behind, NSTrace namespace) and enables the /debug/trace*
	// and /debug/plans observatory endpoints.  It may be the same store
	// as Store or a dedicated one; the caller owns its lifecycle — call
	// Server.FlushTraces before closing it.
	TraceStore *store.Store
	// Sample is the tail-sampling policy deciding which traces reach
	// TraceStore.  The zero value selects the default (keep errors,
	// keep the ≥100 ms tail, 5% baseline).  Ignored without TraceStore.
	Sample obs.SamplePolicy
}

// withDefaults resolves the zero-value knobs.
func (o Options) withDefaults() Options {
	if o.Process == "" {
		o.Process = "nmos25"
	}
	if o.CacheSize == 0 {
		o.CacheSize = 1024
	}
	if o.MaxConcurrent == 0 {
		o.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if o.Timeout == 0 {
		o.Timeout = 30 * time.Second
	}
	if o.MaxRequestBytes == 0 {
		o.MaxRequestBytes = 8 << 20
	}
	if o.RetryAfter == 0 {
		o.RetryAfter = 1
	}
	if o.JobWorkers == 0 {
		o.JobWorkers = 2
	}
	if o.JobQueue == 0 {
		o.JobQueue = 32
	}
	return o
}

// Server is the estimation service.  It implements http.Handler:
//
//	POST   /v1/estimate        one circuit
//	POST   /v1/estimate/batch  a chip's worth of circuits
//	POST   /v1/estimate/delta  ECO edits against a cached plan
//	POST   /v1/congestion      one circuit's congestion map
//	POST   /v1/floorplan       submit an async floorplan job
//	GET    /v1/jobs/{id}       poll a floorplan job
//	DELETE /v1/jobs/{id}       cancel a floorplan job
//	GET    /healthz            liveness
//	GET    /metrics            Prometheus text exposition
//
// The health and metrics endpoints bypass the concurrency limiter so
// they stay responsive under overload.
type Server struct {
	opts     Options
	plans    *PlanCache // the one in-memory cache; plan memos hold the answers
	slots    chan struct{}
	mux      *http.ServeMux
	flight   *obs.Flight   // nil when the recorder is disabled
	access   *accessLogger // nil when access logging is disabled
	stier    *storeTier    // nil when the persistent store is disabled
	ttier    *traceTier    // nil when the trace store is disabled
	sampler  *obs.TailSampler
	profiles *planProfiles // nil when request telemetry is fully off
	jobs     *jobManager
}

// New returns a Server ready to mount on an http.Server.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	obs.RegisterBuildInfo()
	s := &Server{
		opts:   opts,
		plans:  NewPlanCache(opts.CacheSize),
		slots:  make(chan struct{}, opts.MaxConcurrent),
		mux:    http.NewServeMux(),
		flight: obs.NewFlight(opts.FlightSize),
	}
	if opts.AccessLog != nil {
		s.access = newAccessLogger(opts.AccessLog)
	}
	if opts.Store != nil {
		s.stier = newStoreTier(opts.Store)
	}
	if opts.TraceStore != nil {
		pol := opts.Sample
		if pol == (obs.SamplePolicy{}) {
			pol = obs.SamplePolicy{Rate: 0.05, SlowMicros: 100_000, KeepErrors: true}
		}
		s.sampler = obs.NewTailSampler(pol)
		s.ttier = newTraceTier(opts.TraceStore)
	}
	if s.flight != nil || s.ttier != nil {
		s.profiles = newPlanProfiles(planProfileCap)
	}
	s.jobs = newJobManager(s, opts.JobWorkers, opts.JobQueue)
	s.mux.HandleFunc("POST /v1/estimate", s.instrument("/v1/estimate", s.handleEstimate))
	s.mux.HandleFunc("POST /v1/estimate/batch", s.instrument("/v1/estimate/batch", s.handleBatch))
	s.mux.HandleFunc("POST /v1/estimate/delta", s.instrument("/v1/estimate/delta", s.handleDelta))
	s.mux.HandleFunc("POST /v1/congestion", s.instrument("/v1/congestion", s.handleCongestion))
	s.mux.HandleFunc("POST /v1/floorplan", s.instrument("/v1/floorplan", s.handleFloorplan))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("/v1/jobs", s.handleJobGet))
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.instrument("/v1/jobs", s.handleJobCancel))
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// ServeHTTP dispatches to the service routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// PlanCache returns the compiled-plan cache (nil when disabled).
func (s *Server) PlanCache() *PlanCache { return s.plans }

// plan returns the compiled plan under content address k (the plan
// hash of circ under proc), compiling on a plan-cache miss.  Every
// endpoint resolves plans here, which is what makes an estimate
// followed by a congestion question on the same body share one
// parse/gather — and one memo.
func (s *Server) plan(ctx context.Context, k Key, circ *netlist.Circuit, proc *tech.Process) (*engine.Plan, error) {
	if pl, ok := s.plans.Get(k); ok {
		return pl, nil
	}
	pl, err := engine.CompileCtx(ctx, circ, proc)
	if err != nil {
		return nil, err
	}
	return s.plans.Put(k, pl), nil
}

// render appends a circuit's canonical rendering to dst and returns it
// with the circuit's plan hash.
func render(dst []byte, circ *netlist.Circuit, proc *tech.Process) ([]byte, Key) {
	canon := engine.AppendCanonicalCircuit(dst, circ)
	return canon, Key(engine.HashCanonical(canon, proc))
}

// resolve routes one circuit source to its compiled plan, returning the
// plan, its content address and the midstate its answer keys finish
// from.  A source the plan cache has seen under this process takes the
// alias: no parse, render or hash.  Any other source takes the
// canonical route — parse, render, plan hash, plan (compile on a miss)
// — and then registers its alias, so the next repeat takes the alias.
// Errors register nothing.  info (nil in batch) gets the route's
// stages: "alias", or "parse" and "compile".
func (s *Server) resolve(ctx context.Context, info *reqInfo, format, name, source string, proc *tech.Process, procName string) (*engine.Plan, Key, midstate, error) {
	var alias Key
	if s.plans != nil {
		alias = sourceAlias(procName, format, name, source)
		if pl, planKey, mid, ok := s.plans.lookupAlias(alias); ok {
			info.setPlan(planKey)
			info.mark("alias")
			return pl, planKey, mid, nil
		}
	}
	circ, err := parseCircuit(format, name, source, proc)
	if err != nil {
		return nil, Key{}, nil, err
	}
	info.mark("parse")
	buf := canonPool.Get().(*[]byte)
	canon, planKey := render((*buf)[:0], circ, proc)
	mid := midstateOf(canon)
	*buf = canon
	canonPool.Put(buf)
	info.setPlan(planKey)
	pl, err := s.plan(ctx, planKey, circ, proc)
	if err != nil {
		return nil, Key{}, nil, err
	}
	info.mark("compile")
	s.plans.setAlias(alias, planKey, mid)
	return pl, planKey, mid, nil
}

// estimateOpts is the engine knob list of one estimate question.
func estimateOpts(rows int, sharing bool) []engine.Option {
	return []engine.Option{engine.WithRows(rows), engine.WithTrackSharing(sharing)}
}

// cachedEstimate answers an estimate from the plan's memo or, failing
// that, the persistent store; a store hit is installed into the memo so
// the next repeat is served from memory.  stored reports a store hit.
func (s *Server) cachedEstimate(pl *engine.Plan, key Key, opts []engine.Option) (res *core.Result, hit, stored bool) {
	if res, ok := pl.CachedEstimate(opts...); ok {
		mEstimateHits.Inc()
		return res, true, false
	}
	mEstimateMiss.Inc()
	if res, ok := load[core.Result](s.stier, store.NSResult, key); ok {
		pl.InstallEstimate(res, opts...)
		return res, true, true
	}
	return nil, false, false
}

// estimate resolves one estimate against a resolved plan: memo, then
// store, then the estimator, whose fresh answer persists write-behind.
// hit reports whether the answer came from either cache.
func (s *Server) estimate(ctx context.Context, pl *engine.Plan, key Key, opts []engine.Option, info *reqInfo) (*core.Result, bool, error) {
	res, hit, stored := s.cachedEstimate(pl, key, opts)
	info.setCacheHit(hit)
	info.setStoreHit(stored)
	info.mark("cache")
	if hit {
		return res, true, nil
	}
	res, err := s.estimateWithDeadline(ctx, pl, opts, key)
	if err != nil {
		return nil, false, err
	}
	info.mark("estimate")
	return res, false, nil
}

// StoreStats snapshots the persistent store (ok=false when disabled).
func (s *Server) StoreStats() (store.Stats, bool) {
	return s.stier.stats()
}

// TraceStats snapshots the trace tier's counters (ok=false when no
// trace store is mounted).
func (s *Server) TraceStats() (TraceTierStats, bool) {
	return s.ttier.tierStats()
}

// FlushStore drains the floorplan job pool and the write-behind queue
// so every result computed so far is persisted.  Call during shutdown,
// after the HTTP listener has drained and before closing the store.
// In-flight floorplan jobs are cancelled, marked cancelled in the
// store, and their worker goroutines joined — no job goroutine
// survives this call.  Safe to call more than once, and a no-op when
// no store is configured (the job pool still drains).
func (s *Server) FlushStore() {
	s.jobs.drain()
	s.stier.flush()
}

// FlushTraces drains the trace tier's write-behind queue and stops
// intake.  Call during shutdown, before closing the trace store.  Safe
// to call more than once, and a no-op when no trace store is mounted.
func (s *Server) FlushTraces() {
	s.ttier.flush()
}

// SyncTraces blocks until every trace sampled so far has been
// persisted, without stopping intake — the deterministic settling
// point tests use before asserting on the trace store.  A no-op when
// no trace store is mounted.
func (s *Server) SyncTraces() {
	s.ttier.sync()
}

// Flight returns the server's flight recorder (nil when disabled).
func (s *Server) Flight() *obs.Flight { return s.flight }

// acquire claims a concurrency slot without blocking; callers that
// fail to acquire must answer 429.
func (s *Server) acquire() bool {
	select {
	case s.slots <- struct{}{}:
		mInflight.Add(1)
		return true
	default:
		return false
	}
}

func (s *Server) release() {
	<-s.slots
	mInflight.Add(-1)
}

// writeJSON answers with a JSON body; encoding failures are already
// committed (headers sent) so they are deliberately dropped.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// writeError maps an error to its HTTP status and JSON body.  The
// body carries the request and trace IDs (when telemetry is enabled)
// so the client of a failed request can quote the identifiers that
// find it in the access log and flight recorder.
func writeError(w http.ResponseWriter, info *reqInfo, err error) {
	mErrors.Inc()
	status := http.StatusInternalServerError
	var maxErr *http.MaxBytesError
	switch {
	case errors.As(err, &maxErr):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, errBadRequest):
		status = http.StatusBadRequest
	case errors.Is(err, core.ErrEstimate),
		errors.Is(err, congest.ErrCongest),
		errors.Is(err, netlist.ErrInvalidCircuit):
		// The request was well-formed but the circuit cannot be
		// estimated (unknown device, mixed methodologies, …).
		status = http.StatusUnprocessableEntity
	case errors.Is(err, errUnknownParent), errors.Is(err, errUnknownJob):
		// The named parent plan aged out of the plan cache, or the
		// polled job id is known neither in memory nor on disk.  The
		// client's defined fallback for a missing parent is a full
		// /v1/estimate, whose answer mints a fresh plan key; for a
		// missing job it is a resubmit.
		status = http.StatusNotFound
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		mTimeouts.Inc()
		status = http.StatusGatewayTimeout
	}
	writeJSON(w, status, ErrorResponse{
		Error:     err.Error(),
		RequestID: info.requestID(),
		TraceID:   info.traceID(),
	})
}

// reject sheds one request with 429 and the configured Retry-After
// hint.
func (s *Server) reject(w http.ResponseWriter, info *reqInfo) {
	mRejected.Inc()
	info.fail(errors.New("serve: concurrency limit reached"))
	w.Header().Set("Retry-After", strconv.Itoa(s.opts.RetryAfter))
	writeJSON(w, http.StatusTooManyRequests, ErrorResponse{
		Error:     "serve: concurrency limit reached, retry later",
		RequestID: info.requestID(),
		TraceID:   info.traceID(),
	})
}

// fail records the outcome on the request's telemetry and renders the
// error response — the handlers' single error exit.
func (s *Server) fail(w http.ResponseWriter, info *reqInfo, err error) {
	info.fail(err)
	writeError(w, info, err)
}

// handleEstimate answers POST /v1/estimate: decode → plan → memo →
// store → estimate → encode, the Fig. 1 flow as a request/response
// pipeline.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request, info *reqInfo) {
	if !s.acquire() {
		s.reject(w, info)
		return
	}
	defer s.release()
	if s.opts.EstimateHook != nil {
		s.opts.EstimateHook()
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.opts.Timeout)
	defer cancel()

	var req EstimateRequest
	if err := decodeBody(w, r, s.opts.MaxRequestBytes, &req); err != nil {
		s.fail(w, info, err)
		return
	}
	info.mark("decode")
	proc, procName, err := lookupProcess(req.Process, s.opts.Process)
	if err != nil {
		s.fail(w, info, err)
		return
	}
	// The plan resolves first even when the answer is cached, so the
	// answer's plan key stays chainable: a warm restart serves results
	// this process never computed, and an ECO delta against them must
	// find the parent plan, not a 404.
	pl, planKey, mid, err := s.resolve(ctx, info, req.Format, req.Name, req.Netlist, proc, procName)
	if err != nil {
		s.fail(w, info, err)
		return
	}
	key := resultKey(mid, procName, req.Rows, req.TrackSharing)
	info.setDigest(key)
	res, hit, err := s.estimate(ctx, pl, key, estimateOpts(req.Rows, req.TrackSharing), info)
	if err != nil {
		s.fail(w, info, err)
		return
	}
	resp := encodeResult(res, procName, key, hit)
	resp.Plan = planKey.String()
	writeJSON(w, http.StatusOK, resp)
}

// handleDelta answers POST /v1/estimate/delta: the ECO loop's fast
// path.  The request names a previously compiled plan by content
// address and carries a typed edit script; the engine's incremental
// Delta route produces the child plan — bit-identical to recompiling
// the edited netlist — which is cached under its content address, so
// a delta answer and a full /v1/estimate of the edited circuit resolve
// to one plan and share its memo in both directions.
func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request, info *reqInfo) {
	if !s.acquire() {
		s.reject(w, info)
		return
	}
	defer s.release()
	if s.opts.EstimateHook != nil {
		s.opts.EstimateHook()
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.opts.Timeout)
	defer cancel()

	var req DeltaRequest
	if err := decodeBody(w, r, s.opts.MaxRequestBytes, &req); err != nil {
		s.fail(w, info, err)
		return
	}
	info.mark("decode")
	parentKey, err := parseKey(req.Parent)
	if err != nil {
		s.fail(w, info, err)
		return
	}
	// A resize_rows edit is the script's row default, not an edit of the
	// circuit: it stays here as an execute knob and never reaches
	// Plan.Delta, so the plan cache only ever holds plain compiles.
	edits, scriptRows, err := decodeEdits(req.Edits)
	if err != nil {
		s.fail(w, info, err)
		return
	}
	parent, ok := s.plans.Get(parentKey)
	if !ok {
		s.fail(w, info, fmt.Errorf("%w: %s", errUnknownParent, req.Parent))
		return
	}
	child, err := parent.DeltaCtx(ctx, edits...)
	if err != nil {
		s.fail(w, info, err)
		return
	}
	childKey := Key(child.Hash())
	child = s.plans.Put(childKey, child)
	info.mark("delta")

	// The child's process name came through the plan (the parent's, or
	// the swap_process target).  Folding it and the resolved rows into
	// the result key is what makes a delta answer and a full estimate of
	// the same edited circuit the same content address — and keeps a
	// resized answer from colliding with §5 automatic rows.
	procName := child.Process().Name
	rows := req.Rows
	if rows == 0 {
		rows = scriptRows
	}
	key := resultKey(canonMidstate(child.Circuit()), procName, rows, req.TrackSharing)
	info.setDigest(key)
	info.setPlan(childKey)
	res, hit, err := s.estimate(ctx, child, key, estimateOpts(rows, req.TrackSharing), info)
	if err != nil {
		s.fail(w, info, err)
		return
	}
	resp := encodeResult(res, procName, key, hit)
	resp.Plan = childKey.String()
	writeJSON(w, http.StatusOK, resp)
}

// estimateWithDeadline runs one estimate against a compiled plan,
// honoring ctx.  The estimator itself is not preemptible, so on
// timeout the answer is 504 while the computation finishes on its
// goroutine, still filling the plan's memo and the store — an
// immediate retry of the same request becomes a hit.
func (s *Server) estimateWithDeadline(ctx context.Context, pl *engine.Plan, opts []engine.Option, key Key) (*core.Result, error) {
	type outcome struct {
		res *core.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := pl.Estimate(ctx, opts...)
		if err == nil {
			s.stier.put(store.NSResult, key, res)
		}
		done <- outcome{res, err}
	}()
	var o outcome
	select {
	case o = <-done:
	case <-ctx.Done():
	}
	// An answer landing after the deadline is still late: the check
	// makes the 504 deterministic instead of a coin flip between two
	// ready channels.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return o.res, o.err
}

// handleBatch answers POST /v1/estimate/batch: resolve every module's
// plan and check its memo and the store, fan the misses out through
// the engine's worker pool, and merge, preserving request order.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, info *reqInfo) {
	if !s.acquire() {
		s.reject(w, info)
		return
	}
	defer s.release()
	if s.opts.EstimateHook != nil {
		s.opts.EstimateHook()
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.opts.Timeout)
	defer cancel()

	var req BatchRequest
	if err := decodeBody(w, r, s.opts.MaxRequestBytes, &req); err != nil {
		s.fail(w, info, err)
		return
	}
	info.mark("decode")
	if len(req.Modules) == 0 {
		s.fail(w, info, reqErr("batch has no modules"))
		return
	}
	mBatchSize.Observe(float64(len(req.Modules)))
	proc, procName, err := lookupProcess(req.Process, s.opts.Process)
	if err != nil {
		s.fail(w, info, err)
		return
	}
	opts := estimateOpts(req.Rows, req.TrackSharing)

	keys := make([]Key, len(req.Modules))
	results := make([]*core.Result, len(req.Modules))
	cached := make([]bool, len(req.Modules))
	hits := 0
	var missPlans []*engine.Plan
	var missIdx []int
	for i, m := range req.Modules {
		pl, _, mid, err := s.resolve(ctx, nil, m.Format, m.Name, m.Netlist, proc, procName)
		if errors.Is(err, errBadRequest) {
			s.fail(w, info, reqErr("module %d: %v", i, err))
			return
		}
		if err != nil {
			s.fail(w, info, err)
			return
		}
		keys[i] = resultKey(mid, procName, req.Rows, req.TrackSharing)
		// Store hits count as cached modules: the disk tier is part of
		// the cache from the wire's view.
		if res, hit, _ := s.cachedEstimate(pl, keys[i], opts); hit {
			results[i] = res
			cached[i] = true
			hits++
		} else {
			missPlans = append(missPlans, pl)
			missIdx = append(missIdx, i)
		}
	}
	// A batch is recorded as a hit when every module came from cache;
	// its digest is the first module's key (the batch itself has no
	// single content address).
	info.setCacheHit(hits == len(req.Modules))
	info.setDigest(keys[0])
	info.mark("resolve+cache")

	if len(missPlans) > 0 {
		workers := req.Workers
		if workers <= 0 {
			workers = s.opts.Workers
		}
		fresh, err := engine.EstimatePlans(ctx, missPlans, append(opts, engine.WithWorkers(workers))...)
		if err != nil {
			s.fail(w, info, err)
			return
		}
		for j, res := range fresh {
			i := missIdx[j]
			results[i] = res
			s.stier.put(store.NSResult, keys[i], res)
		}
	}
	info.mark("estimate")

	resp := BatchResponse{Process: procName, CacheHits: hits}
	for i, res := range results {
		resp.Modules = append(resp.Modules, encodeResult(res, procName, keys[i], cached[i]))
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleCongestion answers POST /v1/congestion: decode → plan → memo →
// store → analyze → encode.  The congestion map is deterministic in
// the request content, so answers are persisted under the same
// content-addressed key scheme as estimates (congestKey folds in the
// analysis knobs the estimate key does not have).
func (s *Server) handleCongestion(w http.ResponseWriter, r *http.Request, info *reqInfo) {
	if !s.acquire() {
		s.reject(w, info)
		return
	}
	defer s.release()
	if s.opts.EstimateHook != nil {
		s.opts.EstimateHook()
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.opts.Timeout)
	defer cancel()

	var req CongestionRequest
	if err := decodeBody(w, r, s.opts.MaxRequestBytes, &req); err != nil {
		s.fail(w, info, err)
		return
	}
	info.mark("decode")
	model, err := congest.ParseModel(req.Model)
	if err != nil {
		s.fail(w, info, reqErr("%v", err))
		return
	}
	if req.Rows < 0 {
		s.fail(w, info, reqErr("negative rows %d", req.Rows))
		return
	}
	proc, procName, err := lookupProcess(req.Process, s.opts.Process)
	if err != nil {
		s.fail(w, info, err)
		return
	}
	// The compiled plan supplies the gathered statistics (shared with
	// any earlier /v1/estimate on the same body via the plan cache)
	// and the resolved row count the content address names: §5
	// automatic rows for standard cells, the ⌈√N⌉ grid for full custom.
	pl, _, mid, err := s.resolve(ctx, info, req.Format, req.Name, req.Netlist, proc, procName)
	if err != nil {
		s.fail(w, info, err)
		return
	}
	// Feasible rows are 1..N, one device per row at most; the analysis
	// allocates per channel, so an unbounded count must not reach it.
	if n := pl.Stats().N; req.Rows > n {
		s.fail(w, info, reqErr("rows %d exceeds the module's %d devices", req.Rows, n))
		return
	}
	rows := req.Rows
	if rows == 0 {
		if req.Gridded {
			rows = congest.GridRows(pl.Stats())
		} else {
			rows = pl.InitialRows()
		}
	}
	key := congestKey(mid, procName, rows, req.Gridded,
		congest.Options{Model: model, Capacity: req.Capacity, FeedBudget: req.FeedBudget})
	info.setDigest(key)
	opts := []engine.Option{engine.WithRows(rows), engine.WithGridded(req.Gridded), engine.WithCongestModel(model),
		engine.WithCapacity(req.Capacity), engine.WithFeedBudget(req.FeedBudget)}
	m, hit := pl.CachedCongestion(opts...)
	if hit {
		mCongestHits.Inc()
	} else {
		mCongestMiss.Inc()
		if m, hit = load[congest.Map](s.stier, store.NSCongest, key); hit {
			pl.InstallCongestion(m, opts...)
			info.setStoreHit(true)
		}
	}
	info.setCacheHit(hit)
	info.mark("cache")
	if !hit {
		if m, err = pl.Congestion(ctx, opts...); err != nil {
			s.fail(w, info, err)
			return
		}
		info.mark("analyze")
		s.stier.put(store.NSCongest, key, m)
	}
	writeJSON(w, http.StatusOK, encodeMap(m, procName, key, hit))
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{Status: "ok"}
	if st, ok := s.StoreStats(); ok {
		// A degraded store (corrupt records detected and skipped) does
		// NOT fail health: answers stay correct — bad records degrade
		// to recomputes — so the service keeps taking traffic while the
		// store block tells operators the disk lied.
		resp.Store = storeHealth(st)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	obs.Default.WritePrometheus(w)
}
