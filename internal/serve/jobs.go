package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"maest/internal/engine"
	"maest/internal/floorplan"
	"maest/internal/netlist"
	"maest/internal/obs"
	"maest/internal/store"
	"maest/internal/tech"
)

// The async floorplan job subsystem.  POST /v1/floorplan validates
// and content-addresses the request synchronously, then hands the
// anneal to a bounded worker pool; GET /v1/jobs/{id} polls progress
// (accepted → annealing with live iteration count and best cost →
// done/failed/cancelled) and DELETE /v1/jobs/{id} cancels.  Finished
// jobs persist write-behind into store.NSFloorplan under the job id,
// so a completed plan survives a restart and polls rehydrate from
// disk, byte-identical.
var (
	mJobsSubmitted = obs.DefCounter("maest_serve_jobs_submitted_total", "floorplan jobs accepted")
	mJobsDone      = obs.DefCounter("maest_serve_jobs_done_total", "floorplan jobs finished successfully")
	mJobsFailed    = obs.DefCounter("maest_serve_jobs_failed_total", "floorplan jobs finished in error")
	mJobsCancelled = obs.DefCounter("maest_serve_jobs_cancelled_total", "floorplan jobs cancelled")
	mJobsRejected  = obs.DefCounter("maest_serve_jobs_rejected_total", "floorplan jobs shed with 429 (queue full or draining)")
	gJobsRunning   = obs.DefGauge("maest_serve_jobs_running", "floorplan jobs currently annealing")
	mJobSec        = obs.DefHistogram("maest_serve_job_seconds", "floorplan job wall time", obs.DefBuckets)
)

// maxJobBudget caps a job's annealing move budget at 500× the
// default: an 8-module chip anneals about a minute at the cap, where an
// unbounded budget could hold a job worker for days.  A larger budget
// answers 400.
const maxJobBudget = 500 * floorplan.DefaultBudget

// jobConfig is the resolved annealer knob set of one job.
type jobConfig struct {
	congestWeight float64
	wireWeight    float64
	seed          int64
	budget        int
	candidates    int
	trackSharing  bool
}

// job is one floorplan request moving through the lifecycle.  The
// mutex guards state and progress; inputs are immutable after submit
// and released at the terminal transition (only execute reads them),
// and the result is immutable after it.
type job struct {
	id  string
	key Key

	chip     string
	procName string
	proc     *tech.Process
	circs    []*netlist.Circuit
	planKeys []Key // plan hash of each circuit, in circs order
	nets     []floorplan.Net
	cfg      jobConfig

	mu         sync.Mutex
	state      string
	iterations int64
	bestCost   float64
	errMsg     string
	result     *FloorplanResult
	cancelFn   context.CancelFunc

	done chan struct{} // closed on the terminal transition
}

// finish releases the inputs and closes done; the caller holds j.mu
// and has set the terminal state.  A finished job keeps only what its
// snapshot renders, not the parsed circuits.
func (j *job) finish() {
	j.circs, j.planKeys, j.nets = nil, nil, nil
	close(j.done)
}

// snapshot renders the job's current lifecycle view — the one shape
// every job-API answer and the persisted record share.
func (j *job) snapshot() *JobResponse {
	j.mu.Lock()
	defer j.mu.Unlock()
	return &JobResponse{
		ID:         j.id,
		State:      j.state,
		Iterations: j.iterations,
		BestCost:   j.bestCost,
		Error:      j.errMsg,
		Result:     j.result,
	}
}

// jobManager runs the worker pool.  Workers start lazily on the first
// submit, so servers that never see a floorplan job spawn no
// goroutines; drain stops the pool and is what FlushStore calls, so
// no job goroutine survives it.
type jobManager struct {
	s       *Server
	queue   chan *job
	workers int
	ctx     context.Context
	cancel  context.CancelFunc

	start     sync.Once
	wg        sync.WaitGroup
	drainOnce sync.Once

	mu       sync.Mutex
	jobs     map[string]*job
	draining bool
}

func newJobManager(s *Server, workers, queueLen int) *jobManager {
	ctx, cancel := context.WithCancel(context.Background())
	return &jobManager{
		s:       s,
		queue:   make(chan *job, queueLen),
		workers: workers,
		ctx:     ctx,
		cancel:  cancel,
		jobs:    map[string]*job{},
	}
}

// errJobQueueFull marks a submit shed because the queue is full or the
// manager is draining; the handler answers 429 with Retry-After.
var errJobQueueFull = errors.New("serve: job queue full")

// submit registers a job and enqueues it.  Submits are idempotent in
// the job id (the content address of the request): a duplicate submit
// answers the existing job's snapshot, and a finished record from a
// previous process life answers straight from the store.
func (jm *jobManager) submit(j *job) (*JobResponse, int, error) {
	jm.mu.Lock()
	if existing, ok := jm.jobs[j.id]; ok {
		jm.mu.Unlock()
		return existing.snapshot(), http.StatusOK, nil
	}
	draining := jm.draining
	jm.mu.Unlock()
	if draining {
		return nil, 0, errJobQueueFull
	}
	if rec, ok := jm.persisted(j.key); ok {
		return rec, http.StatusOK, nil
	}
	jm.mu.Lock()
	defer jm.mu.Unlock()
	if existing, ok := jm.jobs[j.id]; ok {
		return existing.snapshot(), http.StatusOK, nil
	}
	if jm.draining {
		return nil, 0, errJobQueueFull
	}
	jm.jobs[j.id] = j
	// Snapshot before a worker can pick the job up: a 202 describes an
	// accepted job, however soon its anneal finishes.
	accepted := j.snapshot()
	select {
	case jm.queue <- j:
	default:
		delete(jm.jobs, j.id)
		return nil, 0, errJobQueueFull
	}
	jm.start.Do(func() {
		for i := 0; i < jm.workers; i++ {
			jm.wg.Add(1)
			go jm.worker()
		}
	})
	mJobsSubmitted.Inc()
	return accepted, http.StatusAccepted, nil
}

// get answers a poll: memory first, then the persistent store.
func (jm *jobManager) get(id string) (*JobResponse, error) {
	jm.mu.Lock()
	j, ok := jm.jobs[id]
	jm.mu.Unlock()
	if ok {
		return j.snapshot(), nil
	}
	key, err := parseKey(id)
	if err != nil {
		return nil, err
	}
	if rec, ok := jm.persisted(key); ok {
		return rec, nil
	}
	return nil, fmt.Errorf("%w: %s", errUnknownJob, id)
}

// cancelJob cancels a job.  Terminal jobs (including already
// cancelled ones) answer their snapshot unchanged, which is what
// makes double-cancel idempotent; queued jobs transition immediately;
// running jobs get their context cancelled and the call waits briefly
// for the anneal loop to notice (it checks every move).
func (jm *jobManager) cancelJob(ctx context.Context, id string) (*JobResponse, error) {
	jm.mu.Lock()
	j, ok := jm.jobs[id]
	jm.mu.Unlock()
	if !ok {
		key, err := parseKey(id)
		if err != nil {
			return nil, err
		}
		if rec, ok := jm.persisted(key); ok {
			// Persisted records are terminal by construction: cancel is
			// a no-op.
			return rec, nil
		}
		return nil, fmt.Errorf("%w: %s", errUnknownJob, id)
	}
	j.mu.Lock()
	switch j.state {
	case JobAccepted:
		j.state = JobCancelled
		j.finish()
		j.mu.Unlock()
		mJobsCancelled.Inc()
		jm.persist(j)
		return j.snapshot(), nil
	case JobAnnealing:
		cancel := j.cancelFn
		j.mu.Unlock()
		cancel()
		select {
		case <-j.done:
		case <-ctx.Done():
		case <-time.After(2 * time.Second):
		}
		return j.snapshot(), nil
	default: // terminal
		j.mu.Unlock()
		return j.snapshot(), nil
	}
}

func (jm *jobManager) worker() {
	defer jm.wg.Done()
	for {
		select {
		case <-jm.ctx.Done():
			return
		case j := <-jm.queue:
			jm.runJob(j)
		}
	}
}

// runJob drives one job through annealing to a terminal state.
func (jm *jobManager) runJob(j *job) {
	j.mu.Lock()
	if j.state != JobAccepted {
		// Cancelled while queued; already terminal and persisted.
		j.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(jm.ctx)
	j.cancelFn = cancel
	j.state = JobAnnealing
	j.mu.Unlock()
	defer cancel()

	gJobsRunning.Add(1)
	t0 := time.Now()
	result, err := jm.execute(ctx, j)
	mJobSec.Observe(time.Since(t0).Seconds())
	gJobsRunning.Add(-1)

	j.mu.Lock()
	switch {
	case err == nil:
		j.state = JobDone
		j.result = result
		mJobsDone.Inc()
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil:
		j.state = JobCancelled
		mJobsCancelled.Inc()
	default:
		j.state = JobFailed
		j.errMsg = err.Error()
		mJobsFailed.Inc()
	}
	j.finish()
	j.mu.Unlock()
	jm.persist(j)
}

// execute resolves every module through the shared plan cache (one
// compile per module across the CLI, /v1/estimate and the job API)
// and runs the Plan-driven annealer.
func (jm *jobManager) execute(ctx context.Context, j *job) (*FloorplanResult, error) {
	ctx, sp := obs.Start(ctx, "floorplan.job")
	sp.SetString("job", j.id)
	sp.SetInt("modules", int64(len(j.circs)))
	var err error
	defer func() { sp.EndErr(err) }()

	mods := make([]floorplan.PlanModule, len(j.circs))
	for i, c := range j.circs {
		var pl *engine.Plan
		pl, err = jm.s.plan(ctx, j.planKeys[i], c, j.proc)
		if err != nil {
			return nil, err
		}
		mods[i] = floorplan.PlanModule{Name: c.Name, Plan: pl}
	}
	var plan *floorplan.Plan
	plan, err = floorplan.PlanModules(ctx, j.chip, mods, j.nets,
		floorplan.WithCongestWeight(j.cfg.congestWeight),
		floorplan.WithWireWeight(j.cfg.wireWeight),
		floorplan.WithSeed(j.cfg.seed),
		floorplan.WithBudget(j.cfg.budget),
		floorplan.WithCandidates(j.cfg.candidates),
		floorplan.WithTrackSharing(j.cfg.trackSharing),
		floorplan.WithProgress(func(p floorplan.Progress) {
			j.mu.Lock()
			j.iterations = int64(p.Iteration)
			j.bestCost = p.Best
			j.mu.Unlock()
		}))
	if err != nil {
		return nil, err
	}
	return encodeFloorplan(plan, j.procName, j.cfg), nil
}

// persist writes a terminal job record into NSFloorplan, write-behind.
func (jm *jobManager) persist(j *job) {
	jm.s.stier.put(store.NSFloorplan, j.key, j.snapshot())
}

// persisted probes the store for a finished record from a previous
// process life; float64 JSON round trips are exact, so the re-encoded
// poll answer is byte-identical across a restart.
func (jm *jobManager) persisted(key Key) (*JobResponse, bool) {
	return load[JobResponse](jm.s.stier, store.NSFloorplan, key)
}

// drain stops the worker pool for shutdown: running anneals are
// cancelled (they notice within one move), queued jobs transition to
// cancelled, and every terminal record is persisted before the store
// tier flushes.  Idempotent; after drain every submit answers 429.
func (jm *jobManager) drain() {
	jm.drainOnce.Do(func() {
		jm.mu.Lock()
		jm.draining = true
		jm.mu.Unlock()
		jm.cancel()
		jm.wg.Wait()
		for {
			select {
			case j := <-jm.queue:
				j.mu.Lock()
				transitioned := j.state == JobAccepted
				if transitioned {
					j.state = JobCancelled
					j.finish()
				}
				j.mu.Unlock()
				if transitioned {
					mJobsCancelled.Inc()
					jm.persist(j)
				}
			default:
				return
			}
		}
	})
}

// jobID content-addresses a floorplan request: the SHA-256 of the
// canonical module renderings, the nets and the resolved knobs.
// Identical requests — byte-level differences in netlist formatting
// included — share one job, which is also what lets a restarted
// server answer a resubmit from the persisted record.  The fields are
// written without framing, so handleFloorplan rejects the separator
// bytes they could carry; two different requests then never hash
// alike.
func jobID(chip, procName string, canons [][]byte, nets []floorplan.Net, cfg jobConfig) (string, Key) {
	h := sha256.New()
	io.WriteString(h, "maest-floorplan-job-v1\x00")
	io.WriteString(h, chip)
	h.Write([]byte{0})
	io.WriteString(h, procName)
	h.Write([]byte{0})
	fmt.Fprintf(h, "cw=%g ww=%g seed=%d budget=%d cand=%d ts=%t\x00",
		cfg.congestWeight, cfg.wireWeight, cfg.seed, cfg.budget, cfg.candidates, cfg.trackSharing)
	for _, canon := range canons {
		h.Write(canon)
		h.Write([]byte{0})
	}
	for _, n := range nets {
		io.WriteString(h, n.Name)
		for _, p := range n.Pins {
			io.WriteString(h, " "+p.Module+"."+p.Port)
		}
		h.Write([]byte{0})
	}
	var key Key
	h.Sum(key[:0])
	return hex.EncodeToString(key[:]), key
}

// encodeFloorplan converts a finished plan into its wire shape.
func encodeFloorplan(p *floorplan.Plan, procName string, cfg jobConfig) *FloorplanResult {
	out := &FloorplanResult{
		Chip:          p.Chip,
		Process:       procName,
		Width:         p.Width,
		Height:        p.Height,
		Area:          p.Area(),
		Utilization:   p.Utilization(),
		WireLength:    p.WireLength,
		Routability:   p.Routability,
		Cost:          p.Cost,
		Seed:          cfg.seed,
		Budget:        cfg.budget,
		CongestWeight: cfg.congestWeight,
		Iterations:    p.Stats.Iterations,
	}
	for _, b := range p.Blocks {
		out.Blocks = append(out.Blocks, PlacedBody{
			Name: b.Name, X: b.X, Y: b.Y, W: b.W, H: b.H,
			ShapeIndex: b.ShapeIndex, Rows: b.Rows,
		})
	}
	for _, mc := range p.Congestion {
		body := ModuleCongestBody{
			Module: mc.Module, Rows: mc.Rows, POverflowSum: mc.POverflowSum,
		}
		for _, ch := range mc.Channels {
			body.Channels = append(body.Channels, ChannelRiskBody{Index: ch.Index, POverflow: ch.POverflow})
		}
		out.Congestion = append(out.Congestion, body)
	}
	return out
}

// handleFloorplan answers POST /v1/floorplan: validate and
// content-address synchronously (bad requests fail fast with 4xx),
// then enqueue the anneal and answer 202 with the job id.  A
// duplicate of a known job answers 200 with its current snapshot.
func (s *Server) handleFloorplan(w http.ResponseWriter, r *http.Request, info *reqInfo) {
	var req FloorplanRequest
	if err := decodeBody(w, r, s.opts.MaxRequestBytes, &req); err != nil {
		s.fail(w, info, err)
		return
	}
	info.mark("decode")
	if len(req.Modules) == 0 {
		s.fail(w, info, reqErr("floorplan has no modules"))
		return
	}
	if req.Budget > maxJobBudget {
		s.fail(w, info, reqErr("budget %d exceeds the maximum of %d moves", req.Budget, maxJobBudget))
		return
	}
	proc, procName, err := lookupProcess(req.Process, s.opts.Process)
	if err != nil {
		s.fail(w, info, err)
		return
	}
	circs := make([]*netlist.Circuit, len(req.Modules))
	canons := make([][]byte, len(req.Modules))
	planKeys := make([]Key, len(req.Modules))
	names := make(map[string]bool, len(req.Modules))
	for i, m := range req.Modules {
		c, err := parseCircuit(m.Format, m.Name, m.Netlist, proc)
		if err != nil {
			s.fail(w, info, reqErr("module %d: %v", i, err))
			return
		}
		if names[c.Name] {
			s.fail(w, info, reqErr("duplicate module %q", c.Name))
			return
		}
		names[c.Name] = true
		circs[i] = c
		canons[i], planKeys[i] = render(nil, c, proc)
	}
	nets := make([]floorplan.Net, len(req.Nets))
	for i, n := range req.Nets {
		if strings.ContainsAny(n.Name, " \x00") {
			s.fail(w, info, reqErr("net %q: name contains a space or NUL", n.Name))
			return
		}
		pins := make([]floorplan.NetPin, len(n.Pins))
		for j, p := range n.Pins {
			if strings.ContainsAny(p.Module, " .\x00") || strings.ContainsAny(p.Port, " \x00") {
				s.fail(w, info, reqErr("net %q: pin %q.%q: a space or NUL, or a '.' in the module, would make the job id ambiguous", n.Name, p.Module, p.Port))
				return
			}
			if !names[p.Module] {
				s.fail(w, info, reqErr("net %q references unknown module %q", n.Name, p.Module))
				return
			}
			pins[j] = floorplan.NetPin{Module: p.Module, Port: p.Port}
		}
		nets[i] = floorplan.Net{Name: n.Name, Pins: pins}
	}
	info.mark("parse")

	cfg := jobConfig{
		congestWeight: req.CongestWeight,
		wireWeight:    req.WireWeight,
		seed:          req.Seed,
		budget:        req.Budget,
		candidates:    req.Candidates,
		trackSharing:  true,
	}
	// Resolve defaults before hashing, so semantically identical
	// requests share one job id.
	if cfg.seed == 0 {
		cfg.seed = floorplan.DefaultSeed
	}
	if cfg.budget == 0 {
		cfg.budget = floorplan.DefaultBudget
	} else if cfg.budget < 0 {
		cfg.budget = 0
	}
	if cfg.candidates <= 0 {
		cfg.candidates = floorplan.DefaultCandidates
	}
	if req.TrackSharing != nil {
		cfg.trackSharing = *req.TrackSharing
	}
	chip := req.Chip
	if chip == "" {
		chip = "chip"
	}
	if strings.IndexByte(chip, 0) >= 0 {
		s.fail(w, info, reqErr("chip name %q contains NUL", chip))
		return
	}

	id, key := jobID(chip, procName, canons, nets, cfg)
	info.setDigest(key)
	j := &job{
		id: id, key: key,
		chip: chip, procName: procName, proc: proc,
		circs: circs, planKeys: planKeys, nets: nets, cfg: cfg,
		state: JobAccepted,
		done:  make(chan struct{}),
	}
	resp, status, err := s.jobs.submit(j)
	if err != nil {
		mJobsRejected.Inc()
		info.fail(err)
		w.Header().Set("Retry-After", strconv.Itoa(s.opts.RetryAfter))
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{
			Error:     "serve: floorplan job queue full, retry later",
			RequestID: info.requestID(),
			TraceID:   info.traceID(),
		})
		return
	}
	writeJSON(w, status, resp)
}

// handleJobGet answers GET /v1/jobs/{id}.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request, info *reqInfo) {
	rec, err := s.jobs.get(r.PathValue("id"))
	if err != nil {
		s.fail(w, info, err)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// handleJobCancel answers DELETE /v1/jobs/{id}.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request, info *reqInfo) {
	rec, err := s.jobs.cancelJob(r.Context(), r.PathValue("id"))
	if err != nil {
		s.fail(w, info, err)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}
