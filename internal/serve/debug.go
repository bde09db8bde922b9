package serve

import (
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"maest/internal/obs"
	"maest/internal/store"
)

// The observatory debug surface.  It is a separate handler (not part
// of ServeHTTP) so operators mount it on a loopback-only listener
// (`maest-serve -debug-addr`) and never expose request payloads or
// digests on the service port.

// FlightResponse answers GET /debug/flight.
type FlightResponse struct {
	Enabled  bool `json:"enabled"`
	Capacity int  `json:"capacity"`
	// Total counts every request ever recorded; Total - len(Requests)
	// is how much history the ring has dropped.
	Total    uint64             `json:"total"`
	Requests []obs.FlightRecord `json:"requests"` // newest first
	Latency  []EndpointLatency  `json:"latency"`
}

// SlowestResponse answers GET /debug/slowest.
type SlowestResponse struct {
	Enabled  bool               `json:"enabled"`
	Requests []obs.FlightRecord `json:"requests"` // slowest first
}

// DebugStoreResponse answers GET /debug/store: the persistent store's
// full statistics snapshot (the /healthz block is the abridged form).
type DebugStoreResponse struct {
	Enabled bool         `json:"enabled"`
	Stats   *store.Stats `json:"stats,omitempty"`
}

// DebugHandler returns the observatory endpoints:
//
//	GET /debug/flight?n=N    the last N (default all resident) request
//	                         records, newest first, plus per-endpoint
//	                         latency quantiles (with bucket exemplars)
//	GET /debug/slowest?k=K   the top K (default 10) resident requests
//	                         by duration, with span breakdowns
//	GET /debug/store         the persistent store's statistics snapshot
//	GET /debug/trace/{id}    one trace's full stitched span tree, from
//	                         the trace store and the flight ring
//	GET /debug/traces        the trace index, filterable by
//	                         ?endpoint=&min_ms=&since=&limit=
//	GET /debug/plans         per-plan cost profiles
//	GET /debug/pprof/*       the runtime profiler (CPU, heap, goroutine
//	                         — the stdlib pprof surface)
//	GET /metrics             Prometheus text exposition (convenience,
//	                         so one debug listener serves everything)
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /debug/flight", s.handleDebugFlight)
	mux.HandleFunc("GET /debug/slowest", s.handleDebugSlowest)
	mux.HandleFunc("GET /debug/store", s.handleDebugStore)
	mux.HandleFunc("GET /debug/trace/{trace_id}", s.handleDebugTrace)
	mux.HandleFunc("GET /debug/traces", s.handleDebugTraces)
	mux.HandleFunc("GET /debug/plans", s.handleDebugPlans)
	// The pprof handlers live on the debug socket only — never the
	// service port — so profiling a production instance needs the same
	// loopback access as the rest of the observatory.
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// DebugTraceResponse answers GET /debug/trace/{trace_id}: every hop of
// one distributed trace, stitched from the persistent trace store and
// the live flight ring, ordered by time (span id breaking ties).  Both
// sources render through the trace codec, so the same trace produces
// byte-identical JSON before and after a restart.
type DebugTraceResponse struct {
	TraceID string              `json:"trace_id"`
	Found   bool                `json:"found"`
	Hops    []*obs.FlightRecord `json:"hops,omitempty"`
}

func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("trace_id")
	hops, _ := s.ttier.getTrace(id)
	seen := make(map[string]bool, len(hops))
	for _, hop := range hops {
		seen[hop.Span] = true
	}
	// Hops still in the flight ring but not (yet) persisted — sampled
	// out, or queued behind the writer — fill in from memory,
	// normalized through an encode/decode round trip so their JSON
	// matches what the store would have produced.
	for _, rec := range s.flight.Snapshot() {
		if rec.Trace != id || seen[rec.Span] {
			continue
		}
		norm, err := obs.DecodeTrace(obs.EncodeTrace(nil, &rec))
		if err != nil {
			continue
		}
		hops = append(hops, norm)
		seen[rec.Span] = true
	}
	sortHops(hops)
	writeJSON(w, http.StatusOK, DebugTraceResponse{
		TraceID: id,
		Found:   len(hops) > 0,
		Hops:    hops,
	})
}

// TraceSummary is one persisted hop in the GET /debug/traces index
// scan.
type TraceSummary struct {
	TraceID  string `json:"trace_id"`
	Endpoint string `json:"endpoint"`
	Status   int    `json:"status"`
	Micros   int64  `json:"us"`
	Time     string `json:"time"`
}

// DebugTracesResponse answers GET /debug/traces.
type DebugTracesResponse struct {
	Enabled bool `json:"enabled"`
	// Indexed counts the hops resident in the in-memory index (the
	// store may hold more; the index is the bounded hot view).
	Indexed int             `json:"indexed"`
	Stats   *TraceTierStats `json:"stats,omitempty"`
	Traces  []TraceSummary  `json:"traces"`
}

func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	resp := DebugTracesResponse{Traces: []TraceSummary{}}
	if st, ok := s.ttier.tierStats(); ok {
		resp.Enabled = true
		resp.Indexed = st.Indexed
		resp.Stats = &st
	}
	q := r.URL.Query()
	minMicros := int64(queryInt(r, "min_ms", 0)) * 1000
	var since int64
	if v := q.Get("since"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && n > 0 {
			since = n
		}
	}
	for _, e := range s.ttier.query(q.Get("endpoint"), minMicros, since, queryInt(r, "limit", 100)) {
		resp.Traces = append(resp.Traces, TraceSummary{
			TraceID:  hexTraceID(e.trace),
			Endpoint: e.endpoint,
			Status:   e.status,
			Micros:   e.micros,
			Time:     time.Unix(0, e.unixNano).UTC().Format(time.RFC3339Nano),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// DebugPlansResponse answers GET /debug/plans: per-plan cost profiles
// ordered by request count.
type DebugPlansResponse struct {
	Enabled bool          `json:"enabled"`
	Plans   []PlanProfile `json:"plans"`
}

func (s *Server) handleDebugPlans(w http.ResponseWriter, r *http.Request) {
	resp := DebugPlansResponse{
		Enabled: s.profiles != nil,
		Plans:   s.profiles.snapshot(),
	}
	if resp.Plans == nil {
		resp.Plans = []PlanProfile{}
	}
	if n := queryInt(r, "n", len(resp.Plans)); n < len(resp.Plans) {
		resp.Plans = resp.Plans[:n]
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDebugStore(w http.ResponseWriter, r *http.Request) {
	resp := DebugStoreResponse{}
	if st, ok := s.StoreStats(); ok {
		resp.Enabled = true
		resp.Stats = &st
	}
	writeJSON(w, http.StatusOK, resp)
}

// storeHealth condenses a store snapshot into its /healthz block.
func storeHealth(st store.Stats) *StoreHealth {
	h := &StoreHealth{
		Status:   "ok",
		Segments: st.Segments,
		Bytes:    st.Bytes,
		Records:  st.Records,
		Hits:     st.Hits,
		Misses:   st.Misses,
	}
	if st.Degraded {
		h.Status = "degraded"
	}
	return h
}

// queryInt parses a positive integer query parameter, falling back to
// def when absent or malformed.
func queryInt(r *http.Request, key string, def int) int {
	v := r.URL.Query().Get(key)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return def
	}
	return n
}

func (s *Server) handleDebugFlight(w http.ResponseWriter, r *http.Request) {
	resp := FlightResponse{
		Enabled:  s.flight != nil,
		Capacity: s.flight.Cap(),
		Total:    s.flight.Total(),
		Latency:  LatencySummary(),
	}
	recs := s.flight.Snapshot()
	// Newest first: the page answers "what just happened".
	for i, j := 0, len(recs)-1; i < j; i, j = i+1, j-1 {
		recs[i], recs[j] = recs[j], recs[i]
	}
	if n := queryInt(r, "n", len(recs)); n < len(recs) {
		recs = recs[:n]
	}
	resp.Requests = recs
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDebugSlowest(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, SlowestResponse{
		Enabled:  s.flight != nil,
		Requests: s.flight.Slowest(queryInt(r, "k", 10)),
	})
}
