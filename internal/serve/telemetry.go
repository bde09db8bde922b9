package serve

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"maest/internal/obs"
)

// Per-endpoint latency histograms.  Each endpoint is its own metric
// family (the registry has no label dimension), which keeps the
// exposition valid and lets Quantile answer p50/p90/p99 per endpoint
// without a Prometheus server in the loop.
var endpointSeconds = map[string]*obs.Histogram{
	"/v1/estimate":       obs.DefHistogram("maest_serve_estimate_seconds", "POST /v1/estimate latency", obs.DefBuckets),
	"/v1/estimate/batch": obs.DefHistogram("maest_serve_batch_seconds", "POST /v1/estimate/batch latency", obs.DefBuckets),
	"/v1/estimate/delta": obs.DefHistogram("maest_serve_delta_seconds", "POST /v1/estimate/delta latency", obs.DefBuckets),
	"/v1/congestion":     obs.DefHistogram("maest_serve_congestion_seconds", "POST /v1/congestion latency", obs.DefBuckets),
	"/v1/floorplan":      obs.DefHistogram("maest_serve_floorplan_seconds", "POST /v1/floorplan submit latency", obs.DefBuckets),
	"/v1/jobs":           obs.DefHistogram("maest_serve_jobs_seconds", "GET/DELETE /v1/jobs/{id} latency", obs.DefBuckets),
}

// EndpointLatency is one endpoint's latency distribution summary,
// quantiles interpolated from the endpoint's histogram buckets.
type EndpointLatency struct {
	Endpoint   string  `json:"endpoint"`
	Count      int64   `json:"count"`
	MeanSecs   float64 `json:"mean_seconds"`
	P50Seconds float64 `json:"p50_seconds"`
	P90Seconds float64 `json:"p90_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
	// Exemplars lists, per histogram bucket that has one, the most
	// recent trace id that landed there — a bucket on this page becomes
	// one GET /debug/trace/{trace_id}.  Populated only while request
	// telemetry is enabled (the zero-alloc disabled path never records
	// exemplars).
	Exemplars []EndpointExemplar `json:"exemplars,omitempty"`
}

// EndpointExemplar is one latency bucket's exemplar in the /debug
// JSON: the bucket's upper bound (as the Prometheus `le` string, so
// the overflow bucket reads "+Inf"), the trace id, and the observed
// latency.
type EndpointExemplar struct {
	LE      string  `json:"le"`
	TraceID string  `json:"trace_id"`
	Seconds float64 `json:"seconds"`
}

// endpointExemplars renders a histogram's exemplars in the JSON-safe
// shape (the +Inf bound cannot ride through encoding/json as a float).
func endpointExemplars(h *obs.Histogram) []EndpointExemplar {
	buckets := h.Exemplars()
	if len(buckets) == 0 {
		return nil
	}
	out := make([]EndpointExemplar, 0, len(buckets))
	for _, b := range buckets {
		le := "+Inf"
		if !math.IsInf(b.UpperBound, 1) {
			le = strconv.FormatFloat(b.UpperBound, 'g', -1, 64)
		}
		out = append(out, EndpointExemplar{
			LE:      le,
			TraceID: b.Exemplar.TraceID,
			Seconds: b.Exemplar.Value,
		})
	}
	return out
}

// LatencySummary returns the process-wide per-endpoint latency
// quantiles, endpoints sorted for stable output.  Endpoints that have
// served no requests are included with zero counts so dashboards see
// a fixed shape.
func LatencySummary() []EndpointLatency {
	out := make([]EndpointLatency, 0, len(endpointSeconds))
	for ep, h := range endpointSeconds {
		out = append(out, EndpointLatency{
			Endpoint:   ep,
			Count:      h.Count(),
			MeanSecs:   h.Mean(),
			P50Seconds: h.Quantile(0.50),
			P90Seconds: h.Quantile(0.90),
			P99Seconds: h.Quantile(0.99),
			Exemplars:  endpointExemplars(h),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Endpoint < out[j].Endpoint })
	return out
}

// Request IDs: a per-process random prefix plus a sequence number —
// unique across restarts for log correlation, cheap to mint, and easy
// to grep.
var (
	reqSeq      atomic.Uint64
	reqIDPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "00000000"
		}
		return hex.EncodeToString(b[:])
	}()
)

func nextRequestID() string {
	return fmt.Sprintf("%s-%06d", reqIDPrefix, reqSeq.Add(1))
}

// accessLogger writes one JSON line per request.  Lines are emitted
// whole under a mutex so concurrent handlers never interleave.
type accessLogger struct {
	mu  sync.Mutex
	enc *json.Encoder
}

func newAccessLogger(w io.Writer) *accessLogger {
	return &accessLogger{enc: json.NewEncoder(w)}
}

// accessEntry is the wire form of one access-log line.
type accessEntry struct {
	Time     string `json:"time"`
	ID       string `json:"id"`
	Trace    string `json:"trace,omitempty"`
	Method   string `json:"method"`
	Path     string `json:"path"`
	Status   int    `json:"status"`
	Micros   int64  `json:"us"`
	CacheHit bool   `json:"cache_hit"`
	Err      string `json:"err,omitempty"`
}

func (l *accessLogger) log(e accessEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.enc.Encode(e) // best-effort: a broken log writer must not fail requests
}

// reqInfo accumulates one request's telemetry while its handler runs.
// A nil *reqInfo is the disabled state — every method is a no-op — so
// handlers annotate unconditionally and the hot path stays free when
// neither the flight recorder nor the access log is on.
type reqInfo struct {
	id       string
	method   string
	endpoint string
	t0       time.Time
	lastMark time.Time
	stages   []obs.FlightStage
	digest   string
	plan     string
	cacheHit bool
	storeHit bool
	errMsg   string
	spans    *obs.Collect // non-nil only when the flight recorder is on

	// trace is this hop's own W3C trace context (minted fresh for trace
	// roots, a Child of the incoming traceparent otherwise); parentSpan
	// is the caller's span id from the incoming header, empty at roots.
	trace      obs.TraceContext
	parentSpan string
}

// requestID returns the request id for error bodies ("" when
// telemetry is disabled).
func (ri *reqInfo) requestID() string {
	if ri == nil {
		return ""
	}
	return ri.id
}

// traceID returns the hop's trace id for error bodies ("" when
// telemetry is disabled).
func (ri *reqInfo) traceID() string {
	if ri == nil || !ri.trace.Valid() {
		return ""
	}
	return ri.trace.TraceIDString()
}

// mark closes the current stage: the time since the previous mark (or
// the request start) is recorded under name.
func (ri *reqInfo) mark(name string) {
	if ri == nil {
		return
	}
	now := time.Now()
	ri.stages = append(ri.stages, obs.FlightStage{Name: name, Micros: now.Sub(ri.lastMark).Microseconds()})
	ri.lastMark = now
}

// setDigest records the request's content address.
func (ri *reqInfo) setDigest(k Key) {
	if ri == nil {
		return
	}
	ri.digest = k.String()
}

// setCacheHit records the cache disposition.
func (ri *reqInfo) setCacheHit(hit bool) {
	if ri == nil {
		return
	}
	ri.cacheHit = hit
}

// setPlan records the compiled plan the request resolved to — the key
// per-plan cost profiles group by.
func (ri *reqInfo) setPlan(k Key) {
	if ri == nil {
		return
	}
	ri.plan = k.String()
}

// setStoreHit records that the answer came from the persistent store
// tier rather than a plan's memo.
func (ri *reqInfo) setStoreHit(hit bool) {
	if ri == nil {
		return
	}
	ri.storeHit = hit
}

// fail records the outcome error (writeError renders the response).
func (ri *reqInfo) fail(err error) {
	if ri == nil || err == nil {
		return
	}
	ri.errMsg = err.Error()
}

// statusWriter captures the response status for the telemetry record.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

// flightSpanCap bounds one record's span-tree summary.
const flightSpanCap = 32

// instrument wraps one endpoint handler with the request telemetry:
// aggregate and per-endpoint latency histograms always; request IDs,
// the JSON access log, and the flight recorder when enabled.  The
// disabled path (no flight recorder, no access log) adds zero
// allocations on top of the wrapped handler — enforced by
// TestInstrumentDisabledZeroAlloc.
func (s *Server) instrument(endpoint string, h func(http.ResponseWriter, *http.Request, *reqInfo)) http.HandlerFunc {
	hist := endpointSeconds[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		mRequests.Inc()
		t0 := time.Now()
		if s.flight == nil && s.access == nil && s.ttier == nil {
			h(w, r, nil)
			lat := time.Since(t0).Seconds()
			mServeSec.Observe(lat)
			hist.Observe(lat)
			return
		}

		info := &reqInfo{
			id:       nextRequestID(),
			method:   r.Method,
			endpoint: endpoint,
			t0:       t0,
			lastMark: t0,
		}
		// W3C trace context: an incoming traceparent roots this hop in
		// the caller's trace (the caller's span id becomes our parent);
		// otherwise this hop is a trace root.  Either way the hop gets
		// its own span id.
		if tc, err := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)); err == nil {
			info.parentSpan = tc.SpanIDString()
			info.trace = tc.Child()
		} else {
			info.trace = obs.NewTraceContext()
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		sw.Header().Set("X-Request-Id", info.id)
		sw.Header().Set("X-Trace-Id", info.trace.TraceIDString())

		recording := s.flight != nil || s.ttier != nil
		var startCosts obs.RequestCosts
		if recording {
			startCosts = obs.ReadRequestCosts()
		}

		// Thread the request through a root span carrying the request
		// ID, fanned out to both the server's trace sink (if any) and
		// the flight recorder's bounded per-request collector.
		ctx := r.Context()
		var root *obs.Span
		if recording {
			info.spans = obs.NewCollect(flightSpanCap)
			ctx = obs.WithSink(ctx, obs.Multi(obs.SinkFrom(ctx), info.spans))
		}
		ctx, root = obs.Start(ctx, "request")
		root.SetString("endpoint", endpoint)
		root.SetString("request_id", info.id)
		root.SetString("trace_id", info.trace.TraceIDString())
		h(sw, r.WithContext(ctx), info)
		root.End()

		dur := time.Since(t0)
		lat := dur.Seconds()
		traceID := info.trace.TraceIDString()
		// Exemplars: the enabled path stamps the latency buckets with
		// this request's trace id, so a bucket on a dashboard resolves
		// to one GET /debug/trace/{trace_id}.
		mServeSec.ObserveExemplar(lat, traceID)
		hist.ObserveExemplar(lat, traceID)

		if recording {
			costs := obs.ReadRequestCosts().Since(startCosts)
			rec := obs.FlightRecord{
				ID:             info.id,
				Trace:          traceID,
				Span:           info.trace.SpanIDString(),
				ParentSpan:     info.parentSpan,
				Time:           t0,
				Method:         info.method,
				Endpoint:       endpoint,
				Status:         sw.status,
				Micros:         dur.Microseconds(),
				Digest:         info.digest,
				Plan:           info.plan,
				CacheHit:       info.cacheHit,
				StoreHit:       info.storeHit,
				AllocBytes:     int64(costs.AllocBytes),
				GCAssistMicros: int64(costs.GCAssistSeconds * 1e6),
				Err:            info.errMsg,
				Stages:         info.stages,
			}
			if info.spans != nil {
				rec.Spans = info.spans.Spans()
			}
			// The ring's assigned sequence number rides into the
			// persisted copy so the live and post-restart renderings of
			// one trace agree byte for byte.
			rec.Seq = s.flight.Record(rec)
			failed := sw.status >= 400 || info.errMsg != ""
			if s.ttier != nil {
				if v := s.sampler.Keep(info.trace.TraceID, dur.Microseconds(), failed); v != obs.SampleDrop {
					s.ttier.enqueue(rec)
				}
			}
			s.profiles.observe(info.plan, lat, failed, info.cacheHit, info.storeHit,
				info.stages, s.watchdog.Health().MaxDriftPP)
		}
		if s.access != nil {
			s.access.log(accessEntry{
				Time:     t0.UTC().Format(time.RFC3339Nano),
				ID:       info.id,
				Trace:    info.trace.TraceIDString(),
				Method:   info.method,
				Path:     endpoint,
				Status:   sw.status,
				Micros:   dur.Microseconds(),
				CacheHit: info.cacheHit,
				Err:      info.errMsg,
			})
		}
	}
}
