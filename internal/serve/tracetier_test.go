package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"maest/internal/obs"
	"maest/internal/store"
)

// keepAll is the test sampling policy: every request persists.
var keepAll = obs.SamplePolicy{Rate: 1, SlowMicros: 100_000, KeepErrors: true}

// newTraceServer boots a Server persisting every trace into a store
// over dir.  The caller owns close ordering via the returned store.
func newTraceServer(t *testing.T, dir string) (*Server, *store.Store) {
	t.Helper()
	st := openTestStore(t, dir)
	s := New(Options{FlightSize: 16, TraceStore: st, Sample: keepAll})
	return s, st
}

func TestTraceTierDisabled(t *testing.T) {
	var tier *traceTier
	tier.enqueue(obs.FlightRecord{})
	tier.sync()
	tier.flush()
	tier.flush()
	if _, ok := tier.getTrace(strings.Repeat("a", 32)); ok {
		t.Error("nil tier answered a trace lookup")
	}
	if got := tier.query("", 0, 0, 10); got != nil {
		t.Errorf("nil tier query returned %v", got)
	}
	if tier.indexed() != 0 {
		t.Error("nil tier has indexed hops")
	}
	if _, ok := tier.tierStats(); ok {
		t.Error("nil tier has stats")
	}

	s := New(Options{FlightSize: 4})
	if _, ok := s.TraceStats(); ok {
		t.Error("server without a trace store reports trace stats")
	}
	s.SyncTraces()
	s.FlushTraces()
	if s.sampler != nil {
		t.Error("server without a trace store has a sampler")
	}
	var resp DebugTracesResponse
	if err := json.Unmarshal(doDebug(t, s, "/debug/traces"), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Enabled || resp.Stats != nil || len(resp.Traces) != 0 {
		t.Fatalf("debug/traces without a trace store: %+v", resp)
	}
	var tr DebugTraceResponse
	if err := json.Unmarshal(doDebug(t, s, "/debug/trace/"+strings.Repeat("a", 32)), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Found {
		t.Fatalf("unknown trace reported found: %+v", tr)
	}
}

func TestTraceTierPersistsSampledTraffic(t *testing.T) {
	s, st := newTraceServer(t, t.TempDir())
	defer st.Close()
	defer s.FlushTraces()

	est := marshal(t, EstimateRequest{Netlist: testdata(t, "demo.mnet")})
	do(s, "POST", "/v1/estimate", est)
	do(s, "POST", "/v1/estimate", est)              // cache hit
	do(s, "POST", "/v1/estimate", `{"netlist":""}`) // 400, kept by KeepErrors
	s.SyncTraces()

	stats, ok := s.TraceStats()
	if !ok {
		t.Fatal("trace stats unavailable with a trace store")
	}
	if stats.Writes != 3 || stats.Errors != 0 || stats.Dropped != 0 || stats.Indexed != 3 {
		t.Fatalf("tier stats %+v, want 3 clean writes", stats)
	}
	ss := s.sampler.Stats()
	if ss.Seen != 3 || ss.Kept != 3 || ss.Errors != 1 {
		t.Fatalf("sampler stats %+v", ss)
	}

	// The index scan surfaces all three hops, newest first.
	var idx DebugTracesResponse
	if err := json.Unmarshal(doDebug(t, s, "/debug/traces"), &idx); err != nil {
		t.Fatal(err)
	}
	if !idx.Enabled || idx.Indexed != 3 || len(idx.Traces) != 3 {
		t.Fatalf("index scan: %+v", idx)
	}
	if idx.Traces[0].Status != 400 {
		t.Fatalf("newest hop should be the failed request: %+v", idx.Traces[0])
	}
	for _, tr := range idx.Traces {
		if len(tr.TraceID) != 32 || tr.Endpoint != "/v1/estimate" {
			t.Fatalf("summary row: %+v", tr)
		}
		if _, err := time.Parse(time.RFC3339Nano, tr.Time); err != nil {
			t.Fatalf("unparseable hop time %q: %v", tr.Time, err)
		}
	}

	// Each trace resolves to its full record through /debug/trace/{id}.
	var full DebugTraceResponse
	if err := json.Unmarshal(doDebug(t, s, "/debug/trace/"+idx.Traces[0].TraceID), &full); err != nil {
		t.Fatal(err)
	}
	if !full.Found || len(full.Hops) != 1 {
		t.Fatalf("trace fetch: %+v", full)
	}
	hop := full.Hops[0]
	if hop.Status != 400 || hop.Err == "" || hop.Endpoint != "/v1/estimate" {
		t.Fatalf("persisted hop lost its outcome: %+v", hop)
	}
}

// TestTraceRenderingStableAcrossRestart is the package-level form of
// the restart acceptance: the JSON for one trace must be byte-identical
// before and after the serving process is torn down and rebuilt over
// the same trace store directory.
func TestTraceRenderingStableAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1, st1 := newTraceServer(t, dir)
	do(s1, "POST", "/v1/estimate", marshal(t, EstimateRequest{Netlist: testdata(t, "demo.mnet")}))
	s1.SyncTraces()

	var idx DebugTracesResponse
	if err := json.Unmarshal(doDebug(t, s1, "/debug/traces"), &idx); err != nil {
		t.Fatal(err)
	}
	if len(idx.Traces) != 1 {
		t.Fatalf("expected one trace, got %+v", idx)
	}
	id := idx.Traces[0].TraceID
	before := doDebug(t, s1, "/debug/trace/"+id)

	s1.FlushTraces()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Fresh process: empty flight ring, index rebuilt from disk.
	s2, st2 := newTraceServer(t, dir)
	defer st2.Close()
	defer s2.FlushTraces()
	after := doDebug(t, s2, "/debug/trace/"+id)
	if string(before) != string(after) {
		t.Fatalf("trace rendering changed across restart:\nbefore: %s\nafter:  %s", before, after)
	}
}

// TestDebugTraceStitchesFlightOnlyHops: a request the sampler dropped
// still renders from the flight ring, normalized through the codec so
// its JSON matches what the store would have produced.
func TestDebugTraceStitchesFlightOnlyHops(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	defer st.Close()
	// Rate 0 with errors only: the OK request below is never persisted.
	s := New(Options{FlightSize: 16, TraceStore: st, Sample: obs.SamplePolicy{KeepErrors: true}})
	defer s.FlushTraces()

	do(s, "POST", "/v1/estimate", marshal(t, EstimateRequest{Netlist: testdata(t, "demo.mnet")}))
	s.SyncTraces()
	if stats, _ := s.TraceStats(); stats.Writes != 0 {
		t.Fatalf("rate-0 policy persisted %d traces", stats.Writes)
	}
	recs := s.flight.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("flight ring has %d records", len(recs))
	}
	var full DebugTraceResponse
	if err := json.Unmarshal(doDebug(t, s, "/debug/trace/"+recs[0].Trace), &full); err != nil {
		t.Fatal(err)
	}
	if !full.Found || len(full.Hops) != 1 || full.Hops[0].Endpoint != "/v1/estimate" {
		t.Fatalf("flight-only trace not stitched: %+v", full)
	}
}

func TestDebugTracesFilters(t *testing.T) {
	s, st := newTraceServer(t, t.TempDir())
	defer st.Close()
	defer s.FlushTraces()

	do(s, "POST", "/v1/estimate", marshal(t, EstimateRequest{Netlist: testdata(t, "demo.mnet")}))
	do(s, "POST", "/v1/congestion", marshal(t, CongestionRequest{Netlist: testdata(t, "demo.mnet"), Rows: 3}))
	s.SyncTraces()

	get := func(path string) DebugTracesResponse {
		t.Helper()
		var resp DebugTracesResponse
		if err := json.Unmarshal(doDebug(t, s, path), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if resp := get("/debug/traces?endpoint=/v1/congestion"); len(resp.Traces) != 1 ||
		resp.Traces[0].Endpoint != "/v1/congestion" {
		t.Fatalf("endpoint filter: %+v", resp.Traces)
	}
	if resp := get("/debug/traces?limit=1"); len(resp.Traces) != 1 {
		t.Fatalf("limit: %+v", resp.Traces)
	}
	// min_ms far above anything these requests took filters everything.
	if resp := get("/debug/traces?min_ms=60000"); len(resp.Traces) != 0 {
		t.Fatalf("min_ms filter: %+v", resp.Traces)
	}
	// since in the future filters everything; since 0 keeps all.
	future := time.Now().Add(time.Hour).Unix()
	if resp := get(fmt.Sprintf("/debug/traces?since=%d", future)); len(resp.Traces) != 0 {
		t.Fatalf("since filter: %+v", resp.Traces)
	}
	if resp := get("/debug/traces"); len(resp.Traces) != 2 {
		t.Fatalf("unfiltered scan: %+v", resp.Traces)
	}
}

func TestTraceTierBadSpanIDCountsError(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	defer st.Close()
	tier := newTraceTier(st)
	defer tier.flush()
	tier.enqueue(obs.FlightRecord{Trace: "not-hex", Span: "nope"})
	tier.sync()
	if stats, _ := tier.tierStats(); stats.Errors != 1 || stats.Writes != 0 {
		t.Fatalf("unkeyable record: %+v", stats)
	}
}

func TestTraceIndexEvictsOldest(t *testing.T) {
	tier := &traceTier{byTrace: make(map[[16]byte][]store.Key)}
	mk := func(i int) traceEntry {
		var e traceEntry
		e.key[0] = byte(i)
		e.key[1] = byte(i >> 8)
		e.key[2] = byte(i >> 16)
		copy(e.trace[:], e.key[:16])
		e.unixNano = int64(i)
		return e
	}
	for i := 0; i < traceIndexCap+10; i++ {
		tier.indexAdd(mk(i))
	}
	if got := tier.indexed(); got != traceIndexCap {
		t.Fatalf("index holds %d entries, cap %d", got, traceIndexCap)
	}
	// The first ten entries were evicted, map rows included.
	for i := 0; i < 10; i++ {
		if _, ok := tier.byTrace[mk(i).trace]; ok {
			t.Fatalf("evicted entry %d still in byTrace", i)
		}
	}
	if tier.entries[0].unixNano != 10 {
		t.Fatalf("oldest surviving entry is %d, want 10", tier.entries[0].unixNano)
	}
}

func TestPlanProfilesAggregation(t *testing.T) {
	var nilP *planProfiles
	nilP.observe("p", 0.1, false, false, false, nil)
	if got := nilP.snapshot(); got != nil {
		t.Fatalf("nil profiles snapshot: %v", got)
	}

	p := newPlanProfiles(8)
	stages := []obs.FlightStage{{Name: "decode", Micros: 5}, {Name: "estimate", Micros: 100}}
	p.observe("plan-a", 0.010, false, false, false, stages)
	p.observe("plan-a", 0.001, false, true, true, nil)
	p.observe("plan-a", 0.020, true, false, false, stages)
	p.observe("plan-b", 0.002, false, false, false, nil)
	p.observe("", 0.002, false, false, false, nil) // no plan: ignored

	snap := p.snapshot()
	if len(snap) != 2 || snap[0].Plan != "plan-a" || snap[1].Plan != "plan-b" {
		t.Fatalf("snapshot order: %+v", snap)
	}
	a := snap[0]
	if a.Requests != 3 || a.Errors != 1 || a.CacheHits != 1 || a.StoreHits != 1 {
		t.Fatalf("plan-a counters: %+v", a)
	}
	if a.CacheHitRatio < 0.33 || a.CacheHitRatio > 0.34 {
		t.Fatalf("plan-a cache ratio %f", a.CacheHitRatio)
	}
	if a.MeanEstimateMicros != 100 {
		t.Fatalf("plan-a mean estimate %fus, want 100 (decode stage must not count)", a.MeanEstimateMicros)
	}
	if a.LastSeenUnix == 0 {
		t.Fatalf("plan-a last-seen stamp: %+v", a)
	}
	if a.P50Seconds <= 0 || a.P99Seconds < a.P50Seconds {
		t.Fatalf("plan-a quantiles: p50=%f p99=%f", a.P50Seconds, a.P99Seconds)
	}
}

// TestPlanProfilesEvictLeastRecentlySeen pins exact LRU eviction: after
// cap+1 distinct plans the least recently observed one is gone, and a
// plan re-observed in between survives however early it first arrived.
// No sleeps: the order is observation order, not a timestamp race.
func TestPlanProfilesEvictLeastRecentlySeen(t *testing.T) {
	const capacity = 4
	p := newPlanProfiles(capacity)
	for i := 0; i < capacity; i++ {
		p.observe(fmt.Sprintf("p%d", i), 0.001, false, false, false, nil)
	}
	p.observe("p0", 0.001, false, false, false, nil) // p1 is now the oldest
	p.observe("p4", 0.001, false, false, false, nil)
	got := map[string]int64{}
	for _, pp := range p.snapshot() {
		got[pp.Plan] = pp.Requests
	}
	if len(got) != capacity {
		t.Fatalf("profile map holds %d plans, cap %d: %v", len(got), capacity, got)
	}
	if _, ok := got["p1"]; ok {
		t.Fatalf("least recently observed plan survived eviction: %v", got)
	}
	if got["p0"] != 2 {
		t.Fatalf("re-observed plan p0 lost its profile: %v", got)
	}
	for _, plan := range []string{"p2", "p3", "p4"} {
		if got[plan] != 1 {
			t.Fatalf("plan %s missing after one eviction: %v", plan, got)
		}
	}
}

func TestDebugPlansEndpoint(t *testing.T) {
	s, st := newTraceServer(t, t.TempDir())
	defer st.Close()
	defer s.FlushTraces()

	est := marshal(t, EstimateRequest{Netlist: testdata(t, "demo.mnet")})
	first := decodeEstimate(t, do(s, "POST", "/v1/estimate", est))
	do(s, "POST", "/v1/estimate", est)

	var resp DebugPlansResponse
	if err := json.Unmarshal(doDebug(t, s, "/debug/plans"), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Enabled || len(resp.Plans) != 1 {
		t.Fatalf("debug/plans: %+v", resp)
	}
	pp := resp.Plans[0]
	if pp.Plan != first.Plan {
		t.Fatalf("profile keyed by %q, response plan %q", pp.Plan, first.Plan)
	}
	if pp.Requests != 2 || pp.CacheHits != 1 || pp.Errors != 0 {
		t.Fatalf("profile counters: %+v", pp)
	}
	if pp.MeanEstimateMicros <= 0 {
		t.Fatalf("estimate stage time missing: %+v", pp)
	}

	// ?n=0 truncates to nothing but stays well-formed.
	if err := json.Unmarshal(doDebug(t, s, "/debug/plans?n=0"), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Plans) != 0 {
		t.Fatalf("?n=0 returned %d plans", len(resp.Plans))
	}

	// Disabled server: enabled=false, plans renders as [].
	off := New(Options{})
	body := doDebug(t, off, "/debug/plans")
	if !strings.Contains(string(body), `"plans":[]`) || !strings.Contains(string(body), `"enabled":false`) {
		t.Fatalf("disabled debug/plans: %s", body)
	}
}

// TestExemplarsExposed: the per-endpoint histograms remember trace ids
// when telemetry is on, the /debug/flight JSON carries them, the
// Prometheus exposition emits them as ignorable comments, and each id
// resolves through GET /debug/trace/{id}.
func TestExemplarsExposed(t *testing.T) {
	s, st := newTraceServer(t, t.TempDir())
	defer st.Close()
	defer s.FlushTraces()
	do(s, "POST", "/v1/estimate", marshal(t, EstimateRequest{Netlist: testdata(t, "demo.mnet")}))
	s.SyncTraces()

	// This test's own trace id: the most recent estimate observation,
	// so its landing bucket's exemplar must carry it (the endpoint
	// histograms are process-global, so other buckets may hold trace
	// ids from earlier tests).
	recs := s.flight.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("flight ring has %d records", len(recs))
	}
	ownTrace := recs[0].Trace

	var fl FlightResponse
	if err := json.Unmarshal(doDebug(t, s, "/debug/flight"), &fl); err != nil {
		t.Fatal(err)
	}
	var exemplar EndpointExemplar
	for _, ep := range fl.Latency {
		if ep.Endpoint != "/v1/estimate" {
			continue
		}
		if len(ep.Exemplars) == 0 {
			t.Fatalf("estimate endpoint has no exemplars: %+v", ep)
		}
		for _, ex := range ep.Exemplars {
			if ex.TraceID == ownTrace {
				exemplar = ex
			}
		}
	}
	if exemplar.TraceID != ownTrace {
		t.Fatalf("no exemplar carries this test's trace %s", ownTrace)
	}
	if exemplar.Seconds <= 0 || exemplar.LE == "" {
		t.Fatalf("exemplar shape: %+v", exemplar)
	}

	// The exemplar's trace id resolves to the persisted trace.
	var full DebugTraceResponse
	if err := json.Unmarshal(doDebug(t, s, "/debug/trace/"+exemplar.TraceID), &full); err != nil {
		t.Fatal(err)
	}
	if !full.Found {
		t.Fatalf("exemplar trace id %s does not resolve", exemplar.TraceID)
	}

	// The exposition carries the exemplar comment and the conformance
	// Content-Type.
	req := httptest.NewRequest("GET", "/metrics", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if got := w.Header().Get("Content-Type"); got != "text/plain; version=0.0.4" {
		t.Fatalf("metrics Content-Type %q", got)
	}
	if !strings.Contains(w.Body.String(), "# EXEMPLAR maest_serve_request_seconds_bucket") {
		t.Fatal("exposition missing # EXEMPLAR lines for the serve histogram")
	}
	if !strings.Contains(w.Body.String(), "trace_id="+exemplar.TraceID) {
		t.Fatalf("exposition exemplars do not mention trace %s", exemplar.TraceID)
	}
}

// TestInstrumentTraceStoreZeroAllocObserve: with telemetry fully off
// (no flight ring, no access log, no trace store) the instrumented
// handler still allocates nothing — the trace-tier wiring must not
// have moved the disabled path off zero.
func TestInstrumentAllTelemetryOffZeroAlloc(t *testing.T) {
	s := New(Options{})
	if s.ttier != nil || s.sampler != nil || s.profiles != nil {
		t.Fatal("Options{} built telemetry state")
	}
	h := s.instrument("/v1/estimate", func(http.ResponseWriter, *http.Request, *reqInfo) {})
	req := httptest.NewRequest("POST", "/v1/estimate", nil)
	var w nullResponseWriter
	if allocs := testing.AllocsPerRun(1000, func() { h(&w, req) }); allocs != 0 {
		t.Fatalf("disabled instrumentation allocates %.1f objects per request, want 0", allocs)
	}
}

// TestDefaultSamplePolicy: a trace store with a zero Sample policy gets
// the documented default (5% baseline, 100ms slow tail, keep errors).
func TestDefaultSamplePolicy(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	defer st.Close()
	s := New(Options{TraceStore: st})
	defer s.FlushTraces()
	pol := s.sampler.Policy()
	if pol.Rate != 0.05 || pol.SlowMicros != 100_000 || !pol.KeepErrors {
		t.Fatalf("default sampling policy: %+v", pol)
	}
}

// TestHealthzDegradedStore pins /healthz over a store opened
// degraded: corrupt records are skipped, never served, so the process
// stays healthy (200, status "ok") while the store block reports the
// corruption.
func TestHealthzDegradedStore(t *testing.T) {
	// A store with one corrupt sealed record: degraded from open.
	sdir := t.TempDir()
	seed, err := store.Open(store.Options{Dir: sdir, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		k := store.Key{}
		k[0], k[1] = byte(i), 0xEE
		if err := seed.Put(store.NSResult, k, []byte(strings.Repeat("x", 64))); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}
	corruptOneSegment(t, sdir)
	st, err := store.Open(store.Options{Dir: sdir, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if !st.Stats().Degraded {
		t.Fatal("test setup: store not degraded")
	}

	s := New(Options{Store: st})
	defer s.FlushStore()
	w := do(s, "GET", "/healthz", "")
	const want = `{"status":"ok","store":{"status":"degraded","segments":6,"bytes":5780,"records":54,"hits":0,"misses":0}}` + "\n"
	if w.Code != http.StatusOK || w.Body.String() != want {
		t.Fatalf("healthz over a degraded store: %d %q, want 200 %q", w.Code, w.Body.String(), want)
	}
}

// corruptOneSegment flips one byte in the middle of the first sealed
// segment file in dir.
func corruptOneSegment(t *testing.T, dir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no sealed segments to corrupt: %v %v", segs, err)
	}
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(segs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
}
