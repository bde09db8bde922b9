package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// doDebug runs one request through the observatory handler.
func doDebug(t *testing.T, s *Server, path string) []byte {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	w := httptest.NewRecorder()
	s.DebugHandler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", path, w.Code, w.Body.String())
	}
	return w.Body.Bytes()
}

func TestDebugFlightAfterMixedTraffic(t *testing.T) {
	s := New(Options{FlightSize: 8})
	estimate := marshal(t, EstimateRequest{Netlist: testdata(t, "demo.mnet")})
	congestion := marshal(t, CongestionRequest{Netlist: testdata(t, "demo.mnet"), Rows: 3})
	batch := marshal(t, BatchRequest{Modules: []ModuleInput{batchModule("fl0", 3), batchModule("fl1", 4)}})

	do(s, "POST", "/v1/estimate", estimate)
	do(s, "POST", "/v1/estimate", estimate) // cache hit
	do(s, "POST", "/v1/estimate/batch", batch)
	do(s, "POST", "/v1/congestion", congestion)

	var resp FlightResponse
	if err := json.Unmarshal(doDebug(t, s, "/debug/flight"), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Enabled || resp.Capacity != 8 || resp.Total != 4 || len(resp.Requests) != 4 {
		t.Fatalf("flight header: enabled=%v cap=%d total=%d n=%d",
			resp.Enabled, resp.Capacity, resp.Total, len(resp.Requests))
	}
	// Newest first: congestion, batch, hit, miss.
	wantEndpoints := []string{"/v1/congestion", "/v1/estimate/batch", "/v1/estimate", "/v1/estimate"}
	for i, r := range resp.Requests {
		if r.Endpoint != wantEndpoints[i] {
			t.Fatalf("requests[%d].Endpoint = %q, want %q", i, r.Endpoint, wantEndpoints[i])
		}
		if r.Status != http.StatusOK || r.ID == "" || r.Micros <= 0 {
			t.Fatalf("requests[%d] incomplete: %+v", i, r)
		}
		if len(r.Stages) == 0 {
			t.Fatalf("requests[%d] has no per-stage durations: %+v", i, r)
		}
	}
	// The cache-hit estimate is flagged and shares the miss's digest.
	hit, miss := resp.Requests[2], resp.Requests[3]
	if !hit.CacheHit || miss.CacheHit {
		t.Fatalf("cache flags: hit=%v miss=%v", hit.CacheHit, miss.CacheHit)
	}
	if hit.Digest == "" || hit.Digest != miss.Digest {
		t.Fatalf("digests: hit=%q miss=%q", hit.Digest, miss.Digest)
	}
	// The miss went through the estimator, so its stage list includes
	// the estimate stage and its span summary the pipeline spans.
	stageNames := make(map[string]bool)
	for _, st := range miss.Stages {
		stageNames[st.Name] = true
	}
	if !stageNames["decode"] || !stageNames["parse"] || !stageNames["estimate"] {
		t.Fatalf("miss stages missing decode/parse/estimate: %+v", miss.Stages)
	}
	// The repeat took the source alias: its stages name that route and
	// no parse.
	hitStages := make(map[string]bool)
	for _, st := range hit.Stages {
		hitStages[st.Name] = true
	}
	if !hitStages["alias"] || hitStages["parse"] {
		t.Fatalf("hit stages want alias and no parse: %+v", hit.Stages)
	}
	if hit.Plan == "" || hit.Plan != miss.Plan {
		t.Fatalf("plans: hit=%q miss=%q", hit.Plan, miss.Plan)
	}
	var rootSpans int
	for _, sp := range miss.Spans {
		if sp.Name == "request" && sp.Depth == 0 {
			rootSpans++
		}
	}
	if rootSpans != 1 {
		t.Fatalf("miss span summary has %d root request spans, want 1: %+v", rootSpans, miss.Spans)
	}

	// Per-endpoint latency quantiles ride along.
	if len(resp.Latency) != 6 {
		t.Fatalf("latency section has %d endpoints, want 6", len(resp.Latency))
	}
	for _, ep := range resp.Latency {
		if ep.Endpoint == "/v1/estimate" && ep.Count < 2 {
			t.Fatalf("estimate endpoint count = %d, want ≥ 2", ep.Count)
		}
	}

	// ?n= truncates to the newest n.
	var truncated FlightResponse
	if err := json.Unmarshal(doDebug(t, s, "/debug/flight?n=2"), &truncated); err != nil {
		t.Fatal(err)
	}
	if len(truncated.Requests) != 2 || truncated.Requests[0].Endpoint != "/v1/congestion" {
		t.Fatalf("?n=2: %+v", truncated.Requests)
	}
}

func TestDebugSlowest(t *testing.T) {
	s := New(Options{FlightSize: 16})
	// A heavier netlist takes longer than the tiny ones; the slowest
	// listing must lead with longer durations.
	do(s, "POST", "/v1/estimate", marshal(t, EstimateRequest{Netlist: benchNetlist("big", 60)}))
	for i := 0; i < 3; i++ {
		do(s, "POST", "/v1/estimate", marshal(t, EstimateRequest{Netlist: benchNetlist("small", 2)}))
	}
	var resp SlowestResponse
	if err := json.Unmarshal(doDebug(t, s, "/debug/slowest?k=2"), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Enabled || len(resp.Requests) != 2 {
		t.Fatalf("slowest: enabled=%v n=%d", resp.Enabled, len(resp.Requests))
	}
	if resp.Requests[0].Micros < resp.Requests[1].Micros {
		t.Fatalf("not sorted by duration: %d then %d", resp.Requests[0].Micros, resp.Requests[1].Micros)
	}
	if len(resp.Requests[0].Spans) == 0 {
		t.Fatal("slowest entry has no span breakdown")
	}
}

func TestDebugDisabledFlight(t *testing.T) {
	s := New(Options{}) // FlightSize 0 → recorder off
	var resp FlightResponse
	if err := json.Unmarshal(doDebug(t, s, "/debug/flight"), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Enabled || resp.Capacity != 0 || len(resp.Requests) != 0 {
		t.Fatalf("disabled flight: %+v", resp)
	}
	if len(resp.Latency) != 6 {
		t.Fatalf("latency section should still render: %+v", resp.Latency)
	}
	body := doDebug(t, s, "/debug/slowest")
	if !strings.Contains(string(body), `"enabled":false`) {
		t.Fatalf("slowest on disabled recorder: %s", body)
	}
}

func TestDebugFlightEvictionOverHTTP(t *testing.T) {
	s := New(Options{FlightSize: 2})
	for i := 0; i < 5; i++ {
		do(s, "POST", "/v1/estimate", marshal(t, EstimateRequest{Netlist: testdata(t, "demo.mnet")}))
	}
	var resp FlightResponse
	if err := json.Unmarshal(doDebug(t, s, "/debug/flight"), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Total != 5 || len(resp.Requests) != 2 {
		t.Fatalf("total=%d resident=%d, want 5/2", resp.Total, len(resp.Requests))
	}
	// Newest first means descending, contiguous sequence numbers.
	if resp.Requests[0].Seq != 4 || resp.Requests[1].Seq != 3 {
		t.Fatalf("seqs %d,%d want 4,3", resp.Requests[0].Seq, resp.Requests[1].Seq)
	}
}
