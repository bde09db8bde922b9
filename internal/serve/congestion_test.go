package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

func decodeCongestion(t *testing.T, w *httptest.ResponseRecorder) CongestionResponse {
	t.Helper()
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp CongestionResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad response JSON: %v\n%s", err, w.Body.String())
	}
	return resp
}

func TestCongestionAndCacheHit(t *testing.T) {
	s := New(Options{})
	body := marshal(t, CongestionRequest{Netlist: testdata(t, "demo.mnet"), Rows: 3, Model: "crossing"})

	hits0, misses0 := mCongestHits.Value(), mCongestMiss.Value()
	first := decodeCongestion(t, do(s, "POST", "/v1/congestion", body))
	if first.CacheHit {
		t.Fatal("first request reported a cache hit")
	}
	if first.Module != "demo" || first.Model != "crossing" || first.Rows != 3 {
		t.Fatalf("header %+v", first)
	}
	if len(first.Channels) != 4 || len(first.Feeds) != 3 {
		t.Fatalf("%d channels, %d feed rows, want 4/3", len(first.Channels), len(first.Feeds))
	}
	if first.ExpectedTracks <= 0 || len(first.Hotspots) == 0 {
		t.Fatalf("empty map: %+v", first)
	}
	for _, ch := range first.Channels {
		if ch.POverflow < 0 || ch.POverflow > 1 || math.IsNaN(ch.Utilization) {
			t.Fatalf("channel %d: overflow %g util %g", ch.Index, ch.POverflow, ch.Utilization)
		}
	}
	if len(first.Key) != 64 {
		t.Fatalf("key %q is not a sha256 hex digest", first.Key)
	}

	second := decodeCongestion(t, do(s, "POST", "/v1/congestion", body))
	if !second.CacheHit {
		t.Fatal("second identical request missed the cache")
	}
	second.CacheHit = first.CacheHit
	if marshal(t, first) != marshal(t, second) {
		t.Fatalf("cached answer differs:\n%+v\n%+v", first, second)
	}
	if hits := mCongestHits.Value() - hits0; hits != 1 {
		t.Fatalf("congest cache hits = %d, want 1", hits)
	}
	if misses := mCongestMiss.Value() - misses0; misses != 1 {
		t.Fatalf("congest cache misses = %d, want 1", misses)
	}
}

// Estimate and congestion answers share the circuit's one cached plan
// but never each other's memo entries: the same circuit through both
// endpoints never collides.
func TestCongestionDoesNotShareEstimateCache(t *testing.T) {
	s := New(Options{})
	netlist := testdata(t, "demo.mnet")
	est := decodeEstimate(t, do(s, "POST", "/v1/estimate", marshal(t, EstimateRequest{Netlist: netlist, Rows: 3})))
	resp := decodeCongestion(t, do(s, "POST", "/v1/congestion", marshal(t, CongestionRequest{Netlist: netlist, Rows: 3})))
	if resp.CacheHit {
		t.Fatal("congestion answer claimed a hit from the estimate cache")
	}
	if resp.Key == est.Key {
		t.Fatal("congestion and estimate answers share a content address")
	}
	if n := s.PlanCache().Len(); n != 1 {
		t.Fatalf("plan cache holds %d plans, want 1", n)
	}
}

// Analysis knobs participate in the congestion key: changing the
// model, capacity, or grid variant is a miss, not a stale hit.
func TestCongestionKeyCoversOptions(t *testing.T) {
	s := New(Options{})
	netlist := testdata(t, "demo.mnet")
	base := CongestionRequest{Netlist: netlist, Rows: 3}
	variants := []CongestionRequest{
		{Netlist: netlist, Rows: 3, Model: "crossing"},
		{Netlist: netlist, Rows: 4},
		{Netlist: netlist, Rows: 3, Capacity: 7},
		{Netlist: netlist, Rows: 3, FeedBudget: 9},
		{Netlist: netlist, Rows: 3, Gridded: true},
	}
	seen := map[string]bool{decodeCongestion(t, do(s, "POST", "/v1/congestion", marshal(t, base))).Key: true}
	for i, v := range variants {
		resp := decodeCongestion(t, do(s, "POST", "/v1/congestion", marshal(t, v)))
		if resp.CacheHit {
			t.Errorf("variant %d hit another variant's cache entry", i)
		}
		if seen[resp.Key] {
			t.Errorf("variant %d reused key %s", i, resp.Key)
		}
		seen[resp.Key] = true
	}
}

func TestCongestionGridded(t *testing.T) {
	s := New(Options{})
	resp := decodeCongestion(t, do(s, "POST", "/v1/congestion",
		marshal(t, CongestionRequest{Netlist: testdata(t, "demo.mnet"), Gridded: true})))
	if !resp.Gridded || resp.Rows < 1 {
		t.Fatalf("gridded map header %+v", resp)
	}
	if len(resp.Feeds) != 0 {
		t.Fatal("gridded map carries feed-through rows")
	}
}

// Unfixed rows resolve through the §5 initialization, and the answer
// reports the resolved count rather than the request's zero.
func TestCongestionAutomaticRows(t *testing.T) {
	s := New(Options{})
	resp := decodeCongestion(t, do(s, "POST", "/v1/congestion",
		marshal(t, CongestionRequest{Netlist: testdata(t, "demo.mnet")})))
	if resp.Rows < 1 {
		t.Fatalf("automatic rows resolved to %d", resp.Rows)
	}
	if len(resp.Channels) != resp.Rows+1 {
		t.Fatalf("%d channels for %d rows", len(resp.Channels), resp.Rows)
	}
}

func TestCongestionRejectsBadRequests(t *testing.T) {
	s := New(Options{})
	netlist := testdata(t, "demo.mnet")
	cases := []struct {
		name string
		body string
		want int
	}{
		{"bad json", "{", http.StatusBadRequest},
		{"empty netlist", marshal(t, CongestionRequest{}), http.StatusBadRequest},
		{"bad model", marshal(t, CongestionRequest{Netlist: netlist, Model: "psychic"}), http.StatusBadRequest},
		{"negative rows", marshal(t, CongestionRequest{Netlist: netlist, Rows: -2}), http.StatusBadRequest},
		// demo.mnet has N = 4 devices, so the feasible rows are 1..4.
		{"rows at N", marshal(t, CongestionRequest{Netlist: netlist, Rows: 4}), http.StatusOK},
		{"rows above N", marshal(t, CongestionRequest{Netlist: netlist, Rows: 5}), http.StatusBadRequest},
		{"gridded rows above N", marshal(t, CongestionRequest{Netlist: netlist, Rows: 5, Gridded: true}), http.StatusBadRequest},
		{"huge rows", marshal(t, CongestionRequest{Netlist: netlist, Rows: 2_000_000_000}), http.StatusBadRequest},
		{"bad process", marshal(t, CongestionRequest{Netlist: netlist, Process: "tube"}), http.StatusBadRequest},
		{"bad netlist", marshal(t, CongestionRequest{Netlist: "module x\nnonsense\nend\n"}), http.StatusBadRequest},
	}
	for _, c := range cases {
		if w := do(s, "POST", "/v1/congestion", c.body); w.Code != c.want {
			t.Errorf("%s: status %d, want %d: %s", c.name, w.Code, c.want, w.Body.String())
		}
	}
}

// The congestion endpoint shares the concurrency limiter with the
// estimate endpoints and sheds with the configured Retry-After.
func TestCongestionOverloadSheds(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	s := New(Options{MaxConcurrent: 1, RetryAfter: 7, EstimateHook: func() {
		entered <- struct{}{}
		<-release
	}})
	body := marshal(t, CongestionRequest{Netlist: testdata(t, "demo.mnet"), Rows: 2})
	done := make(chan *httptest.ResponseRecorder)
	go func() { done <- do(s, "POST", "/v1/congestion", body) }()
	<-entered

	w := do(s, "POST", "/v1/congestion", body)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d under overload, want 429", w.Code)
	}
	if got := w.Header().Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After %q, want configured 7", got)
	}
	close(release)
	decodeCongestion(t, <-done)
}
