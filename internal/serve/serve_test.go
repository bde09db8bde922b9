package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func testdata(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// do runs one request through the service handler stack.
func do(s *Server, method, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func marshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func decodeEstimate(t *testing.T, w *httptest.ResponseRecorder) EstimateResponse {
	t.Helper()
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp EstimateResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad response JSON: %v\n%s", err, w.Body.String())
	}
	return resp
}

func TestEstimateAndCacheHit(t *testing.T) {
	s := New(Options{})
	body := marshal(t, EstimateRequest{Netlist: testdata(t, "demo.mnet")})

	hits0, misses0 := mEstimateHits.Value(), mEstimateMiss.Value()
	first := decodeEstimate(t, do(s, "POST", "/v1/estimate", body))
	if first.CacheHit {
		t.Fatal("first request reported a cache hit")
	}
	if first.Module != "demo" || first.Process != "nmos25" {
		t.Fatalf("module %q process %q", first.Module, first.Process)
	}
	if first.SC == nil || first.SC.Area <= 0 || first.FCExact == nil || first.FCExact.Area <= 0 {
		t.Fatalf("incomplete estimate: %+v", first)
	}
	if len(first.Key) != 64 {
		t.Fatalf("key %q is not a sha256 hex digest", first.Key)
	}

	second := decodeEstimate(t, do(s, "POST", "/v1/estimate", body))
	if !second.CacheHit {
		t.Fatal("second identical request missed the cache")
	}
	// Identical answers modulo the hit flag.
	second.CacheHit = first.CacheHit
	if marshal(t, first) != marshal(t, second) {
		t.Fatalf("cached answer differs:\n%+v\n%+v", first, second)
	}
	if hits := mEstimateHits.Value() - hits0; hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
	if misses := mEstimateMiss.Value() - misses0; misses != 1 {
		t.Fatalf("cache misses = %d, want 1", misses)
	}
}

func TestEstimateTextualVariantsShareOneEntry(t *testing.T) {
	// Comments, blank lines, and declaration order do not change the
	// content address: the variant request is a hit on the original.
	s := New(Options{})
	original := "module v\nport in a\ndevice g1 INV a y1\ndevice g2 INV y1 y2\nend\n"
	variant := "# same circuit, different text\nmodule v\n\nport in a\ndevice g2 INV y1 y2\ndevice g1 INV a y1\nend\n"
	first := decodeEstimate(t, do(s, "POST", "/v1/estimate", marshal(t, EstimateRequest{Netlist: original})))
	second := decodeEstimate(t, do(s, "POST", "/v1/estimate", marshal(t, EstimateRequest{Netlist: variant})))
	if !second.CacheHit {
		t.Fatal("reordered netlist text missed the cache")
	}
	if first.Key != second.Key {
		t.Fatalf("keys differ: %s vs %s", first.Key, second.Key)
	}
}

func TestEstimateFormats(t *testing.T) {
	s := New(Options{})
	bench := decodeEstimate(t, do(s, "POST", "/v1/estimate",
		marshal(t, EstimateRequest{Format: "bench", Name: "c17", Netlist: testdata(t, "c17.bench")})))
	if bench.Module != "c17" || bench.SC == nil {
		t.Fatalf("bench estimate: %+v", bench)
	}
	verilog := decodeEstimate(t, do(s, "POST", "/v1/estimate",
		marshal(t, EstimateRequest{Format: "verilog", Netlist: testdata(t, "fa.v"), Process: "cmos30"})))
	if verilog.Module != "fa" || verilog.Process != "cmos30" {
		t.Fatalf("verilog estimate: %+v", verilog)
	}
}

func TestEstimateClientErrors(t *testing.T) {
	s := New(Options{})
	cases := []struct {
		name, body string
		status     int
	}{
		{"malformed JSON", `{"netlist": `, http.StatusBadRequest},
		{"trailing garbage", `{"netlist":"x"} extra`, http.StatusBadRequest},
		{"empty netlist", `{"netlist":""}`, http.StatusBadRequest},
		{"bad netlist", marshal(t, EstimateRequest{Netlist: "module m\n"}), http.StatusBadRequest},
		{"unknown format", marshal(t, EstimateRequest{Format: "edif", Netlist: "x"}), http.StatusBadRequest},
		{"unknown process", marshal(t, EstimateRequest{Process: "fab9", Netlist: testdata(t, "demo.mnet")}), http.StatusBadRequest},
		{"unknown device type", marshal(t, EstimateRequest{Netlist: "module m\ndevice g WARP a b\nend\n"}), http.StatusUnprocessableEntity},
		{"negative rows", marshal(t, EstimateRequest{Rows: -1, Netlist: testdata(t, "demo.mnet")}), http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		w := do(s, "POST", "/v1/estimate", tc.body)
		if w.Code != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, w.Code, tc.status, w.Body.String())
		}
		var e ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body not JSON: %s", tc.name, w.Body.String())
		}
	}
}

// TestEstimateReservedNetName pins the fix for a gate-level net named
// like one the transistor expansion mints: "$s1" used to merge with a
// generated series node and inflate the full-custom wire area (448 λ²
// instead of 336); it is now unestimable.  Renamed, the module
// estimates as usual.
func TestEstimateReservedNetName(t *testing.T) {
	s := New(Options{})
	const bench = "INPUT($s1)\nINPUT(a)\nINPUT(b)\nOUTPUT(w)\n" +
		"y = NAND(a, b)\nz = NAND($s1, a, y)\nw = NOR($s1, b, z)\n"
	w := do(s, "POST", "/v1/estimate", marshal(t, EstimateRequest{Format: "bench", Name: "clash", Netlist: bench}))
	if w.Code != http.StatusUnprocessableEntity || !strings.Contains(w.Body.String(), "reserved for generated names") {
		t.Fatalf("status %d, want 422 naming the reserved net: %s", w.Code, w.Body.String())
	}
	renamed := strings.ReplaceAll(bench, "$s1", "s1")
	resp := decodeEstimate(t, do(s, "POST", "/v1/estimate", marshal(t, EstimateRequest{Format: "bench", Name: "clash", Netlist: renamed})))
	if resp.FCExact == nil || resp.FCExact.WireArea != 336 {
		t.Fatalf("renamed module: full-custom exact %+v, want wire area 336", resp.FCExact)
	}
}

func TestRequestSizeLimit(t *testing.T) {
	s := New(Options{MaxRequestBytes: 64})
	body := marshal(t, EstimateRequest{Netlist: testdata(t, "demo.mnet")})
	if w := do(s, "POST", "/v1/estimate", body); w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", w.Code)
	}
}

func TestEstimateTimeout(t *testing.T) {
	s := New(Options{Timeout: time.Nanosecond})
	w := do(s, "POST", "/v1/estimate", marshal(t, EstimateRequest{Netlist: testdata(t, "demo.mnet")}))
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", w.Code, w.Body.String())
	}
}

func TestConcurrencyLimitSheds429(t *testing.T) {
	acquired := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	s := New(Options{
		MaxConcurrent: 1,
		EstimateHook: func() {
			once.Do(func() {
				close(acquired)
				<-gate
			})
		},
	})
	body := marshal(t, EstimateRequest{Netlist: testdata(t, "demo.mnet")})

	rejected0 := mRejected.Value()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if w := do(s, "POST", "/v1/estimate", body); w.Code != http.StatusOK {
			t.Errorf("held request failed: %d %s", w.Code, w.Body.String())
		}
	}()
	<-acquired // the slot is now deterministically held

	w := do(s, "POST", "/v1/estimate/batch",
		marshal(t, BatchRequest{Modules: []ModuleInput{{Netlist: testdata(t, "demo.mnet")}}}))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", w.Code, w.Body.String())
	}
	if ra := w.Header().Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := mRejected.Value() - rejected0; got != 1 {
		t.Fatalf("rejected counter delta = %d, want 1", got)
	}
	close(gate)
	wg.Wait()
}

func batchModule(name string, stages int) ModuleInput {
	var b strings.Builder
	fmt.Fprintf(&b, "module %s\nport in a\n", name)
	prev := "a"
	for i := 0; i < stages; i++ {
		next := fmt.Sprintf("n%d", i)
		fmt.Fprintf(&b, "device g%d INV %s %s\n", i, prev, next)
		prev = next
	}
	fmt.Fprintf(&b, "port out %s\nend\n", prev)
	return ModuleInput{Netlist: b.String()}
}

func TestBatchEstimate(t *testing.T) {
	s := New(Options{})
	req := BatchRequest{Modules: []ModuleInput{
		batchModule("b0", 3),
		batchModule("b1", 5),
		batchModule("b2", 7),
	}}
	w := do(s, "POST", "/v1/estimate/batch", marshal(t, req))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.CacheHits != 0 || len(resp.Modules) != 3 {
		t.Fatalf("hits=%d modules=%d", resp.CacheHits, len(resp.Modules))
	}
	for i, m := range resp.Modules {
		if want := fmt.Sprintf("b%d", i); m.Module != want {
			t.Fatalf("module %d answered as %q, want %q (order lost)", i, m.Module, want)
		}
		if m.CacheHit || m.SC == nil || m.SC.Area <= 0 {
			t.Fatalf("module %d: %+v", i, m)
		}
	}

	// The same batch again is answered entirely from the cache, with
	// per-module results identical to the fresh ones.
	w2 := do(s, "POST", "/v1/estimate/batch", marshal(t, req))
	var resp2 BatchResponse
	if err := json.Unmarshal(w2.Body.Bytes(), &resp2); err != nil {
		t.Fatal(err)
	}
	if resp2.CacheHits != 3 {
		t.Fatalf("repeat batch cache hits = %d, want 3", resp2.CacheHits)
	}
	for i := range resp2.Modules {
		a, b := resp.Modules[i], resp2.Modules[i]
		b.CacheHit = a.CacheHit
		if marshal(t, a) != marshal(t, b) {
			t.Fatalf("module %d: cached batch answer differs", i)
		}
	}

	// A mixed batch reuses the cached modules and estimates the new one.
	mixed := BatchRequest{Modules: []ModuleInput{req.Modules[1], batchModule("b3", 9)}}
	var resp3 BatchResponse
	if err := json.Unmarshal(do(s, "POST", "/v1/estimate/batch", marshal(t, mixed)).Body.Bytes(), &resp3); err != nil {
		t.Fatal(err)
	}
	if resp3.CacheHits != 1 || !resp3.Modules[0].CacheHit || resp3.Modules[1].CacheHit {
		t.Fatalf("mixed batch: %+v", resp3)
	}
}

func TestBatchErrors(t *testing.T) {
	s := New(Options{})
	if w := do(s, "POST", "/v1/estimate/batch", `{"modules":[]}`); w.Code != http.StatusBadRequest {
		t.Fatalf("empty batch: %d", w.Code)
	}
	// A malformed module is named by position.
	req := BatchRequest{Modules: []ModuleInput{batchModule("ok", 2), {Netlist: "module broken\n"}}}
	w := do(s, "POST", "/v1/estimate/batch", marshal(t, req))
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "module 1") {
		t.Fatalf("bad module: %d %s", w.Code, w.Body.String())
	}
	// An estimator-level failure names the failing module.
	req = BatchRequest{Modules: []ModuleInput{
		batchModule("ok", 2),
		{Netlist: "module warped\ndevice g WARP a b\nend\n"},
	}}
	w = do(s, "POST", "/v1/estimate/batch", marshal(t, req))
	if w.Code != http.StatusUnprocessableEntity || !strings.Contains(w.Body.String(), "warped") {
		t.Fatalf("estimator failure: %d %s", w.Code, w.Body.String())
	}
}

func TestBatchTimeout(t *testing.T) {
	s := New(Options{Timeout: time.Nanosecond})
	req := BatchRequest{Modules: []ModuleInput{batchModule("t0", 3), batchModule("t1", 4)}}
	w := do(s, "POST", "/v1/estimate/batch", marshal(t, req))
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", w.Code, w.Body.String())
	}
}

func TestHealthMetricsAndMethods(t *testing.T) {
	s := New(Options{})
	if w := do(s, "GET", "/healthz", ""); w.Code != http.StatusOK {
		t.Fatalf("healthz: %d", w.Code)
	}
	// Warm one estimate so the cache counters exist, then check the
	// exposition carries them.
	do(s, "POST", "/v1/estimate", marshal(t, EstimateRequest{Netlist: testdata(t, "demo.mnet")}))
	w := do(s, "GET", "/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: %d", w.Code)
	}
	for _, name := range []string{
		"maest_serve_cache_hits_total",
		"maest_serve_cache_misses_total",
		"maest_serve_requests_total",
		"maest_serve_request_seconds",
	} {
		if !strings.Contains(w.Body.String(), name) {
			t.Errorf("metrics exposition missing %s", name)
		}
	}
	if w := do(s, "GET", "/v1/estimate", ""); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET estimate: %d, want 405", w.Code)
	}
	if w := do(s, "POST", "/nope", ""); w.Code != http.StatusNotFound {
		t.Fatalf("unknown route: %d, want 404", w.Code)
	}
}
