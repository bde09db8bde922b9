package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"maest/internal/gen"
	"maest/internal/hdl"
	"maest/internal/netlist"
	"maest/internal/tech"
)

func benchBody(b *testing.B, name string) string {
	b.Helper()
	body, err := json.Marshal(EstimateRequest{Netlist: benchNetlist(name, 40)})
	if err != nil {
		b.Fatal(err)
	}
	return string(body)
}

func benchNetlist(name string, stages int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module %s\nport in a\n", name)
	prev := "a"
	for i := 0; i < stages; i++ {
		next := fmt.Sprintf("n%d", i)
		fmt.Fprintf(&sb, "device g%d INV %s %s\n", i, prev, next)
		prev = next
	}
	fmt.Fprintf(&sb, "port out %s\nend\n", prev)
	return sb.String()
}

func post(b *testing.B, s *Server, body string) {
	b.Helper()
	req := httptest.NewRequest("POST", "/v1/estimate", strings.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		b.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
}

// cacheHitAllocCeiling is the allocation budget of a repeated
// /v1/estimate, recorder and request included.  The source alias sends
// the repeat straight to its plan's memo, hashing the netlist where it
// lies in the body, and the one-pass decoder reads the body with two,
// holding it at 46 objects; copying the netlist out made it 47,
// encoding/json's Decoder 63, and parsing, rendering and hashing the
// body again cost about 490.
const cacheHitAllocCeiling = 50

// BenchmarkEstimateCacheHit measures the hot serving path: identical
// request, answer straight from the content-addressed cache, held to
// cacheHitAllocCeiling.
func BenchmarkEstimateCacheHit(b *testing.B) {
	s := New(Options{})
	body := benchBody(b, "hot")
	post(b, s, body) // warm the entry
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(b, s, body)
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(100, func() { post(b, s, body) }); allocs > cacheHitAllocCeiling {
		b.Fatalf("cached /v1/estimate allocates %.0f objects, ceiling %d", allocs, cacheHitAllocCeiling)
	}
}

// cacheMissAllocCeiling is the allocation budget of a cold
// /v1/estimate, recorder and request included.  The one-pass decoder,
// the in-place .mnet tokenizer, the Builder's arenas with components
// linked at Build, and one canonical derivation hold it at 149 objects;
// a component list grown per append and a second sort, render and
// three SHA-256 passes made it 245, encoding/json's Decoder 262, and a
// line scanner with a heap object per element about 560.
const cacheMissAllocCeiling = 160

// BenchmarkEstimateCacheMiss measures the cold path — full decode →
// parse → estimate → encode — by disabling the cache so every request
// recomputes, held to cacheMissAllocCeiling.
func BenchmarkEstimateCacheMiss(b *testing.B) {
	s := New(Options{CacheSize: -1})
	body := benchBody(b, "cold")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(b, s, body)
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(100, func() { post(b, s, body) }); allocs > cacheMissAllocCeiling {
		b.Fatalf("uncached /v1/estimate allocates %.0f objects, ceiling %d", allocs, cacheMissAllocCeiling)
	}
}

// decodeBodyAllocCeiling is the allocation budget of decoding the
// 250-gate /v1/estimate body below, measured at 2: the MaxBytesReader
// and the request value.  The netlist stays in the body; copying its
// text out made it 3, and encoding/json's Decoder cost 14.
const decodeBodyAllocCeiling = 3

// circ250 is the generated 250-gate module behind body250.
func circ250(b *testing.B) *netlist.Circuit {
	b.Helper()
	c, err := gen.RandomCircuit(gen.RandomConfig{Name: "bench250", Gates: 250, Inputs: 6, Outputs: 4, Seed: 1}, tech.NMOS25())
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// body250 is a loadbench-shaped /v1/estimate body: a generated
// 250-gate module as .mnet text.
func body250(b *testing.B) []byte {
	b.Helper()
	c := circ250(b)
	var src strings.Builder
	if err := hdl.WriteMnet(&src, c); err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(EstimateRequest{Netlist: src.String()})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// BenchmarkDecodeBody times decodeBody on a loadbench-shaped 250-gate
// EstimateRequest, held to decodeBodyAllocCeiling.
func BenchmarkDecodeBody(b *testing.B) {
	body := body250(b)
	rd := bytes.NewReader(body)
	req := httptest.NewRequest("POST", "/v1/estimate", io.NopCloser(rd))
	var w nullResponseWriter
	decode := func() {
		rd.Reset(body)
		var er EstimateRequest
		buf, err := decodeBody(&w, req, 8<<20, &er)
		if err != nil {
			b.Fatal(err)
		}
		releaseBody(buf)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decode()
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(100, decode); allocs > decodeBodyAllocCeiling {
		b.Fatalf("decodeBody allocates %.0f objects, ceiling %d", allocs, decodeBodyAllocCeiling)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes
// one call of f allocates over runs calls, after one warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// BenchmarkEstimateAliasHit times a repeated /v1/estimate of the
// 250-gate body through the whole handler, the request and writer
// reused so only the server's own allocations count.  The repeat takes
// the source alias, which hashes the netlist where it lies in the body:
// it must allocate fewer bytes than the body holds.  When the decoder
// copied the netlist out first, the copy alone was the body's size.
func BenchmarkEstimateAliasHit(b *testing.B) {
	s := New(Options{})
	body := body250(b)
	rd := bytes.NewReader(body)
	req := httptest.NewRequest("POST", "/v1/estimate", io.NopCloser(rd))
	var w nullResponseWriter
	serve := func() {
		rd.Reset(body)
		s.ServeHTTP(&w, req)
	}
	serve() // register the alias
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
	b.StopTimer()
	if n := bytesPerRun(100, serve); n >= uint64(len(body)) {
		b.Fatalf("a repeated /v1/estimate allocates %d bytes, not fewer than its %d-byte body", n, len(body))
	}
}

// serveLoop returns a call that serves body at path through the whole
// handler, the request and writer reused so only the server's own
// allocations count.  It serves once through a recorder first and
// fails unless that answers 200, because the reused writer discards
// the status.
func serveLoop(b *testing.B, s *Server, path string, body []byte) func() {
	b.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		b.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.String())
	}
	rd := bytes.NewReader(body)
	req := httptest.NewRequest("POST", path, io.NopCloser(rd))
	var w nullResponseWriter
	return func() {
		rd.Reset(body)
		s.ServeHTTP(&w, req)
	}
}

// coldEstimateAllocCeiling is the allocation budget of a cold
// /v1/estimate of the 250-gate body: decode, parse, one canonical
// derivation, compile, estimate and encode, measured at 149 objects.
// Growing each net's component list per append, and sorting, rendering
// and hashing the circuit again in compile, made it 803.
const coldEstimateAllocCeiling = 160

// BenchmarkEstimateCold times a cold /v1/estimate of the 250-gate
// body with the plan cache off, so every request parses, derives its
// canonical form and compiles; held to coldEstimateAllocCeiling.
func BenchmarkEstimateCold(b *testing.B) {
	serve := serveLoop(b, New(Options{CacheSize: -1}), "/v1/estimate", body250(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(100, serve); allocs > coldEstimateAllocCeiling {
		b.Fatalf("a cold /v1/estimate allocates %.0f objects, ceiling %d", allocs, coldEstimateAllocCeiling)
	}
}

// deltaStepAllocCeiling is the allocation budget of one
// /v1/estimate/delta step on the 250-gate module, measured at 90
// objects.  The result key finishes from the child plan's midstate;
// rendering and hashing the child again for it made the step 99.
const deltaStepAllocCeiling = 95

// BenchmarkDeltaStep times one ECO step through the handler: a
// connect_pin delta against the resident 250-gate plan.  Every step
// derives the child plan and its result key; the child's answer is a
// memo hit after the first.  Held to deltaStepAllocCeiling.
func BenchmarkDeltaStep(b *testing.B) {
	s := New(Options{})
	c := circ250(b)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/estimate", bytes.NewReader(body250(b))))
	var er EstimateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Plan == "" {
		b.Fatalf("parent estimate: %v: %s", err, rec.Body.String())
	}
	body, err := json.Marshal(DeltaRequest{Parent: er.Plan, Edits: []EditBody{
		{Op: "connect_pin", Device: c.Devices[0].Name, Net: c.Nets[len(c.Nets)-1].Name},
	}})
	if err != nil {
		b.Fatal(err)
	}
	serve := serveLoop(b, s, "/v1/estimate/delta", body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(100, serve); allocs > deltaStepAllocCeiling {
		b.Fatalf("a /v1/estimate/delta step allocates %.0f objects, ceiling %d", allocs, deltaStepAllocCeiling)
	}
}

// benchInstrument measures the telemetry wrapper around a no-op
// handler, isolating the observatory's own cost from the estimator's.
func benchInstrument(b *testing.B, opts Options) {
	s := New(opts)
	h := s.instrument("/v1/estimate", func(http.ResponseWriter, *http.Request, *reqInfo) {})
	req := httptest.NewRequest("POST", "/v1/estimate", nil)
	var w nullResponseWriter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h(&w, req)
	}
}

// BenchmarkInstrumentDisabled is the acceptance benchmark: with the
// flight recorder and access log off, the per-request instrumentation
// must report 0 allocs/op.
func BenchmarkInstrumentDisabled(b *testing.B) {
	benchInstrument(b, Options{})
}

// BenchmarkInstrumentFlight prices the enabled path (request ID, span
// collection, ring write) for comparison.
func BenchmarkInstrumentFlight(b *testing.B) {
	benchInstrument(b, Options{FlightSize: 256})
}
