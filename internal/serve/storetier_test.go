package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"maest/internal/congest"
	"maest/internal/core"
	"maest/internal/store"
)

// openTestStore opens a store in a temp dir and returns it without
// cleanup registration — restart tests own the close ordering.
func openTestStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStoreTierDisabled pins the nil-tier contract: every method is a
// well-defined no-op, mirroring the nil plan cache.
func TestStoreTierDisabled(t *testing.T) {
	var tier *storeTier
	if _, ok := load[core.Result](tier, store.NSResult, Key{}); ok {
		t.Error("nil tier answered a result lookup")
	}
	if _, ok := load[congest.Map](tier, store.NSCongest, Key{}); ok {
		t.Error("nil tier answered a congestion lookup")
	}
	if _, ok := tier.stats(); ok {
		t.Error("nil tier has stats")
	}
	tier.put(store.NSResult, Key{}, nil)
	tier.flush()
	tier.flush()

	s := New(Options{})
	if _, ok := s.StoreStats(); ok {
		t.Error("server without a store reports store stats")
	}
	s.FlushStore()
	w := httptest.NewRecorder()
	s.handleDebugStore(w, httptest.NewRequest("GET", "/debug/store", nil))
	var d DebugStoreResponse
	if err := json.Unmarshal(w.Body.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if d.Enabled || d.Stats != nil {
		t.Fatalf("debug/store enabled without a store: %+v", d)
	}
	var h HealthResponse
	if err := json.Unmarshal(do(s, "GET", "/healthz", "").Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Store != nil {
		t.Fatalf("healthz store block without a store: %+v", h.Store)
	}
}

// TestStoreTierUndecodablePayload: a persisted value the current
// schema cannot decode degrades to a miss (the service recomputes and
// overwrites), never to an error or a garbage answer.
func TestStoreTierUndecodablePayload(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	defer st.Close()
	key := Key(sha256.Sum256([]byte("undecodable")))
	if err := st.Put(store.NSResult, store.Key(key), []byte("not json")); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(store.NSCongest, store.Key(key), []byte("{")); err != nil {
		t.Fatal(err)
	}
	tier := newStoreTier(st)
	defer tier.flush()
	if _, ok := load[core.Result](tier, store.NSResult, key); ok {
		t.Error("undecodable result payload served")
	}
	if _, ok := load[congest.Map](tier, store.NSCongest, key); ok {
		t.Error("undecodable congestion payload served")
	}
}

// TestServeStoreWarmRestart is the package-level warm-start contract:
// a fresh Server over a directory a previous Server populated serves
// estimate, delta, batch, and congestion answers from disk with the
// exact bytes the original computation produced.
func TestServeStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	demo := testdata(t, "demo.mnet")
	est := marshal(t, EstimateRequest{Netlist: demo})
	cong := marshal(t, CongestionRequest{Netlist: demo})

	// Cold instance: compute everything, then flush and close.
	st1 := openTestStore(t, dir)
	s1 := New(Options{Store: st1})
	cold := decodeEstimate(t, do(s1, "POST", "/v1/estimate", est))
	if cold.CacheHit {
		t.Fatal("cold estimate claims a cache hit")
	}
	coldDelta := decodeEstimate(t, do(s1, "POST", "/v1/estimate/delta",
		marshal(t, DeltaRequest{Parent: cold.Plan, Edits: deltaEditScript})))
	coldCongest := do(s1, "POST", "/v1/congestion", cong)
	if coldCongest.Code != 200 {
		t.Fatalf("cold congestion: %d %s", coldCongest.Code, coldCongest.Body.String())
	}
	s1.FlushStore()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Warm instance: fresh plan cache, same directory.
	st2 := openTestStore(t, dir)
	defer st2.Close()
	s2 := New(Options{Store: st2})
	defer s2.FlushStore()

	warm := decodeEstimate(t, do(s2, "POST", "/v1/estimate", est))
	if !warm.CacheHit {
		t.Fatal("warm estimate not served from the store")
	}
	warm.CacheHit, cold.CacheHit = false, false
	if a, b := marshal(t, warm), marshal(t, cold); a != b {
		t.Fatalf("warm answer differs from fresh computation:\n%s\n%s", a, b)
	}

	// The warm estimate compiled the plan, so the delta chain works
	// across the restart — and the child's result is a store hit too.
	warmDelta := decodeEstimate(t, do(s2, "POST", "/v1/estimate/delta",
		marshal(t, DeltaRequest{Parent: warm.Plan, Edits: deltaEditScript})))
	if !warmDelta.CacheHit {
		t.Fatal("warm delta not served from the store")
	}
	warmDelta.CacheHit, coldDelta.CacheHit = false, false
	if a, b := marshal(t, warmDelta), marshal(t, coldDelta); a != b {
		t.Fatalf("warm delta differs from fresh computation:\n%s\n%s", a, b)
	}

	warmCongest := do(s2, "POST", "/v1/congestion", cong)
	if warmCongest.Code != 200 {
		t.Fatalf("warm congestion: %d %s", warmCongest.Code, warmCongest.Body.String())
	}
	var cc, wc CongestionResponse
	if err := json.Unmarshal(coldCongest.Body.Bytes(), &cc); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(warmCongest.Body.Bytes(), &wc); err != nil {
		t.Fatal(err)
	}
	if !wc.CacheHit {
		t.Fatal("warm congestion not served from the store")
	}
	wc.CacheHit, cc.CacheHit = false, false
	if a, b := marshal(t, wc), marshal(t, cc); a != b {
		t.Fatalf("warm congestion differs from fresh analysis:\n%s\n%s", a, b)
	}

	// The health body carries the store block, status ok.
	var h HealthResponse
	if err := json.Unmarshal(do(s2, "GET", "/healthz", "").Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Store == nil || h.Store.Status != "ok" || h.Store.Hits == 0 {
		t.Fatalf("healthz store block: %+v", h.Store)
	}

	// And the debug endpoint exposes the full snapshot.
	w := httptest.NewRecorder()
	s2.handleDebugStore(w, httptest.NewRequest("GET", "/debug/store", nil))
	var d DebugStoreResponse
	if err := json.Unmarshal(w.Body.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if !d.Enabled || d.Stats == nil || d.Stats.Hits == 0 {
		t.Fatalf("debug/store: %+v", d)
	}
}

// TestFailedSealReadsDegraded: once the store cannot seal its WAL
// (here its directory is gone), every later write fails, and /healthz
// must say so instead of reading ok.
func TestFailedSealReadsDegraded(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(store.Options{Dir: dir, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := New(Options{Store: st})
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	demo := testdata(t, "demo.mnet")
	for _, r := range []struct{ path, body string }{
		{"/v1/estimate", marshal(t, EstimateRequest{Netlist: demo})},
		{"/v1/congestion", marshal(t, CongestionRequest{Netlist: demo})},
	} {
		if w := do(s, "POST", r.path, r.body); w.Code != 200 {
			t.Fatalf("%s: %d %s", r.path, w.Code, w.Body.String())
		}
	}
	s.FlushStore()
	var h HealthResponse
	if err := json.Unmarshal(do(s, "GET", "/healthz", "").Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Store == nil || h.Store.Status != "degraded" {
		t.Fatalf("healthz store block after a failed seal: %+v", h.Store)
	}
}

// TestStoreHitInstallsIntoMemo: after a restart, the first repeat of a
// persisted estimate and of a persisted congestion map is a store hit
// that installs the answer into the plan's memo, so the second repeat
// never reads the disk — and both stay byte-identical to the fresh
// computation.
func TestStoreHitInstallsIntoMemo(t *testing.T) {
	dir := t.TempDir()
	demo := testdata(t, "demo.mnet")
	routes := []struct{ path, body string }{
		{"/v1/estimate", marshal(t, EstimateRequest{Netlist: demo, Rows: 2})},
		{"/v1/congestion", marshal(t, CongestionRequest{Netlist: demo, Model: "crossing"})},
	}
	answer := func(s *Server, path, body string, hit bool) string {
		t.Helper()
		w := do(s, "POST", path, body)
		if w.Code != 200 {
			t.Fatalf("%s: %d %s", path, w.Code, w.Body.String())
		}
		flag := fmt.Sprintf(`"cache_hit":%t`, hit)
		if !strings.Contains(w.Body.String(), flag) {
			t.Fatalf("%s: answer lacks %s: %s", path, flag, w.Body.String())
		}
		return strings.Replace(w.Body.String(), flag, `"cache_hit":false`, 1)
	}

	st1 := openTestStore(t, dir)
	s1 := New(Options{Store: st1})
	fresh := make([]string, len(routes))
	for i, r := range routes {
		fresh[i] = answer(s1, r.path, r.body, false)
	}
	s1.FlushStore()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openTestStore(t, dir)
	defer st2.Close()
	s2 := New(Options{Store: st2})
	defer s2.FlushStore()
	for i, r := range routes {
		hits0 := scrapeMetric(t, s2, "maest_store_hits_total")
		if got := answer(s2, r.path, r.body, true); got != fresh[i] {
			t.Fatalf("%s: store answer differs from fresh:\n%s\n%s", r.path, got, fresh[i])
		}
		if n := scrapeMetric(t, s2, "maest_store_hits_total") - hits0; n != 1 {
			t.Fatalf("%s: first repeat added %d store hits, want 1", r.path, n)
		}
		if got := answer(s2, r.path, r.body, true); got != fresh[i] {
			t.Fatalf("%s: memo answer differs from fresh:\n%s\n%s", r.path, got, fresh[i])
		}
		if n := scrapeMetric(t, s2, "maest_store_hits_total") - hits0; n != 1 {
			t.Fatalf("%s: second repeat read the store (%d hits in all), want a memo hit", r.path, n)
		}
	}
}

// scrapeMetric reads one counter from the server's /metrics exposition.
func scrapeMetric(t *testing.T, s *Server, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(do(s, "GET", "/metrics", "").Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return n
		}
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}

// TestServeStoreBatchWarm: a warm batch answers every module from the
// store (reported as cached on the wire) after a restart wiped the
// plan cache.
func TestServeStoreBatchWarm(t *testing.T) {
	dir := t.TempDir()
	demo := testdata(t, "demo.mnet")
	batch := marshal(t, BatchRequest{Modules: []ModuleInput{
		{Netlist: demo},
		{Format: "bench", Name: "c17", Netlist: testdata(t, "c17.bench")},
	}})

	st1 := openTestStore(t, dir)
	s1 := New(Options{Store: st1})
	coldW := do(s1, "POST", "/v1/estimate/batch", batch)
	if coldW.Code != 200 {
		t.Fatalf("cold batch: %d %s", coldW.Code, coldW.Body.String())
	}
	var coldResp BatchResponse
	if err := json.Unmarshal(coldW.Body.Bytes(), &coldResp); err != nil {
		t.Fatal(err)
	}
	if coldResp.CacheHits != 0 {
		t.Fatalf("cold batch reports %d cache hits", coldResp.CacheHits)
	}
	s1.FlushStore()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openTestStore(t, dir)
	defer st2.Close()
	s2 := New(Options{Store: st2})
	defer s2.FlushStore()
	warmW := do(s2, "POST", "/v1/estimate/batch", batch)
	if warmW.Code != 200 {
		t.Fatalf("warm batch: %d %s", warmW.Code, warmW.Body.String())
	}
	var warmResp BatchResponse
	if err := json.Unmarshal(warmW.Body.Bytes(), &warmResp); err != nil {
		t.Fatal(err)
	}
	if warmResp.CacheHits != 2 {
		t.Fatalf("warm batch cache hits %d, want 2", warmResp.CacheHits)
	}
	if len(warmResp.Modules) != len(coldResp.Modules) {
		t.Fatalf("warm batch has %d modules, want %d", len(warmResp.Modules), len(coldResp.Modules))
	}
	for i := range warmResp.Modules {
		// The per-module hit flag differs by design; everything else
		// must be byte-identical.
		warmResp.Modules[i].CacheHit, coldResp.Modules[i].CacheHit = false, false
		a, b := marshal(t, warmResp.Modules[i]), marshal(t, coldResp.Modules[i])
		if a != b {
			t.Fatalf("module %d: warm answer differs:\n%s\n%s", i, a, b)
		}
	}
}

// TestStoreColdEstimateWritesOneRecord: a cold estimate persists its
// answer and nothing else: compiling the plan writes no record of its
// own.
func TestStoreColdEstimateWritesOneRecord(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	defer st.Close()
	s := New(Options{Store: st})
	if w := do(s, "POST", "/v1/estimate", marshal(t, EstimateRequest{Netlist: testdata(t, "demo.mnet")})); w.Code != 200 {
		t.Fatalf("estimate: %d %s", w.Code, w.Body.String())
	}
	s.FlushStore()
	if puts := st.Stats().Puts; puts != 1 {
		t.Fatalf("a cold estimate appended %d records, want 1", puts)
	}
	n := 0
	if err := st.Scan(store.NSResult, func(store.Key, []byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("the one record is not the answer: %d NSResult records", n)
	}
}

// TestOpensParentCongestRecords reopens a store whose NSCongest records
// were written before congestion maps dropped their distributions:
// each record still carries every channel's Demand and every row's
// Dist.  The records must still load (encoding/json skips the fields
// the map no longer has), and the answers must be the wire bytes that
// release served from them (testdata/parent-congest/answers.jsonl).
func TestOpensParentCongestRecords(t *testing.T) {
	src := filepath.Join("testdata", "parent-congest")
	wal, err := os.ReadFile(filepath.Join(src, "active.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(wal, []byte(`"Demand":[`)) || !bytes.Contains(wal, []byte(`"Dist":[`)) {
		t.Fatal("fixture records carry no distributions")
	}
	answers, err := os.ReadFile(filepath.Join(src, "answers.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "active.wal"), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	st := openTestStore(t, dir)
	defer st.Close()
	s := New(Options{Store: st})
	defer s.FlushStore()
	demo := testdata(t, "demo.mnet")
	reqs := []CongestionRequest{
		{Netlist: demo, Rows: 3},
		{Netlist: demo, Rows: 2, Model: "crossing", Capacity: 2},
	}
	want := strings.SplitAfter(string(answers), "\n")
	for i, r := range reqs {
		got := do(s, "POST", "/v1/congestion", marshal(t, r)).Body.String()
		if got != want[i] {
			t.Fatalf("request %d answered\n%s\nthe parent's store answered\n%s", i, got, want[i])
		}
		if fresh := do(New(Options{}), "POST", "/v1/congestion", marshal(t, r)).Body.String(); withoutCacheHit(t, fresh) != withoutCacheHit(t, got) {
			t.Fatalf("request %d: stored answer\n%s\nfresh answer\n%s", i, got, fresh)
		}
	}
	if n := st.Stats().Hits; n != int64(len(reqs)) {
		t.Fatalf("%d store hits, want %d", n, len(reqs))
	}
}
