package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"maest/internal/gen"
	"maest/internal/hdl"
	"maest/internal/netlist"
	"maest/internal/serve"
	"maest/internal/tech"
)

// suiteNetlists renders the golden generator suites (the same modules
// the bench harness replays) to mnet source, the shape the wire
// carries.
func suiteNetlists(t *testing.T) map[string]string {
	t.Helper()
	p, err := tech.Lookup("nmos25")
	if err != nil {
		t.Fatal(err)
	}
	var circuits []*netlist.Circuit
	fc, err := gen.FullCustomSuite(p)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := gen.StandardCellSuite(p)
	if err != nil {
		t.Fatal(err)
	}
	circuits = append(circuits, fc...)
	circuits = append(circuits, sc...)
	out := make(map[string]string, len(circuits))
	for _, c := range circuits {
		// ExpandTransistors mints "$"-suffixed instance names, which
		// WriteMnet refuses; rename them like a designer saving the
		// expanded schematic would.
		for _, d := range c.Devices {
			d.Name = strings.ReplaceAll(d.Name, "$", "_")
		}
		for _, n := range c.Nets {
			n.Name = strings.ReplaceAll(n.Name, "$", "_")
		}
		var buf bytes.Buffer
		if err := hdl.WriteMnet(&buf, c); err != nil {
			t.Fatalf("render %s: %v", c.Name, err)
		}
		out[c.Name] = buf.String()
	}
	return out
}

// startStoreServer boots an instance with the persistent store mounted
// and returns it WITHOUT registering cleanup — restart tests own the
// shutdown ordering.
func startStoreServer(t *testing.T, dir string) *running {
	t.Helper()
	o := options{
		addr:          "127.0.0.1:0",
		proc:          "nmos25",
		cacheSize:     1024,
		timeout:       30 * time.Second,
		maxBytes:      8 << 20,
		storeDir:      dir,
		storeMaxBytes: 1 << 30,
	}
	rt, err := startServer(context.Background(), o, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// normalizeEstimate clears the fields that legitimately differ between
// a fresh computation and a warm answer (the cache-hit flag), so what
// remains must be byte-identical.
func normalizeEstimate(t *testing.T, raw []byte) []byte {
	t.Helper()
	var r serve.EstimateResponse
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatalf("decode estimate: %v (%s)", err, raw)
	}
	r.CacheHit = false
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func normalizeCongestion(t *testing.T, raw []byte) []byte {
	t.Helper()
	var r serve.CongestionResponse
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatalf("decode congestion: %v (%s)", err, raw)
	}
	r.CacheHit = false
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServeWarmStartFromStore is the warm-start contract end to end:
// populate the store through a live server, stop it, restart against
// the same -store-dir, and require the first request of every suite
// module to be served from disk with a Result byte-identical to the
// original computation — the differential test over the golden suites.
func TestServeWarmStartFromStore(t *testing.T) {
	dir := t.TempDir()
	mods := suiteNetlists(t)

	// Cold pass: every answer is a fresh computation, persisted
	// write-behind; shutdown flushes the queue into the store.
	rt1 := startStoreServer(t, dir)
	base1 := "http://" + rt1.apiAddr
	fresh := make(map[string][]byte, len(mods))
	freshCongest := make(map[string][]byte, len(mods))
	for name, src := range mods {
		code, _, body := postJSON(t, base1+"/v1/estimate", serve.EstimateRequest{Netlist: src})
		if code != http.StatusOK {
			t.Fatalf("cold estimate %s: %d %s", name, code, body)
		}
		var r serve.EstimateResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		if r.CacheHit {
			t.Fatalf("cold estimate %s claims a cache hit", name)
		}
		fresh[name] = body

		code, _, cbody := postJSON(t, base1+"/v1/congestion", serve.CongestionRequest{Netlist: src})
		if code != http.StatusOK {
			t.Fatalf("cold congestion %s: %d %s", name, code, cbody)
		}
		freshCongest[name] = cbody
	}
	if err := rt1.shutdown(10 * time.Second); err != nil {
		t.Fatalf("first shutdown: %v", err)
	}

	// Warm pass: a fresh process image (new caches, same store dir).
	rt2 := startStoreServer(t, dir)
	base2 := "http://" + rt2.apiAddr
	defer func() {
		if err := rt2.shutdown(10 * time.Second); err != nil {
			t.Errorf("second shutdown: %v", err)
		}
	}()

	hits0 := scrapeCounter(t, base2, "maest_store_hits_total")
	for name, src := range mods {
		code, _, body := postJSON(t, base2+"/v1/estimate", serve.EstimateRequest{Netlist: src})
		if code != http.StatusOK {
			t.Fatalf("warm estimate %s: %d %s", name, code, body)
		}
		var r serve.EstimateResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		if !r.CacheHit {
			t.Fatalf("warm estimate %s not served from the store", name)
		}
		if got, want := normalizeEstimate(t, body), normalizeEstimate(t, fresh[name]); !bytes.Equal(got, want) {
			t.Fatalf("%s: warm answer differs from fresh computation:\n%s\n%s", name, got, want)
		}

		code, _, cbody := postJSON(t, base2+"/v1/congestion", serve.CongestionRequest{Netlist: src})
		if code != http.StatusOK {
			t.Fatalf("warm congestion %s: %d %s", name, code, cbody)
		}
		var cr serve.CongestionResponse
		if err := json.Unmarshal(cbody, &cr); err != nil {
			t.Fatal(err)
		}
		if !cr.CacheHit {
			t.Fatalf("warm congestion %s not served from the store", name)
		}
		if got, want := normalizeCongestion(t, cbody), normalizeCongestion(t, freshCongest[name]); !bytes.Equal(got, want) {
			t.Fatalf("%s: warm congestion differs from fresh analysis:\n%s\n%s", name, got, want)
		}
	}
	if hits := scrapeCounter(t, base2, "maest_store_hits_total") - hits0; hits < int64(2*len(mods)) {
		t.Fatalf("store hits delta %d, want at least %d (every warm request)", hits, 2*len(mods))
	}

	// A warm batch over the whole suite is all cache hits: store hits
	// fill the plan memos and count as cached modules on the wire.
	var batch serve.BatchRequest
	var order []string
	for name, src := range mods {
		batch.Modules = append(batch.Modules, serve.ModuleInput{Netlist: src})
		order = append(order, name)
	}
	code, _, body := postJSON(t, base2+"/v1/estimate/batch", batch)
	if code != http.StatusOK {
		t.Fatalf("warm batch: %d %s", code, body)
	}
	var br serve.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.CacheHits != len(batch.Modules) {
		t.Fatalf("warm batch cache hits %d/%d (order %v)", br.CacheHits, len(batch.Modules), order)
	}
}

// TestServeStoreHealthAndDebug pins the operator surface: the /healthz
// store block, the /debug/store snapshot, and the maest_store_* metrics
// on a live instance.
func TestServeStoreHealthAndDebug(t *testing.T) {
	dir := t.TempDir()
	base := startTestRunning(t, options{storeDir: dir, storeMaxBytes: 1 << 30, debugAddr: "127.0.0.1:0"}, nil, nil)

	// One computed estimate, so the store sees traffic.
	src := suiteNetlists(t)["sc-exp1"]
	if src == "" {
		t.Fatal("sc-exp1 missing from the golden suites")
	}
	code, _, body := postJSON(t, base.api+"/v1/estimate", serve.EstimateRequest{Netlist: src})
	if code != http.StatusOK {
		t.Fatalf("estimate: %d %s", code, body)
	}

	resp, err := http.Get(base.api + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h serve.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Store == nil {
		t.Fatal("healthz has no store block with -store-dir set")
	}
	if h.Store.Status != "ok" {
		t.Fatalf("store status %q, want ok", h.Store.Status)
	}

	// The write-behind persist is asynchronous; poll the debug snapshot
	// until it lands.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base.debug + "/debug/store")
		if err != nil {
			t.Fatal(err)
		}
		var d serve.DebugStoreResponse
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if !d.Enabled || d.Stats == nil {
			t.Fatal("debug/store reports disabled with -store-dir set")
		}
		if d.Stats.Puts >= 1 {
			if !strings.HasSuffix(d.Stats.Dir, dir[strings.LastIndex(dir, "/")+1:]) {
				t.Fatalf("store dir %q does not match %q", d.Stats.Dir, dir)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("write-behind persist never landed: %+v", d.Stats)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The store metrics are on both expositions.
	if n := scrapeCounter(t, base.api, "maest_store_puts_total"); n < 1 {
		t.Fatalf("maest_store_puts_total = %d, want >= 1", n)
	}
}

// TestServeWithoutStoreUnchanged guards the default path: no
// -store-dir means no store block in /healthz and a disabled
// /debug/store, with estimates behaving exactly as before.
func TestServeWithoutStoreUnchanged(t *testing.T) {
	base := startTestRunning(t, options{debugAddr: "127.0.0.1:0"}, nil, nil)
	resp, err := http.Get(base.api + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h serve.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Store != nil {
		t.Fatalf("healthz store block present without -store-dir: %+v", h.Store)
	}
	dresp, err := http.Get(base.debug + "/debug/store")
	if err != nil {
		t.Fatal(err)
	}
	var d serve.DebugStoreResponse
	if err := json.NewDecoder(dresp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if d.Enabled || d.Stats != nil {
		t.Fatalf("debug/store enabled without -store-dir: %+v", d)
	}
}
