package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"maest/internal/client"
	"maest/internal/obs"
	"maest/internal/serve"
)

// fetchFlight reads one instance's flight recorder over its debug
// listener.
func fetchFlight(t *testing.T, debugBase string) []obs.FlightRecord {
	t.Helper()
	resp, err := http.Get(debugBase + "/debug/flight?n=16")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var flight serve.FlightResponse
	if err := json.Unmarshal(body, &flight); err != nil {
		t.Fatalf("debug/flight not JSON: %v\n%s", err, body)
	}
	return flight.Requests
}

// TestTwoProcessTraceStitch proves that a trace survives a process
// boundary.  A client with an explicit root trace context calls a
// forwarding hop, which continues the trace the way any W3C hop does:
// it parses the inbound traceparent, mints a child span and sends that
// child as the parent to maest-serve, which runs on its own sockets
// with its own flight recorder.  One trace id must span client → hop →
// serve, with each hop's parent span pointing at the hop before it.
func TestTwoProcessTraceStitch(t *testing.T) {
	b := startTestRunning(t, options{
		flight:    16,
		debugAddr: "127.0.0.1:0",
	}, nil, nil)

	// The hop reports what it received and what it sent on.
	hops := make(chan [2]obs.TraceContext, 1)
	hop := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		in, err := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		child := in.Child()
		hops <- [2]obs.TraceContext{in, child}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, b.api+r.URL.Path, r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		req.Header.Set("Content-Type", r.Header.Get("Content-Type"))
		req.Header.Set(obs.TraceparentHeader, child.Traceparent())
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	defer hop.Close()

	netlist, err := os.ReadFile(filepath.Join(repoTestdata, "demo.mnet"))
	if err != nil {
		t.Fatal(err)
	}
	root := obs.NewTraceContext()
	ctx := obs.WithTraceContext(context.Background(), root)
	resp, err := client.New(hop.URL).Estimate(ctx, serve.EstimateRequest{Netlist: string(netlist)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Module != "demo" || resp.SC == nil {
		t.Fatalf("estimate through two hops broken: %+v", resp)
	}

	hopped := <-hops
	hopIn, hopSpan := hopped[0], hopped[1]
	recs := fetchFlight(t, b.debug)
	if len(recs) != 1 {
		t.Fatalf("flight records %d, want 1", len(recs))
	}
	br := recs[0]

	// One trace id across the chain, anchored at the client root.
	want := root.TraceIDString()
	if hopIn.TraceIDString() != want || br.Trace != want {
		t.Fatalf("trace ids diverged: client %s hop %s serve %s", want, hopIn.TraceIDString(), br.Trace)
	}
	// The chain of custody: client span → hop span → serve span.
	if hopIn.SpanIDString() != root.SpanIDString() {
		t.Fatalf("hop parent %s, want client span %s", hopIn.SpanIDString(), root.SpanIDString())
	}
	if br.ParentSpan != hopSpan.SpanIDString() {
		t.Fatalf("serve parent %s, want hop span %s", br.ParentSpan, hopSpan.SpanIDString())
	}
	if br.Span == hopSpan.SpanIDString() || br.Span == "" {
		t.Fatalf("hop spans must be distinct and non-empty: hop %q serve %q", hopSpan.SpanIDString(), br.Span)
	}
	if br.Endpoint != "/v1/estimate" || br.Status != http.StatusOK {
		t.Fatalf("serve record %+v", br)
	}
	if br.CacheHit {
		t.Fatal("first estimate must be a miss")
	}
}

// TestRuntimeMetricsExposed boots the service with the runtime
// sampler on and asserts the Go runtime gauges reach /metrics.
func TestRuntimeMetricsExposed(t *testing.T) {
	base := startTestServer(t, options{runtimeMetrics: 10 * time.Millisecond}, nil)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		text := string(b)
		if strings.Contains(text, "maest_runtime_goroutines") &&
			strings.Contains(text, "maest_runtime_heap_bytes") &&
			strings.Contains(text, "maest_runtime_gc_pause_p99_seconds") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("runtime gauges never appeared in /metrics:\n%s", text)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
