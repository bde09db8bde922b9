package client

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"maest/internal/obs"
	"maest/internal/serve"
)

func testdata(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func startServe(t *testing.T, opts serve.Options) (*serve.Server, *Client) {
	t.Helper()
	s := serve.New(opts)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, New(ts.URL)
}

func TestEstimateRoundTrip(t *testing.T) {
	s, c := startServe(t, serve.Options{FlightSize: 16})
	resp, err := c.Estimate(context.Background(), serve.EstimateRequest{
		Netlist: testdata(t, "demo.mnet"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Module == "" || resp.Key == "" {
		t.Fatalf("thin response: %+v", resp)
	}
	// The minted-root traceparent must appear in the server's flight
	// record, parented under the client's per-request root span.
	recs := s.Flight().Snapshot()
	if len(recs) != 1 {
		t.Fatalf("flight records = %d, want 1", len(recs))
	}
	if recs[0].Trace == "" || recs[0].Span == "" || recs[0].ParentSpan == "" {
		t.Fatalf("flight record missing trace fields: %+v", recs[0])
	}
}

func TestExplicitTraceContextInjected(t *testing.T) {
	s, c := startServe(t, serve.Options{FlightSize: 16})
	root := obs.NewTraceContext()
	ctx := obs.WithTraceContext(context.Background(), root)
	if _, err := c.Estimate(ctx, serve.EstimateRequest{Netlist: testdata(t, "demo.mnet")}); err != nil {
		t.Fatal(err)
	}
	recs := s.Flight().Snapshot()
	if len(recs) != 1 {
		t.Fatalf("flight records = %d, want 1", len(recs))
	}
	if recs[0].Trace != root.TraceIDString() {
		t.Fatalf("server trace %s, want caller's %s", recs[0].Trace, root.TraceIDString())
	}
	if recs[0].ParentSpan != root.SpanIDString() {
		t.Fatalf("server parent span %s, want caller's span %s", recs[0].ParentSpan, root.SpanIDString())
	}
	if recs[0].Span == root.SpanIDString() {
		t.Fatal("server reused the caller's span id instead of minting its own")
	}
}

func TestBatchAndCongestion(t *testing.T) {
	_, c := startServe(t, serve.Options{})
	ctx := context.Background()
	batch, err := c.EstimateBatch(ctx, serve.BatchRequest{
		Modules: []serve.ModuleInput{
			{Netlist: testdata(t, "demo.mnet")},
			{Netlist: testdata(t, "ladder.mnet")},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Modules) != 2 {
		t.Fatalf("batch answered %d modules, want 2", len(batch.Modules))
	}
	cong, err := c.Congestion(ctx, serve.CongestionRequest{Netlist: testdata(t, "demo.mnet")})
	if err != nil {
		t.Fatal(err)
	}
	if len(cong.Channels) == 0 {
		t.Fatalf("congestion answered no channels: %+v", cong)
	}
}

// TestEstimateDeltaChain walks the ECO loop an estimator client runs:
// full estimate once, then chain edits plan-key to plan-key, falling
// back to a full estimate when the parent is unknown.
func TestEstimateDeltaChain(t *testing.T) {
	_, c := startServe(t, serve.Options{})
	ctx := context.Background()
	base, err := c.Estimate(ctx, serve.EstimateRequest{Netlist: testdata(t, "demo.mnet")})
	if err != nil {
		t.Fatal(err)
	}
	if base.Plan == "" {
		t.Fatal("estimate answer carries no plan key to chain from")
	}
	d1, err := c.EstimateDelta(ctx, serve.DeltaRequest{
		Parent: base.Plan,
		Edits:  []serve.EditBody{{Op: "remove_cell", Name: "g2"}, {Op: "connect_pin", Device: "g4", Net: "n1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := c.EstimateDelta(ctx, serve.DeltaRequest{
		Parent: d1.Plan,
		Edits:  []serve.EditBody{{Op: "add_cell", Name: "g9", Type: "INV", Nets: []string{"n2", "y"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d2.Plan == d1.Plan || d2.SC == nil || d2.SC.Area <= 0 {
		t.Fatalf("chained delta answered %+v", d2)
	}

	// An aged-out parent is the one failure the loop handles specially.
	_, err = c.EstimateDelta(ctx, serve.DeltaRequest{Parent: strings.Repeat("00", 32)})
	if !IsUnknownParent(err) {
		t.Fatalf("unknown parent answered %v, want the 404 fallback signal", err)
	}
	if IsUnknownParent(nil) {
		t.Fatal("IsUnknownParent(nil)")
	}
}

func TestAPIErrorCarriesIDs(t *testing.T) {
	_, c := startServe(t, serve.Options{FlightSize: 16})
	_, err := c.Estimate(context.Background(), serve.EstimateRequest{Netlist: "not a netlist"})
	if err == nil {
		t.Fatal("bad netlist did not error")
	}
	apiErr, ok := err.(*APIError)
	if !ok {
		t.Fatalf("error type %T, want *APIError", err)
	}
	if apiErr.Status != 400 {
		t.Fatalf("status = %d, want 400", apiErr.Status)
	}
	if apiErr.RequestID == "" || apiErr.TraceID == "" {
		t.Fatalf("error body missing correlation IDs: %+v", apiErr)
	}
	if !strings.Contains(apiErr.Error(), apiErr.RequestID) {
		t.Fatalf("Error() %q does not mention the request id", apiErr.Error())
	}
}

func TestHealth(t *testing.T) {
	_, c := startServe(t, serve.Options{})
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("health = %+v, want ok", h)
	}
}

func TestMetrics(t *testing.T) {
	_, c := startServe(t, serve.Options{})
	text, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "maest_serve_requests_total") {
		t.Fatal("metrics exposition missing maest_serve_requests_total")
	}
}
