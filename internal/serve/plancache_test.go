package serve

import (
	"fmt"
	"testing"
)

// TestEstimateAndCongestionShareOnePlan pins the engine integration's
// headline behavior: asking /v1/estimate and then /v1/congestion
// about the same netlist compiles the circuit exactly once — the
// second endpoint resolves the plan from the content-addressed cache
// and only executes against it.
func TestEstimateAndCongestionShareOnePlan(t *testing.T) {
	s := New(Options{})
	netlist := testdata(t, "demo.mnet")

	hits0, misses0 := mPlanHits.Value(), mPlanMisses.Value()
	decodeEstimate(t, do(s, "POST", "/v1/estimate", marshal(t, EstimateRequest{Netlist: netlist})))
	if n := s.PlanCache().Len(); n != 1 {
		t.Fatalf("plan cache holds %d plans after the estimate, want 1", n)
	}
	if misses := mPlanMisses.Value() - misses0; misses != 1 {
		t.Fatalf("plan cache misses = %d after the estimate, want 1", misses)
	}

	decodeCongestion(t, do(s, "POST", "/v1/congestion", marshal(t, CongestionRequest{Netlist: netlist})))
	if n := s.PlanCache().Len(); n != 1 {
		t.Fatalf("plan cache holds %d plans after the congestion request, want 1 (shared compile)", n)
	}
	if hits := mPlanHits.Value() - hits0; hits != 1 {
		t.Fatalf("plan cache hits = %d after the congestion request, want 1", hits)
	}
	if misses := mPlanMisses.Value() - misses0; misses != 1 {
		t.Fatalf("plan cache misses = %d after the congestion request, want 1 (no second compile)", misses)
	}

	// The declaration-order-insensitive canonical form extends to the
	// plan cache: a textual variant of the same circuit still shares
	// the compile.
	variant := "# comment\n" + netlist
	decodeCongestion(t, do(s, "POST", "/v1/congestion", marshal(t, CongestionRequest{Netlist: variant, Rows: 2})))
	if n := s.PlanCache().Len(); n != 1 {
		t.Fatalf("plan cache holds %d plans after the textual variant, want 1", n)
	}
}

// TestBatchSharesPlansAcrossRequests pins plan reuse on the batch
// path: modules seen in an earlier single-module request are not
// recompiled by a later batch.
func TestBatchSharesPlansAcrossRequests(t *testing.T) {
	s := New(Options{})
	mk := func(name string) string {
		return fmt.Sprintf("module %s\nport in a\nport out y\ndevice g1 INV a n1\ndevice g2 INV n1 n2\ndevice g3 INV n2 y\nend\n", name)
	}
	decodeEstimate(t, do(s, "POST", "/v1/estimate", marshal(t, EstimateRequest{Netlist: mk("m0")})))
	misses0 := mPlanMisses.Value()

	w := do(s, "POST", "/v1/estimate/batch", marshal(t, BatchRequest{
		Modules: []ModuleInput{{Netlist: mk("m0")}, {Netlist: mk("m1")}},
	}))
	if w.Code != 200 {
		t.Fatalf("batch status %d: %s", w.Code, w.Body.String())
	}
	if misses := mPlanMisses.Value() - misses0; misses != 1 {
		t.Fatalf("batch compiled %d new plans, want 1 (m0 already compiled)", misses)
	}
	if n := s.PlanCache().Len(); n != 2 {
		t.Fatalf("plan cache holds %d plans, want 2", n)
	}
}
