package serve

import (
	"net/http"
	"strings"
	"testing"
)

// deltaEditedMnet is demo.mnet after the edit script the tests replay:
// remove INV g2, connect g4 to n1, add NAND2 g5.  A full estimate of
// this source and a delta answer for the script must be the same cache
// entry.
const deltaEditedMnet = `
module demo
port in a
port in b
port out y
device g1 NAND2 a b n1
device g3 NOR2 n1 b n3
device g4 NAND2 n2 n3 y n1
device g5 NAND2 n2 b y
end
`

var deltaEditScript = []EditBody{
	{Op: "remove_cell", Name: "g2"},
	{Op: "connect_pin", Device: "g4", Net: "n1"},
	{Op: "add_cell", Name: "g5", Type: "NAND2", Nets: []string{"n2", "b", "y"}},
}

// estimateDemo runs one full estimate of demo.mnet and returns the
// answer (carrying the plan key deltas chain from).
func estimateDemo(t *testing.T, s *Server) EstimateResponse {
	t.Helper()
	body := marshal(t, EstimateRequest{Netlist: testdata(t, "demo.mnet")})
	return decodeEstimate(t, do(s, "POST", "/v1/estimate", body))
}

func TestDeltaSharesCacheWithFullEstimate(t *testing.T) {
	s := New(Options{})
	base := estimateDemo(t, s)
	if len(base.Plan) != 64 {
		t.Fatalf("estimate answer plan key %q is not a sha256 hex digest", base.Plan)
	}

	dresp := decodeEstimate(t, do(s, "POST", "/v1/estimate/delta",
		marshal(t, DeltaRequest{Parent: base.Plan, Edits: deltaEditScript})))
	if dresp.CacheHit {
		t.Fatal("first delta reported a cache hit")
	}
	if dresp.Plan == base.Plan || dresp.Key == base.Key {
		t.Fatal("structural edits kept the parent's content addresses")
	}
	if dresp.Stats.Devices != 4 {
		t.Fatalf("edited module has %d devices, want 4", dresp.Stats.Devices)
	}

	// A full estimate of the hand-edited source must hit the delta's
	// cache entry and agree on every byte but the hit flag.
	fresp := decodeEstimate(t, do(s, "POST", "/v1/estimate",
		marshal(t, EstimateRequest{Netlist: deltaEditedMnet})))
	if !fresp.CacheHit {
		t.Fatal("full estimate of the edited netlist missed the delta's cache entry")
	}
	if fresp.Key != dresp.Key || fresp.Plan != dresp.Plan {
		t.Fatalf("delta and full routes disagree on content addresses:\n  delta: key %s plan %s\n  full:  key %s plan %s",
			dresp.Key, dresp.Plan, fresp.Key, fresp.Plan)
	}
	fresp.CacheHit = dresp.CacheHit
	if marshal(t, fresp) != marshal(t, dresp) {
		t.Fatalf("delta answer differs from full estimate:\n%+v\n%+v", dresp, fresp)
	}

	// And the reverse direction: replaying the delta is now a hit.
	again := decodeEstimate(t, do(s, "POST", "/v1/estimate/delta",
		marshal(t, DeltaRequest{Parent: base.Plan, Edits: deltaEditScript})))
	if !again.CacheHit {
		t.Fatal("replayed delta missed the cache")
	}
}

func TestDeltaChainsOnPlanKeys(t *testing.T) {
	s := New(Options{})
	base := estimateDemo(t, s)

	first := decodeEstimate(t, do(s, "POST", "/v1/estimate/delta", marshal(t, DeltaRequest{
		Parent: base.Plan,
		Edits:  []EditBody{{Op: "remove_cell", Name: "g2"}, {Op: "connect_pin", Device: "g4", Net: "n2"}},
	})))
	second := decodeEstimate(t, do(s, "POST", "/v1/estimate/delta", marshal(t, DeltaRequest{
		Parent: first.Plan,
		Edits:  []EditBody{{Op: "add_cell", Name: "g9", Type: "INV", Nets: []string{"n2", "y"}}},
	})))
	if second.Plan == first.Plan || second.Stats.Devices != 4 {
		t.Fatalf("chained delta did not advance the plan: %+v", second)
	}

	// The same two scripts applied in one request land on the same
	// child plan and cache entry.
	oneShot := decodeEstimate(t, do(s, "POST", "/v1/estimate/delta", marshal(t, DeltaRequest{
		Parent: base.Plan,
		Edits: []EditBody{
			{Op: "remove_cell", Name: "g2"},
			{Op: "connect_pin", Device: "g4", Net: "n2"},
			{Op: "add_cell", Name: "g9", Type: "INV", Nets: []string{"n2", "y"}},
		},
	})))
	if !oneShot.CacheHit || oneShot.Key != second.Key || oneShot.Plan != second.Plan {
		t.Fatalf("one-shot script diverged from the chained route: %+v vs %+v", oneShot, second)
	}
}

func TestDeltaRowsSemantics(t *testing.T) {
	s := New(Options{})
	base := estimateDemo(t, s)

	// A resize_rows script answers what WithRows would, under the same
	// cache key an explicit rows=3 request uses — never the automatic-
	// rows key of the same circuit.
	resized := decodeEstimate(t, do(s, "POST", "/v1/estimate/delta",
		marshal(t, DeltaRequest{Parent: base.Plan, Edits: []EditBody{{Op: "resize_rows", Rows: 3}}})))
	if resized.SC == nil || resized.SC.Rows != 3 {
		t.Fatalf("resize_rows(3) answered %+v", resized.SC)
	}
	if resized.Key == base.Key {
		t.Fatal("resized answer collided with the automatic-rows cache entry")
	}
	if resized.Plan != base.Plan {
		t.Fatal("rows-only delta changed the plan key; rows are not plan identity")
	}
	full := decodeEstimate(t, do(s, "POST", "/v1/estimate",
		marshal(t, EstimateRequest{Netlist: testdata(t, "demo.mnet"), Rows: 3})))
	if !full.CacheHit || full.Key != resized.Key {
		t.Fatal("rows=3 estimate missed the resize_rows(3) delta's cache entry")
	}

	// An explicit request-level rows override beats the script default.
	over := decodeEstimate(t, do(s, "POST", "/v1/estimate/delta", marshal(t, DeltaRequest{
		Parent: base.Plan, Rows: 2,
		Edits: []EditBody{{Op: "resize_rows", Rows: 3}},
	})))
	if over.SC == nil || over.SC.Rows != 2 {
		t.Fatalf("rows=2 override answered %+v", over.SC)
	}

	// The rows-only child must not have replaced the parent in the plan
	// cache: a later delta naming the same parent sees automatic rows.
	plain := decodeEstimate(t, do(s, "POST", "/v1/estimate/delta",
		marshal(t, DeltaRequest{Parent: base.Plan})))
	if plain.Key != base.Key || plain.SC == nil || plain.SC.Rows != base.SC.Rows {
		t.Fatalf("empty delta after resize answered rows %+v, want the parent's %+v", plain.SC, base.SC)
	}
	if !plain.CacheHit {
		t.Fatal("empty delta script missed the parent's cache entry")
	}

	// A resize mixed with structural edits must not leave its row count
	// behind as a hidden default of the cached child plan: a later full
	// estimate of the edited circuit at automatic rows answers exactly
	// what a fresh server does.
	mixed := append(append([]EditBody(nil), deltaEditScript...), EditBody{Op: "resize_rows", Rows: 3})
	edited := decodeEstimate(t, do(s, "POST", "/v1/estimate/delta",
		marshal(t, DeltaRequest{Parent: base.Plan, Edits: mixed})))
	if edited.SC == nil || edited.SC.Rows != 3 {
		t.Fatalf("structural edits + resize_rows(3) answered %+v", edited.SC)
	}
	auto := marshal(t, EstimateRequest{Netlist: deltaEditedMnet})
	got := decodeEstimate(t, do(s, "POST", "/v1/estimate", auto))
	want := decodeEstimate(t, do(New(Options{}), "POST", "/v1/estimate", auto))
	if got.Plan != edited.Plan {
		t.Fatalf("full estimate resolved plan %s, want the delta's %s", got.Plan, edited.Plan)
	}
	got.CacheHit = want.CacheHit
	if a, b := marshal(t, got), marshal(t, want); a != b {
		t.Fatalf("automatic-rows estimate after a resized delta differs from a fresh server's:\n%s\n%s", a, b)
	}
}

func TestDeltaSwapProcess(t *testing.T) {
	s := New(Options{})
	base := estimateDemo(t, s)
	resp := decodeEstimate(t, do(s, "POST", "/v1/estimate/delta",
		marshal(t, DeltaRequest{Parent: base.Plan, Edits: []EditBody{{Op: "swap_process", Process: "cmos30"}}})))
	if resp.Process != "cmos30" {
		t.Fatalf("process %q after swap_process, want cmos30", resp.Process)
	}
	if resp.Plan == base.Plan || resp.Key == base.Key {
		t.Fatal("process swap kept the old content addresses")
	}
	full := decodeEstimate(t, do(s, "POST", "/v1/estimate",
		marshal(t, EstimateRequest{Netlist: testdata(t, "demo.mnet"), Process: "cmos30"})))
	if !full.CacheHit || full.Key != resp.Key || full.Plan != resp.Plan {
		t.Fatal("cmos30 estimate missed the swap_process delta's cache entry")
	}
}

func TestDeltaErrors(t *testing.T) {
	s := New(Options{})
	base := estimateDemo(t, s)

	cases := []struct {
		name   string
		body   string
		status int
		want   string
	}{
		{"unknown parent", marshal(t, DeltaRequest{Parent: strings.Repeat("ab", 32)}),
			http.StatusNotFound, "unknown parent plan"},
		{"malformed parent", marshal(t, DeltaRequest{Parent: "not-hex"}),
			http.StatusBadRequest, "malformed plan key"},
		{"unknown op", marshal(t, DeltaRequest{Parent: base.Plan,
			Edits: []EditBody{{Op: "explode"}}}), http.StatusBadRequest, "unknown op"},
		{"missing operand", marshal(t, DeltaRequest{Parent: base.Plan,
			Edits: []EditBody{{Op: "connect_pin", Device: "g1"}}}), http.StatusBadRequest, "needs device and net"},
		{"unknown process", marshal(t, DeltaRequest{Parent: base.Plan,
			Edits: []EditBody{{Op: "swap_process", Process: "bipolar"}}}), http.StatusBadRequest, ""},
		{"ghost device", marshal(t, DeltaRequest{Parent: base.Plan,
			Edits: []EditBody{{Op: "remove_cell", Name: "ghost"}}}), http.StatusUnprocessableEntity, ""},
		{"bogus type", marshal(t, DeltaRequest{Parent: base.Plan,
			Edits: []EditBody{{Op: "add_cell", Name: "x", Type: "BOGUS", Nets: []string{"a"}}}}),
			http.StatusUnprocessableEntity, ""},
		{"zero rows", marshal(t, DeltaRequest{Parent: base.Plan,
			Edits: []EditBody{{Op: "resize_rows"}}}), http.StatusUnprocessableEntity, ""},
		{"trailing garbage", marshal(t, DeltaRequest{Parent: base.Plan}) + "{}",
			http.StatusBadRequest, "trailing data"},
	}
	for _, tc := range cases {
		w := do(s, "POST", "/v1/estimate/delta", tc.body)
		if w.Code != tc.status {
			t.Fatalf("%s: status %d, want %d (%s)", tc.name, w.Code, tc.status, w.Body.String())
		}
		if tc.want != "" && !strings.Contains(w.Body.String(), tc.want) {
			t.Fatalf("%s: body %q missing %q", tc.name, w.Body.String(), tc.want)
		}
	}

	// Failed scripts leave the parent serviceable.
	after := decodeEstimate(t, do(s, "POST", "/v1/estimate/delta",
		marshal(t, DeltaRequest{Parent: base.Plan})))
	if after.Key != base.Key {
		t.Fatal("parent plan damaged by failed delta scripts")
	}
}
