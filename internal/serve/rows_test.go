package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
)

// TestRowsContract pins one rows contract on every endpoint with a row
// knob: on demo.mnet (N = 4 devices) rows = N answers 200, and rows
// above N answer 400 with the text /v1/congestion has answered since it
// first checked, wrapped in the batch's "module %d: " prefix there.
func TestRowsContract(t *testing.T) {
	demo := testdata(t, "demo.mnet")
	s := New(Options{})
	parent := estimateDemo(t, s).Plan
	big := batchModule("big", 8)
	for _, rows := range []int{4, 5, 2_000_000_000} {
		text := fmt.Sprintf("serve: bad request: rows %d exceeds the module's 4 devices", rows)
		for _, tc := range []struct {
			name, path string
			req        any
			want       string
		}{
			{"estimate", "/v1/estimate", EstimateRequest{Netlist: demo, Rows: rows}, text},
			{"congestion", "/v1/congestion", CongestionRequest{Netlist: demo, Rows: rows}, text},
			{"gridded congestion", "/v1/congestion", CongestionRequest{Netlist: demo, Rows: rows, Gridded: true}, text},
			{"batch", "/v1/estimate/batch", BatchRequest{Rows: rows, Modules: []ModuleInput{{Netlist: demo}}},
				"serve: bad request: module 0: " + text},
			{"delta", "/v1/estimate/delta", DeltaRequest{Parent: parent, Rows: rows}, text},
			{"delta resize_rows", "/v1/estimate/delta", DeltaRequest{Parent: parent,
				Edits: []EditBody{{Op: "resize_rows", Rows: rows}}}, text},
		} {
			w := do(s, "POST", tc.path, marshal(t, tc.req))
			if rows == 4 {
				if w.Code != http.StatusOK {
					t.Errorf("%s at rows = N: %d %s", tc.name, w.Code, w.Body.String())
				}
				continue
			}
			var e ErrorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || w.Code != http.StatusBadRequest || e.Error != tc.want {
				t.Errorf("%s at rows = %d: %d %s, want 400 %q", tc.name, rows, w.Code, w.Body.String(), tc.want)
			}
		}
	}
	// A batch names the module whose N the rows exceed.
	w := do(s, "POST", "/v1/estimate/batch", marshal(t, BatchRequest{Rows: 5, Modules: []ModuleInput{big, {Netlist: demo}}}))
	want := "serve: bad request: module 1: serve: bad request: rows 5 exceeds the module's 4 devices"
	var e ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || w.Code != http.StatusBadRequest || e.Error != want {
		t.Errorf("batch with rows above its second module's N: %d %s, want 400 %q", w.Code, w.Body.String(), want)
	}
}
