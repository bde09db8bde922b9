package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fuzzSeed JSON-wraps a netlist file the way a well-formed client
// would, so the corpus starts from real requests.
func fuzzSeed(f *testing.F, format, file string) {
	b, err := os.ReadFile(filepath.Join("..", "..", "testdata", file))
	if err != nil {
		f.Fatal(err)
	}
	req, err := json.Marshal(EstimateRequest{Format: format, Name: "fz", Netlist: string(b)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(req))
}

// FuzzEstimateDecoder drives arbitrary bodies through the full
// request path (decode → parse → estimate → encode).  Malformed JSON
// and malformed netlists must answer 4xx; nothing may panic or 5xx.
// Each body is posted twice, so the repeat takes the source alias
// wherever the first registered one: both must answer the same status,
// key and plan, and the same bytes apart from cache_hit.
func FuzzEstimateDecoder(f *testing.F) {
	fuzzSeed(f, "mnet", "demo.mnet")
	fuzzSeed(f, "mnet", "ladder.mnet")
	fuzzSeed(f, "bench", "c17.bench")
	fuzzSeed(f, "bench", "rand180.bench")
	fuzzSeed(f, "verilog", "fa.v")
	f.Add("")
	f.Add("{")
	f.Add(`{"netlist":"module m\nend\n"}`)
	f.Add(`{"format":"bench","netlist":"INPUT(a)\ny = NOT(a)\nOUTPUT(y)\n"}`)
	f.Add(`{"netlist":"module m\ndevice g INV a y\nend\n","process":"nope"}`)
	f.Add(`{"netlist":"module m\ndevice g INV a y\nend\n","rows":-3}`)
	f.Add(`[1,2,3]`)
	f.Add(`{"netlist":"module m\ndevice g INV a y\nend\n"} trailing`)

	s := New(Options{CacheSize: 64})
	f.Fuzz(func(t *testing.T, body string) {
		w, repeat := do(s, "POST", "/v1/estimate", body), do(s, "POST", "/v1/estimate", body) // must not panic
		if w.Code != repeat.Code {
			t.Fatalf("status %d, then %d on the repeat", w.Code, repeat.Code)
		}
		switch {
		case w.Code == http.StatusOK:
			var resp, again EstimateResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 with unparsable body: %v", err)
			}
			if resp.Module == "" || resp.FCExact == nil {
				t.Fatalf("200 with incomplete estimate: %s", w.Body.String())
			}
			if err := json.Unmarshal(repeat.Body.Bytes(), &again); err != nil {
				t.Fatalf("repeat 200 with unparsable body: %v", err)
			}
			if again.Key != resp.Key || again.Plan != resp.Plan {
				t.Fatalf("repeat key/plan %s/%s, first %s/%s", again.Key, again.Plan, resp.Key, resp.Plan)
			}
			if withoutCacheHit(t, repeat.Body.String()) != withoutCacheHit(t, w.Body.String()) {
				t.Fatalf("repeat answered\n%s\nfirst answer\n%s", repeat.Body.String(), w.Body.String())
			}
		case w.Code >= 400 && w.Code < 500:
			var e ErrorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("%d without a JSON error body: %s", w.Code, w.Body.String())
			}
			if repeat.Body.String() != w.Body.String() {
				t.Fatalf("repeat error\n%s\nfirst error\n%s", repeat.Body.String(), w.Body.String())
			}
		default:
			t.Fatalf("unexpected status %d: %s", w.Code, w.Body.String())
		}
	})
}

// FuzzBatchDecoder does the same for the batch endpoint, with the
// module list itself under fuzz control.
func FuzzBatchDecoder(f *testing.F) {
	demo, err := os.ReadFile(filepath.Join("..", "..", "testdata", "demo.mnet"))
	if err != nil {
		f.Fatal(err)
	}
	seed, err := json.Marshal(BatchRequest{Modules: []ModuleInput{
		{Netlist: string(demo)},
		{Format: "bench", Name: "fz", Netlist: "INPUT(a)\ny = NOT(a)\nOUTPUT(y)\n"},
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(seed))
	f.Add(`{"modules":[]}`)
	f.Add(`{"modules":[{"netlist":""}]}`)
	f.Add(fmt.Sprintf(`{"workers":-2,"modules":[{"netlist":%q}]}`, string(demo)))
	f.Add(`{"modules":"nope"}`)

	s := New(Options{CacheSize: 64})
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest("POST", "/v1/estimate/batch", strings.NewReader(body))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req) // must not panic
		if w.Code != http.StatusOK && (w.Code < 400 || w.Code >= 500) {
			t.Fatalf("unexpected status %d: %s", w.Code, w.Body.String())
		}
	})
}
