package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// estimateFuzzSeeds are FuzzEstimateDecoder's seed bodies: real netlist
// files JSON-wrapped the way a well-formed client would send them, then
// malformed requests.
func estimateFuzzSeeds(tb testing.TB) []string {
	var seeds []string
	for _, s := range []struct{ format, file string }{
		{"mnet", "demo.mnet"},
		{"mnet", "ladder.mnet"},
		{"bench", "c17.bench"},
		{"bench", "rand180.bench"},
		{"verilog", "fa.v"},
	} {
		b, err := os.ReadFile(filepath.Join("..", "..", "testdata", s.file))
		if err != nil {
			tb.Fatal(err)
		}
		req, err := json.Marshal(EstimateRequest{Format: s.format, Name: "fz", Netlist: string(b)})
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, string(req))
	}
	return append(seeds,
		"",
		"{",
		`{"netlist":"module m\nend\n"}`,
		`{"format":"bench","netlist":"INPUT(a)\ny = NOT(a)\nOUTPUT(y)\n"}`,
		`{"netlist":"module m\ndevice g INV a y\nend\n","process":"nope"}`,
		`{"netlist":"module m\ndevice g INV a y\nend\n","rows":-3}`,
		`[1,2,3]`,
		`{"netlist":"module m\ndevice g INV a y\nend\n"} trailing`,
	)
}

// batchFuzzSeeds are FuzzBatchDecoder's seed bodies.
func batchFuzzSeeds(tb testing.TB) []string {
	demo, err := os.ReadFile(filepath.Join("..", "..", "testdata", "demo.mnet"))
	if err != nil {
		tb.Fatal(err)
	}
	seed, err := json.Marshal(BatchRequest{Modules: []ModuleInput{
		{Netlist: string(demo)},
		{Format: "bench", Name: "fz", Netlist: "INPUT(a)\ny = NOT(a)\nOUTPUT(y)\n"},
	}})
	if err != nil {
		tb.Fatal(err)
	}
	return []string{
		string(seed),
		`{"modules":[]}`,
		`{"modules":[{"netlist":""}]}`,
		fmt.Sprintf(`{"workers":-2,"modules":[{"netlist":%q}]}`, string(demo)),
		`{"modules":"nope"}`,
	}
}

// postTwice posts body to path twice, so the repeat takes the source
// alias wherever the first registered one.  Both must answer the same
// status; a 200 must be the same bytes apart from cache_hit(s), a 4xx
// the same JSON error body.  It returns the first answer.
func postTwice(t *testing.T, s *Server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	w, repeat := do(s, "POST", path, body), do(s, "POST", path, body) // must not panic
	if w.Code != repeat.Code {
		t.Fatalf("status %d, then %d on the repeat", w.Code, repeat.Code)
	}
	switch {
	case w.Code == http.StatusOK:
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
	return w
}

// FuzzEstimateDecoder drives arbitrary bodies through the full
// request path (decode → parse → estimate → encode).  Malformed JSON
// and malformed netlists must answer 4xx; nothing may panic or 5xx.
// Each body is posted twice (postTwice), and a 200 must carry a
// complete estimate.
func FuzzEstimateDecoder(f *testing.F) {
	for _, seed := range estimateFuzzSeeds(f) {
		f.Add(seed)
	}
	s := New(Options{CacheSize: 64})
	f.Fuzz(func(t *testing.T, body string) {
		w := postTwice(t, s, "/v1/estimate", body)
		if w.Code != http.StatusOK {
			return
		}
		var resp EstimateResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 with unparsable body: %v", err)
		}
		if resp.Module == "" || resp.FCExact == nil {
			t.Fatalf("200 with incomplete estimate: %s", w.Body.String())
		}
	})
}

// FuzzBatchDecoder does the same for the batch endpoint, with the
// module list itself under fuzz control.
func FuzzBatchDecoder(f *testing.F) {
	for _, seed := range batchFuzzSeeds(f) {
		f.Add(seed)
	}
	s := New(Options{CacheSize: 64})
	f.Fuzz(func(t *testing.T, body string) {
		w := postTwice(t, s, "/v1/estimate/batch", body)
		if w.Code != http.StatusOK {
			return
		}
		var resp BatchResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 with unparsable body: %v", err)
		}
		if len(resp.Modules) == 0 {
			t.Fatalf("200 with no modules: %s", w.Body.String())
		}
	})
}

// decodeEdgeSeeds are bodies at the edges of what decodeFast accepts:
// each either takes the fast path with encoding/json's exact value or
// falls back to encoding/json.
var decodeEdgeSeeds = []string{
	"", " \n\t\r ", "null", "[]", "{}", `{"netlist":null}`, `{"modules":null}`,
	`{"NETLIST":"x"}`, `{"Netlist":"x"}`, `{"net\u006cist":"x"}`, `{"netl`, `{"netlist":"a","netlist":"b"}`,
	`{"netlist":"x","bogus":1}`, `{"netlist":"x"}`, `{"netlist":"x",}`,
	`{"netlist":"\ud800"}`, `{"netlist":"😀"}`, "{\"netlist\":\"\\ud83d\\ude00\"}", `{"netlist":"\udc00x"}`,
	"{\"netlist\":\"a\xffb\"}", "{\"netlist\":\"\xed\xa0\x80\"}", "{\"n\xc3\xa9\":1}",
	"{\"netlist\":\"tab\there\"}", "\xef\xbb\xbf{}",
	`{"netlist":"a\u0041é\u20ac\n\t\"\\\/\b\f\r","name":"\u0000"}`,
	`{"netlist":"\x"}`, `{"netlist":"\u12"}`, `{"netlist":"\u12G4"}`, `{"netlist":"abc`,
	`{"netlist":"\`, `{"netlist":"\u00`, `{"netlist":"\u00E9\u00e9\u20AC"}`, `{"modules":[{} {}]}`,
	`{"format":"","name":"","netlist":"","process":"","rows":0,"gridded":true,"model":"","capacity":0,"feed_budget":0,"x":1}`,
	`{"rows":1e2}`, `{"rows":1.0}`, `{"rows":-0}`, `{"rows":01}`, `{"rows":-}`, `{"rows":+1}`,
	`{"rows":999999999999999999}`, `{"rows":-999999999999999999}`,
	`{"rows":9223372036854775807}`, `{"rows":9223372036854775808}`, `{"rows":-9223372036854775809}`,
	`{"rows":"3"}`, `{"rows":true}`, `{"track_sharing":true}`, `{"track_sharing":truex}`,
	`{"track_sharing":1}`, `{"gridded":false,"model":"crossing","capacity":3,"feed_budget":2}`,
	`{"modules":[]}`, `{"modules":[{}]}`, `{"modules":[null]}`, `{"modules":[{"netlist":"a"},]}`,
	`{"modules":[{"netlist":"a","netlist":"b"}]}`, `{"modules":[{"Netlist":"a"}]}`,
	`{"modules":[{"netlist":"a","name":"x"}],"modules":[{"netlist":"b"}]}`,
	`{"workers":2,"track_sharing":false,"process":"cmos30","rows":3,` +
		`"modules":[{"format":"bench","name":"n","netlist":"x"},{"netlist":"y"}]}`,
	`{"netlist":"x"}}`, `{"netlist":"x"}]`, `{"netlist":"x"} ]]]`, `{"netlist":"x"} x`,
	` {"netlist" : "x" , "rows" : 2 } `, `{"a":1,"b":2,"c":3,"d":4,"e":5,"f":6,"g":7,"h":8,"i":9,"j":10}`,
}

// fastPathTypes builds a fresh value of each request type decodeFast
// takes.
var fastPathTypes = []func() any{
	func() any { return new(EstimateRequest) },
	func() any { return new(CongestionRequest) },
	func() any { return new(BatchRequest) },
}

// decodeStatus is the HTTP status an error decoding a body answers.
func decodeStatus(err error) int {
	w := httptest.NewRecorder()
	writeError(w, nil, err)
	return w.Code
}

// checkDecodeBody decodes body, cut off at limit bytes, into each
// fast-path type twice: through decodeBody, and through decodeJSON
// streaming from the MaxBytesReader as the handlers did before
// decodeBody.  Value (its netlists materialized while the body is
// held), error text and status must agree.
func checkDecodeBody(t *testing.T, body string, limit int64) {
	t.Helper()
	for _, fresh := range fastPathTypes {
		got, want := fresh(), fresh()
		req := httptest.NewRequest("POST", "/v1/estimate", strings.NewReader(body))
		buf, gotErr := decodeBody(httptest.NewRecorder(), req, limit, got)
		materialize(got)
		releaseBody(buf)
		wantErr := decodeJSON(http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(body)), limit), want)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("%T from %q (limit %d): error %v, reference %v", got, body, limit, gotErr, wantErr)
		}
		if gotErr != nil && decodeStatus(gotErr) != decodeStatus(wantErr) {
			t.Fatalf("%T from %q (limit %d): status %d, reference %d",
				got, body, limit, decodeStatus(gotErr), decodeStatus(wantErr))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%T from %q: decoded %+v, reference %+v", got, body, got, want)
		}
	}
}

// FuzzDecodeBody holds decodeBody to encoding/json: for every body and
// every fast-path type, the decoded value and the error text must be
// what decodeJSON produces.
func FuzzDecodeBody(f *testing.F) {
	for _, seed := range estimateFuzzSeeds(f) {
		f.Add(seed)
	}
	for _, seed := range batchFuzzSeeds(f) {
		f.Add(seed)
	}
	for _, seed := range decodeEdgeSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		checkDecodeBody(t, body, 8<<20)
	})
}
