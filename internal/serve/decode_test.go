package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"maest/internal/tech"
)

// materialize unescapes the netlists decodeFast left in the body into
// their Netlist fields, so a fast-path value compares equal to
// encoding/json's.
func materialize(v any) {
	text := func(netlist *string, raw *jsonText) {
		if raw.ok {
			*netlist, *raw = raw.String(), jsonText{}
		}
	}
	switch q := v.(type) {
	case *EstimateRequest:
		text(&q.Netlist, &q.rawNetlist)
	case *CongestionRequest:
		text(&q.Netlist, &q.rawNetlist)
	case *BatchRequest:
		for i := range q.Modules {
			text(&q.Modules[i].Netlist, &q.Modules[i].rawNetlist)
		}
	}
}

// TestDecodeFastTakesMarshalledRequests pins that what clients send —
// encoding/json's own output, escapes and all — takes the fast path
// and decodes to the value json.Unmarshal gives.
func TestDecodeFastTakesMarshalledRequests(t *testing.T) {
	odd := "<a & b> é€😀\x00\x1f\"\\/\b\f\r\t\n "
	for _, v := range []any{
		&EstimateRequest{Netlist: testdata(t, "demo.mnet")},
		&EstimateRequest{Format: "bench", Name: odd, Netlist: testdata(t, "c17.bench"), Process: "cmos30", Rows: -7, TrackSharing: true},
		&CongestionRequest{Netlist: odd, Rows: 4, Gridded: true, Model: "crossing", Capacity: 12, FeedBudget: 999999999999999999},
		&BatchRequest{Modules: []ModuleInput{}},
		&BatchRequest{Process: "nmos25", Rows: 3, TrackSharing: true, Workers: 2, Modules: []ModuleInput{
			{Netlist: testdata(t, "demo.mnet")}, {Format: "verilog", Name: odd, Netlist: testdata(t, "fa.v")},
		}},
	} {
		body := marshal(t, v)
		for _, b := range []string{body, " \n" + strings.ReplaceAll(body, `",`, "\" ,\t") + "\r\n"} {
			got := reflect.New(reflect.TypeOf(v).Elem()).Interface()
			if !decodeFast([]byte(b), got) {
				t.Fatalf("fast path declined %s", b)
			}
			materialize(got)
			want := reflect.New(reflect.TypeOf(v).Elem()).Interface()
			if err := json.Unmarshal([]byte(b), want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, v) {
				t.Fatalf("fast path decoded %+v, encoding/json %+v", got, want)
			}
		}
	}
}

// TestPlainRunMatchesTable checks the eight-byte scan against the
// byte-at-a-time table on every pair of byte values at every pair of
// lanes of one word, and on a tail shorter than a word.
func TestPlainRunMatchesTable(t *testing.T) {
	want := func(b []byte) int {
		i := 0
		for i < len(b) && plainString[b[i]] {
			i++
		}
		return i
	}
	var w [8]byte
	for p1 := 0; p1 < len(w); p1++ {
		for p2 := p1 + 1; p2 < len(w); p2++ {
			for c1 := 0; c1 < 256; c1++ {
				for c2 := 0; c2 < 256; c2++ {
					w = [8]byte{'a', 'a', 'a', 'a', 'a', 'a', 'a', 'a'}
					w[p1], w[p2] = byte(c1), byte(c2)
					if got, want := plainRun(w[:], 0), want(w[:]); got != want {
						t.Fatalf("plainRun(%q) = %d, want %d", w[:], got, want)
					}
				}
			}
		}
	}
	for c := 0; c < 256; c++ {
		b := []byte{'a', 'a', 'a', 'a', 'a', 'a', 'a', 'a', 'a', byte(c), 'a'}
		if got, want := plainRun(b, 1), want(b[1:])+1; got != want {
			t.Fatalf("plainRun(%q, 1) = %d, want %d", b, got, want)
		}
	}
}

// TestDecodeBodyMaxBytes cuts bodies off at limits inside a key,
// inside the netlist, at the closing brace and past it.  decodeBody
// must answer what encoding/json streaming from the MaxBytesReader
// answers, in status and text (checkDecodeBody), and errors come in
// body order: a malformed document, then trailing data, then 413.
func TestDecodeBodyMaxBytes(t *testing.T) {
	doc := marshal(t, EstimateRequest{Netlist: testdata(t, "demo.mnet"), Rows: 2})
	batch := marshal(t, BatchRequest{Modules: []ModuleInput{{Netlist: testdata(t, "demo.mnet")}}})
	n, nb := int64(len(doc)), int64(len(batch))
	pad := strings.Repeat(" ", 64)
	cases := []struct {
		name   string
		into   any // the request type the body is
		body   string
		limit  int64
		status int // 0: decodes
	}{
		{"inside a key", new(EstimateRequest), doc, 4, http.StatusRequestEntityTooLarge},
		{"inside the netlist", new(EstimateRequest), doc, n / 2, http.StatusRequestEntityTooLarge},
		{"before the closing brace", new(EstimateRequest), doc, n - 1, http.StatusRequestEntityTooLarge},
		{"at the closing brace", new(EstimateRequest), doc, n, 0},
		{"past the closing brace", new(EstimateRequest), doc, n + 1, 0},
		{"batch inside a module", new(BatchRequest), batch, nb - 3, http.StatusRequestEntityTooLarge},
		{"batch at the closing brace", new(BatchRequest), batch, nb, 0},
		{"whitespace past the limit", new(EstimateRequest), doc + pad, n + 8, http.StatusRequestEntityTooLarge},
		{"trailing data, then past the limit", new(EstimateRequest), doc + " }" + pad, n + 8, http.StatusBadRequest},
		{"trailing data past the limit", new(EstimateRequest), doc + pad + "}", n + 8, http.StatusRequestEntityTooLarge},
		{"malformed, then past the limit", new(EstimateRequest), `{"netlist":x` + pad, 20, http.StatusBadRequest},
	}
	for _, tc := range cases {
		checkDecodeBody(t, tc.body, tc.limit)
		req := httptest.NewRequest("POST", "/v1/estimate", strings.NewReader(tc.body))
		status := 0
		body, err := decodeBody(httptest.NewRecorder(), req, tc.limit, tc.into)
		releaseBody(body)
		if err != nil {
			status = decodeStatus(err)
		}
		if status != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, status, tc.status)
		}
	}
}

// TestTrailingDataRejected pins the trailing-data fix on every endpoint
// that decodes a body: a stray '}' or ']' after the document used to
// pass, because Decoder.More stops there.
func TestTrailingDataRejected(t *testing.T) {
	s := New(Options{})
	t.Cleanup(s.FlushStore)
	mod := ModuleInput{Netlist: testdata(t, "demo.mnet")}
	docs := map[string]string{
		"/v1/estimate":       marshal(t, EstimateRequest{Netlist: mod.Netlist}),
		"/v1/congestion":     marshal(t, CongestionRequest{Netlist: mod.Netlist}),
		"/v1/estimate/batch": marshal(t, BatchRequest{Modules: []ModuleInput{mod}}),
		"/v1/estimate/delta": marshal(t, DeltaRequest{Parent: strings.Repeat("0", 64)}),
		"/v1/floorplan":      marshal(t, FloorplanRequest{Modules: []ModuleInput{mod}, Budget: -1}),
	}
	const want = "serve: bad request: decode: trailing data after JSON document"
	for path, doc := range docs {
		for _, tail := range []string{"}", "]", " ]]]", " x", "\n{}"} {
			w := do(s, "POST", path, doc+tail)
			var e ErrorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || w.Code != http.StatusBadRequest || e.Error != want {
				t.Errorf("%s with %q after the document: %d %s, want 400 %q", path, tail, w.Code, w.Body.String(), want)
			}
		}
		if w := do(s, "POST", path, doc+" \r\n\t"); strings.Contains(w.Body.String(), "trailing data") {
			t.Errorf("%s: trailing whitespace rejected: %s", path, w.Body.String())
		}
	}
}

// TestLookupProcessAllocates0 pins that resolving a built-in process
// shares one copy instead of rebuilding its device table per request.
func TestLookupProcessAllocates0(t *testing.T) {
	for _, name := range []string{"", "nmos25", "cmos30"} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, _, err := lookupProcess(name, "nmos25"); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("lookupProcess(%q) allocates %.0f objects, want 0", name, allocs)
		}
	}
	if _, _, err := lookupProcess("fab9", "nmos25"); err == nil ||
		err.Error() != `serve: bad request: tech: unknown built-in process "fab9" (have [cmos30 nmos25])` {
		t.Fatalf("unknown process: %v", err)
	}
}

// TestBuiltinProcessesStayPristine drives every endpoint, a
// swap_process delta and a floorplan job included, then requires each
// shared built-in process to still equal a fresh copy: nothing on the
// request path may write to it.
func TestBuiltinProcessesStayPristine(t *testing.T) {
	s := New(Options{})
	t.Cleanup(s.FlushStore)
	demo := testdata(t, "demo.mnet")
	ok := func(w *httptest.ResponseRecorder, want int) {
		t.Helper()
		if w.Code != want {
			t.Fatalf("status %d, want %d: %s", w.Code, want, w.Body.String())
		}
	}
	base := estimateDemo(t, s)
	ok(do(s, "POST", "/v1/estimate", marshal(t, EstimateRequest{Format: "bench", Name: "c17", Netlist: testdata(t, "c17.bench")})), http.StatusOK)
	ok(do(s, "POST", "/v1/estimate", marshal(t, EstimateRequest{Format: "verilog", Netlist: testdata(t, "fa.v"), Process: "cmos30"})), http.StatusOK)
	ok(do(s, "POST", "/v1/congestion", marshal(t, CongestionRequest{Netlist: demo, Process: "cmos30", Gridded: true})), http.StatusOK)
	ok(do(s, "POST", "/v1/estimate/batch", marshal(t, BatchRequest{Process: "cmos30", Modules: []ModuleInput{{Netlist: demo}}})), http.StatusOK)
	ok(do(s, "POST", "/v1/estimate/delta", marshal(t, DeltaRequest{Parent: base.Plan, Edits: []EditBody{
		{Op: "swap_process", Process: "cmos30"}, {Op: "add_cell", Name: "g9", Type: "INV", Nets: []string{"a", "z"}},
	}})), http.StatusOK)
	req := fpRequest(2)
	req.Budget = 20
	w := do(s, "POST", "/v1/floorplan", marshal(t, req))
	ok(w, http.StatusAccepted)
	id := decodeJob(t, w).ID
	pollJob(t, s, id, JobDone)
	ok(do(s, "DELETE", "/v1/jobs/"+id, ""), http.StatusOK)

	for _, name := range tech.BuiltinNames() {
		fresh, err := tech.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(builtinProcs[name], fresh) {
			t.Errorf("shared %s process was modified by the request path", name)
		}
	}
}
