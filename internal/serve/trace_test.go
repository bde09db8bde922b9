package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"maest/internal/obs"
)

func decodeError(t *testing.T, w *httptest.ResponseRecorder) ErrorResponse {
	t.Helper()
	var e ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
		t.Fatalf("bad error JSON: %v\n%s", err, w.Body.String())
	}
	return e
}

func TestTraceparentRootsFlightRecord(t *testing.T) {
	s := New(Options{FlightSize: 8})
	incoming := obs.NewTraceContext()
	// The record's alloc delta reads /gc/heap/allocs:bytes, which
	// counts a small object only once its mcache span is flushed, so a
	// request made of small objects can read 0.  Objects over 32 KiB
	// are counted as they are allocated: a source padded past that by
	// a comment makes the decoded body string one of them.
	src := testdata(t, "demo.mnet") + "# " + strings.Repeat("x", 40<<10) + "\n"
	req := httptest.NewRequest("POST", "/v1/estimate",
		strings.NewReader(marshal(t, EstimateRequest{Netlist: src})))
	req.Header.Set(obs.TraceparentHeader, incoming.Traceparent())
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Trace-Id"); got != incoming.TraceIDString() {
		t.Fatalf("X-Trace-Id %q, want incoming trace %q", got, incoming.TraceIDString())
	}
	recs := s.Flight().Snapshot()
	if len(recs) != 1 {
		t.Fatalf("flight records = %d, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Trace != incoming.TraceIDString() {
		t.Fatalf("record trace %q, want %q", rec.Trace, incoming.TraceIDString())
	}
	if rec.ParentSpan != incoming.SpanIDString() {
		t.Fatalf("record parent span %q, want caller span %q", rec.ParentSpan, incoming.SpanIDString())
	}
	if rec.Span == "" || rec.Span == incoming.SpanIDString() {
		t.Fatalf("hop span %q must be fresh and non-empty", rec.Span)
	}
	if rec.AllocBytes <= 0 {
		t.Fatalf("alloc delta %d, want > 0 (an estimate allocates)", rec.AllocBytes)
	}
}

func TestMalformedTraceparentMintsRoot(t *testing.T) {
	s := New(Options{FlightSize: 8})
	req := httptest.NewRequest("POST", "/v1/estimate",
		strings.NewReader(marshal(t, EstimateRequest{Netlist: testdata(t, "demo.mnet")})))
	req.Header.Set(obs.TraceparentHeader, "00-not-a-traceparent")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	rec := s.Flight().Snapshot()[0]
	if rec.Trace == "" || rec.ParentSpan != "" {
		t.Fatalf("malformed header must mint a parentless root, got %+v", rec)
	}
}

// TestErrorPathsCarryIDs covers every error status the service mints:
// the JSON body must carry the request and trace IDs so a failed
// request is findable in the access log and flight recorder.
func TestErrorPathsCarryIDs(t *testing.T) {
	checkIDs := func(t *testing.T, w *httptest.ResponseRecorder, wantStatus int) ErrorResponse {
		t.Helper()
		if w.Code != wantStatus {
			t.Fatalf("status %d, want %d (%s)", w.Code, wantStatus, w.Body.String())
		}
		e := decodeError(t, w)
		if e.Error == "" || e.RequestID == "" || e.TraceID == "" {
			t.Fatalf("error body missing correlation fields: %+v", e)
		}
		if e.RequestID != w.Header().Get("X-Request-Id") {
			t.Fatalf("body request id %q != header %q", e.RequestID, w.Header().Get("X-Request-Id"))
		}
		if e.TraceID != w.Header().Get("X-Trace-Id") {
			t.Fatalf("body trace id %q != header %q", e.TraceID, w.Header().Get("X-Trace-Id"))
		}
		return e
	}

	t.Run("400 bad JSON", func(t *testing.T) {
		s := New(Options{FlightSize: 8})
		checkIDs(t, do(s, "POST", "/v1/estimate", "{not json"), http.StatusBadRequest)
	})

	t.Run("413 oversized body", func(t *testing.T) {
		s := New(Options{FlightSize: 8, MaxRequestBytes: 16})
		checkIDs(t, do(s, "POST", "/v1/estimate",
			marshal(t, EstimateRequest{Netlist: testdata(t, "demo.mnet")})),
			http.StatusRequestEntityTooLarge)
	})

	t.Run("422 unestimable circuit", func(t *testing.T) {
		s := New(Options{FlightSize: 8})
		checkIDs(t, do(s, "POST", "/v1/estimate",
			marshal(t, EstimateRequest{Netlist: "module m\ndevice g WARP a b\nend\n"})),
			http.StatusUnprocessableEntity)
	})

	t.Run("429 shed", func(t *testing.T) {
		acquired := make(chan struct{})
		gate := make(chan struct{})
		var once sync.Once
		s := New(Options{
			FlightSize:    8,
			MaxConcurrent: 1,
			EstimateHook: func() {
				once.Do(func() {
					close(acquired)
					<-gate
				})
			},
		})
		body := marshal(t, EstimateRequest{Netlist: testdata(t, "demo.mnet")})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			do(s, "POST", "/v1/estimate", body)
		}()
		<-acquired
		checkIDs(t, do(s, "POST", "/v1/estimate", body), http.StatusTooManyRequests)
		close(gate)
		wg.Wait()
	})

	t.Run("504 deadline", func(t *testing.T) {
		s := New(Options{FlightSize: 8, Timeout: time.Nanosecond})
		checkIDs(t, do(s, "POST", "/v1/estimate",
			marshal(t, EstimateRequest{Netlist: testdata(t, "demo.mnet")})),
			http.StatusGatewayTimeout)
	})

	t.Run("500 internal", func(t *testing.T) {
		// writeError's default branch, exercised directly: an error
		// matching no classification maps to 500 and still carries IDs.
		info := &reqInfo{id: "test-000001", trace: obs.NewTraceContext()}
		w := httptest.NewRecorder()
		writeError(w, info, errors.New("boom"))
		if w.Code != http.StatusInternalServerError {
			t.Fatalf("status %d, want 500", w.Code)
		}
		e := decodeError(t, w)
		if e.RequestID != "test-000001" || e.TraceID != info.trace.TraceIDString() {
			t.Fatalf("500 body missing IDs: %+v", e)
		}
	})
}

// TestErrorPathsDisabledTelemetryOmitIDs pins the disabled contract:
// with no flight recorder and no access log, error bodies omit the
// correlation fields rather than inventing them.
func TestErrorPathsDisabledTelemetryOmitIDs(t *testing.T) {
	s := New(Options{})
	w := do(s, "POST", "/v1/estimate", "{not json")
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", w.Code)
	}
	e := decodeError(t, w)
	if e.RequestID != "" || e.TraceID != "" {
		t.Fatalf("disabled telemetry must omit IDs: %+v", e)
	}
	if strings.Contains(w.Body.String(), "request_id") {
		t.Fatalf("omitempty fields serialized: %s", w.Body.String())
	}
}
