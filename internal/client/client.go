// Package client is the Go client for maest-serve: typed wrappers
// over the /v1 wire format with W3C trace-context injection, so a
// floorplanner loop (or a forwarding hop) calling the service
// participates in the same distributed trace as the hops it calls.
//
// Trace propagation: every request carries a traceparent header.  If
// the caller's context holds an obs.TraceContext (installed with
// obs.WithTraceContext — e.g. a hop's child context, or one minted by
// the caller for a whole floorplan iteration), that context is injected
// as-is, making its span id the server's parent; otherwise the client
// mints a fresh root per request.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"maest/internal/obs"
	"maest/internal/serve"
)

// Client calls one maest-serve instance.
type Client struct {
	base string
	http *http.Client
}

// New returns a client for the serve instance at base (e.g.
// "http://localhost:8080").
func New(base string) *Client {
	return &Client{
		base: strings.TrimRight(base, "/"),
		http: &http.Client{Timeout: 60 * time.Second},
	}
}

// WithHTTPClient replaces the underlying HTTP client (tests, custom
// transports, tighter timeouts) and returns the client for chaining.
func (c *Client) WithHTTPClient(h *http.Client) *Client {
	c.http = h
	return c
}

// APIError is a non-2xx answer from the service, carrying the
// structured error body — including the request and trace IDs the
// server minted, which is what an operator asks for first.
type APIError struct {
	Status     int
	Message    string
	RequestID  string
	TraceID    string
	RetryAfter int // seconds, from a 429's Retry-After hint (0 = none)
}

func (e *APIError) Error() string {
	msg := fmt.Sprintf("client: %d: %s", e.Status, e.Message)
	if e.RequestID != "" {
		msg += " (request " + e.RequestID + ")"
	}
	return msg
}

// Estimate answers POST /v1/estimate for one circuit.
func (c *Client) Estimate(ctx context.Context, req serve.EstimateRequest) (*serve.EstimateResponse, error) {
	var resp serve.EstimateResponse
	if err := c.post(ctx, "/v1/estimate", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// EstimateDelta answers POST /v1/estimate/delta: an ECO edit script
// against a plan a prior answer named in its "plan" field.  When the
// parent has aged out of the server's plan cache the call fails with
// a 404 (see IsUnknownParent); the fallback is a full Estimate, whose
// answer mints a fresh plan key to chain from.
func (c *Client) EstimateDelta(ctx context.Context, req serve.DeltaRequest) (*serve.EstimateResponse, error) {
	var resp serve.EstimateResponse
	if err := c.post(ctx, "/v1/estimate/delta", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// IsUnknownParent reports whether err is the service's "parent plan
// not found" answer to EstimateDelta — the one error an ECO loop
// handles specially, by re-estimating in full.
func IsUnknownParent(err error) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound
}

// EstimateBatch answers POST /v1/estimate/batch for a chip's worth of
// circuits.
func (c *Client) EstimateBatch(ctx context.Context, req serve.BatchRequest) (*serve.BatchResponse, error) {
	var resp serve.BatchResponse
	if err := c.post(ctx, "/v1/estimate/batch", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Congestion answers POST /v1/congestion for one circuit.
func (c *Client) Congestion(ctx context.Context, req serve.CongestionRequest) (*serve.CongestionResponse, error) {
	var resp serve.CongestionResponse
	if err := c.post(ctx, "/v1/congestion", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Health answers GET /healthz.  A degraded service (503) returns the
// parsed health body and a nil error: the caller asked for health and
// got it; only transport and decode failures are errors.
func (c *Client) Health(ctx context.Context) (*serve.HealthResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	c.inject(ctx, req)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var h serve.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, fmt.Errorf("client: decode health: %w", err)
	}
	return &h, nil
}

// DebugStore answers GET /debug/store: the persistent store's full
// statistics snapshot.  The endpoint lives on the debug listener, so
// construct the client against `-debug-addr` (the /healthz Store block
// on the service port carries the abridged form).
func (c *Client) DebugStore(ctx context.Context) (*serve.DebugStoreResponse, error) {
	var d serve.DebugStoreResponse
	if err := c.get(ctx, "/debug/store", &d); err != nil {
		return nil, err
	}
	return &d, nil
}

// DebugTrace answers GET /debug/trace/{trace_id}: one trace's full
// stitched span tree, from the persistent trace store and the flight
// ring.  Like DebugStore, the endpoint lives on the debug listener.
func (c *Client) DebugTrace(ctx context.Context, traceID string) (*serve.DebugTraceResponse, error) {
	var d serve.DebugTraceResponse
	if err := c.get(ctx, "/debug/trace/"+url.PathEscape(traceID), &d); err != nil {
		return nil, err
	}
	return &d, nil
}

// TraceQuery filters a DebugTraces index scan; the zero value asks for
// the most recent traces.
type TraceQuery struct {
	// Endpoint restricts the scan to one endpoint ("" = all).
	Endpoint string
	// MinMillis drops hops faster than this many milliseconds.
	MinMillis int
	// SinceUnix drops hops older than this Unix-seconds stamp (0 = no
	// lower bound).
	SinceUnix int64
	// Limit caps the answer (0 = the server default of 100).
	Limit int
}

// DebugTraces answers GET /debug/traces: the persisted-trace index,
// newest first.
func (c *Client) DebugTraces(ctx context.Context, q TraceQuery) (*serve.DebugTracesResponse, error) {
	v := url.Values{}
	if q.Endpoint != "" {
		v.Set("endpoint", q.Endpoint)
	}
	if q.MinMillis > 0 {
		v.Set("min_ms", strconv.Itoa(q.MinMillis))
	}
	if q.SinceUnix > 0 {
		v.Set("since", strconv.FormatInt(q.SinceUnix, 10))
	}
	if q.Limit > 0 {
		v.Set("limit", strconv.Itoa(q.Limit))
	}
	path := "/debug/traces"
	if enc := v.Encode(); enc != "" {
		path += "?" + enc
	}
	var d serve.DebugTracesResponse
	if err := c.get(ctx, path, &d); err != nil {
		return nil, err
	}
	return &d, nil
}

// DebugPlans answers GET /debug/plans: per-plan cost profiles ordered
// by request count.
func (c *Client) DebugPlans(ctx context.Context) (*serve.DebugPlansResponse, error) {
	var d serve.DebugPlansResponse
	if err := c.get(ctx, "/debug/plans", &d); err != nil {
		return nil, err
	}
	return &d, nil
}

// get fetches one debug endpoint and decodes the 200 answer into out.
func (c *Client) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	c.inject(ctx, req)
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeAPIError(resp)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decode %s: %w", path, err)
	}
	return nil
}

// Metrics returns the raw Prometheus text exposition from /metrics.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", &APIError{Status: resp.StatusCode, Message: strings.TrimSpace(string(b))}
	}
	return string(b), nil
}

// post sends one JSON request and decodes the 200 answer into out.
func (c *Client) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("client: encode: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	c.inject(ctx, req)
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeAPIError(resp)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decode %s: %w", path, err)
	}
	return nil
}

// inject sets the outgoing traceparent: the caller's context verbatim
// when one is installed (its span id becomes the server's parent —
// what stitches a multi-request floorplan iteration under one span),
// else a fresh root for this request.
func (c *Client) inject(ctx context.Context, req *http.Request) {
	tc, ok := obs.TraceContextFrom(ctx)
	if !ok {
		tc = obs.NewTraceContext()
	}
	req.Header.Set(obs.TraceparentHeader, tc.Traceparent())
}

// decodeAPIError turns a non-2xx response into an *APIError, keeping
// the body readable even when it is not the structured JSON shape.
func decodeAPIError(resp *http.Response) error {
	apiErr := &APIError{Status: resp.StatusCode}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
		apiErr.RetryAfter = ra
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		apiErr.Message = fmt.Sprintf("unreadable error body: %v", err)
		return apiErr
	}
	var e serve.ErrorResponse
	if json.Unmarshal(b, &e) == nil && e.Error != "" {
		apiErr.Message = e.Error
		apiErr.RequestID = e.RequestID
		apiErr.TraceID = e.TraceID
	} else {
		apiErr.Message = strings.TrimSpace(string(b))
	}
	return apiErr
}
