package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"maest/internal/congest"
	"maest/internal/core"
	"maest/internal/engine"
	"maest/internal/hdl"
	"maest/internal/netlist"
	"maest/internal/tech"
)

// The wire format.  Field names are snake_case and stable: clients
// (floorplanner loops, load generators) pin against this shape.

// EstimateRequest is the POST /v1/estimate payload: one circuit as
// netlist source text plus the estimator knobs.
type EstimateRequest struct {
	// Format selects the netlist language: "mnet" (default), "bench",
	// or "verilog".
	Format string `json:"format,omitempty"`
	// Name is the module name for .bench inputs (which carry none).
	Name string `json:"name,omitempty"`
	// Netlist is the circuit source text.
	Netlist string `json:"netlist"`
	// Process is a built-in process name ("nmos25", "cmos30"); empty
	// selects the server's default.
	Process string `json:"process,omitempty"`
	// Rows fixes the standard-cell row count (0 = §5 automatic).
	Rows int `json:"rows,omitempty"`
	// TrackSharing enables the §7 routing-track-sharing extension.
	TrackSharing bool `json:"track_sharing,omitempty"`

	// rawNetlist is the netlist still in the body when decodeFast took
	// it; Netlist is then empty.
	rawNetlist jsonText
}

// DeltaRequest is the POST /v1/estimate/delta payload: an ECO-style
// edit script against a previously compiled plan, named by the "plan"
// key a prior /v1/estimate or /v1/estimate/delta answer carried.  The
// service replays the edits through the incremental Delta route —
// bit-identical to re-estimating the edited netlist from scratch —
// without re-sending or re-parsing the netlist source.
type DeltaRequest struct {
	// Parent is the hex plan key of the base plan.  An unknown parent
	// (aged out of the plan cache) answers 404; the caller falls back
	// to a full /v1/estimate.
	Parent string `json:"parent"`
	// Edits is the ECO script, applied in order.  Empty re-estimates
	// the parent at the given knobs.
	Edits []EditBody `json:"edits,omitempty"`
	// Rows fixes the standard-cell row count (0 = the script's
	// resize_rows default, else §5 automatic).
	Rows int `json:"rows,omitempty"`
	// TrackSharing enables the §7 routing-track-sharing extension.
	TrackSharing bool `json:"track_sharing,omitempty"`
}

// EditBody is one edit of a delta script.  Op selects the edit;
// the other fields are its operands:
//
//	add_net        name, devices   remove_net      name
//	connect_pin    device, net     disconnect_pin  device, net
//	add_cell       name, type, nets
//	remove_cell    name
//	resize_rows    rows            swap_process    process
type EditBody struct {
	Op      string   `json:"op"`
	Name    string   `json:"name,omitempty"`
	Device  string   `json:"device,omitempty"`
	Net     string   `json:"net,omitempty"`
	Type    string   `json:"type,omitempty"`
	Nets    []string `json:"nets,omitempty"`
	Devices []string `json:"devices,omitempty"`
	Rows    int      `json:"rows,omitempty"`
	Process string   `json:"process,omitempty"`
}

// BatchRequest is the POST /v1/estimate/batch payload: a chip's worth
// of modules fanned out through the estimation worker pool.  The
// estimator knobs apply to every module.
type BatchRequest struct {
	Process      string `json:"process,omitempty"`
	Rows         int    `json:"rows,omitempty"`
	TrackSharing bool   `json:"track_sharing,omitempty"`
	// Workers sizes the worker pool (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Modules are the circuits to estimate, answered in order.
	Modules []ModuleInput `json:"modules"`
}

// ModuleInput is one circuit of a batch.
type ModuleInput struct {
	Format  string `json:"format,omitempty"`
	Name    string `json:"name,omitempty"`
	Netlist string `json:"netlist"`

	rawNetlist jsonText // as in EstimateRequest
}

// SCBody is the standard-cell half of an estimate answer (Eq. 12/14).
type SCBody struct {
	Rows         int     `json:"rows"`
	Tracks       int     `json:"tracks"`
	FeedThroughs int     `json:"feed_throughs"`
	Width        float64 `json:"width_lambda"`
	Height       float64 `json:"height_lambda"`
	Area         float64 `json:"area_lambda2"`
	AspectRatio  float64 `json:"aspect_ratio"`
	PortFeasible bool    `json:"port_feasible"`
}

// FCBody is one full-custom estimate (Eq. 13) in an answer.
type FCBody struct {
	Mode        string  `json:"mode"`
	DeviceArea  float64 `json:"device_area_lambda2"`
	WireArea    float64 `json:"wire_area_lambda2"`
	Area        float64 `json:"area_lambda2"`
	Width       float64 `json:"width_lambda"`
	Height      float64 `json:"height_lambda"`
	AspectRatio float64 `json:"aspect_ratio"`
}

// StatsBody summarizes the §4 estimator inputs of a module.
type StatsBody struct {
	Devices int `json:"devices"`
	Nets    int `json:"routable_nets"`
	Ports   int `json:"ports"`
}

// EstimateResponse is one module's answer.
type EstimateResponse struct {
	Module   string `json:"module"`
	Process  string `json:"process"`
	CacheHit bool   `json:"cache_hit"`
	Key      string `json:"key"`
	// Plan is the compiled plan's content address, present on
	// /v1/estimate and /v1/estimate/delta answers.  It is the handle
	// a subsequent DeltaRequest names as Parent, so an ECO loop chains
	// edit upon edit without ever re-sending netlist source.
	Plan     string    `json:"plan,omitempty"`
	Stats    StatsBody `json:"stats"`
	SC       *SCBody   `json:"standard_cell,omitempty"`
	SCShapes []SCBody  `json:"standard_cell_candidates,omitempty"`
	FCExact  *FCBody   `json:"full_custom_exact,omitempty"`
	FCAvg    *FCBody   `json:"full_custom_average,omitempty"`
}

// BatchResponse answers a batch, modules in request order.
type BatchResponse struct {
	Process   string             `json:"process"`
	CacheHits int                `json:"cache_hits"`
	Modules   []EstimateResponse `json:"modules"`
}

// CongestionRequest is the POST /v1/congestion payload: one circuit
// plus the congestion-analysis knobs.
type CongestionRequest struct {
	Format  string `json:"format,omitempty"`
	Name    string `json:"name,omitempty"`
	Netlist string `json:"netlist"`
	Process string `json:"process,omitempty"`
	// Rows fixes the row count (0 = §5 automatic; for gridded maps 0
	// selects the ⌈√N⌉ default grid).
	Rows int `json:"rows,omitempty"`
	// Gridded selects the full-custom grid variant of the analysis.
	Gridded bool `json:"gridded,omitempty"`
	// Model selects the demand accounting: "occupancy" (default) or
	// "crossing".
	Model string `json:"model,omitempty"`
	// Capacity overrides the per-channel track capacity (0 = derived).
	Capacity int `json:"capacity,omitempty"`
	// FeedBudget overrides the per-row feed-through budget (0 =
	// derived).
	FeedBudget int `json:"feed_budget,omitempty"`

	rawNetlist jsonText // as in EstimateRequest
}

// ChannelBody is one channel of a congestion answer.
type ChannelBody struct {
	Index       int     `json:"index"`
	Expected    float64 `json:"expected_tracks"`
	Capacity    int     `json:"capacity"`
	Utilization float64 `json:"utilization"`
	POverflow   float64 `json:"p_overflow"`
}

// RowFeedsBody is one row's feed-through pressure in an answer.
type RowFeedsBody struct {
	Index       int     `json:"index"`
	Expected    float64 `json:"expected_feeds"`
	Budget      int     `json:"budget"`
	POverBudget float64 `json:"p_over_budget"`
}

// HotspotBody is one ranked congestion risk in an answer.
type HotspotBody struct {
	Kind     string  `json:"kind"`
	Index    int     `json:"index"`
	Score    float64 `json:"score"`
	Expected float64 `json:"expected"`
}

// CongestionResponse is one module's congestion map.
type CongestionResponse struct {
	Module         string         `json:"module"`
	Process        string         `json:"process"`
	CacheHit       bool           `json:"cache_hit"`
	Key            string         `json:"key"`
	Model          string         `json:"model"`
	Rows           int            `json:"rows"`
	Gridded        bool           `json:"gridded,omitempty"`
	Nets           int            `json:"nets"`
	ExpectedTracks float64        `json:"expected_tracks"`
	ExpectedFeeds  float64        `json:"expected_feeds"`
	Channels       []ChannelBody  `json:"channels"`
	Feeds          []RowFeedsBody `json:"feeds,omitempty"`
	Hotspots       []HotspotBody  `json:"hotspots,omitempty"`
}

// FloorplanRequest is the POST /v1/floorplan payload: a chip's worth
// of modules plus the global nets connecting them and the annealer
// knobs.  The answer is a job id; the plan itself is fetched from
// GET /v1/jobs/{id} once the anneal completes.
type FloorplanRequest struct {
	// Chip names the chip (defaults to "chip").
	Chip string `json:"chip,omitempty"`
	// Process is a built-in process name; empty selects the server's
	// default.
	Process string `json:"process,omitempty"`
	// Modules are the chip's circuits, each floorplanned as one block.
	Modules []ModuleInput `json:"modules"`
	// Nets are the global interconnections; they drive both the
	// wire-length term and the clustering order.
	Nets []GlobalNetBody `json:"nets,omitempty"`
	// CongestWeight scales the routability term: cost is multiplied
	// by (1 + w·Σ pin-weighted P(overflow)).  Zero scores area/wire
	// only.
	CongestWeight float64 `json:"congest_weight,omitempty"`
	// WireWeight scales the wire-length term (see
	// floorplan.WithWireWeight).
	WireWeight float64 `json:"wire_weight,omitempty"`
	// Seed fixes the annealer's random source (0 selects the
	// planner's default); plans are byte-stable in (request, seed).
	Seed int64 `json:"seed,omitempty"`
	// Budget is the annealing move budget (0 selects the planner's
	// default; negative disables annealing; above 1,000,000 is a 400).
	Budget int `json:"budget,omitempty"`
	// Candidates is the shape-candidate count per module (0 selects
	// the planner's default).
	Candidates int `json:"candidates,omitempty"`
	// TrackSharing toggles the §7 routing-track-sharing extension for
	// candidate generation; omitted selects the planner's default
	// (on).
	TrackSharing *bool `json:"track_sharing,omitempty"`
}

// GlobalNetBody is one global net of a floorplan request.
type GlobalNetBody struct {
	Name string          `json:"name"`
	Pins []GlobalPinBody `json:"pins"`
}

// GlobalPinBody is one connection of a global net.
type GlobalPinBody struct {
	Module string `json:"module"`
	Port   string `json:"port,omitempty"`
}

// Job states, in lifecycle order.  A job is terminal in done, failed
// or cancelled; accepted and annealing are in flight.
const (
	JobAccepted  = "accepted"
	JobAnnealing = "annealing"
	JobDone      = "done"
	JobFailed    = "failed"
	JobCancelled = "cancelled"
)

// JobResponse is the body of every job-API answer: the submit ack,
// the poll snapshot and the persisted record share this one shape, so
// a GET after a restart is byte-identical to the last GET before it.
type JobResponse struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Iterations and BestCost report annealing progress; they keep
	// their final values on terminal states.
	Iterations int64   `json:"iterations,omitempty"`
	BestCost   float64 `json:"best_cost,omitempty"`
	// Error is set on failed jobs.
	Error string `json:"error,omitempty"`
	// Result is set on done jobs.
	Result *FloorplanResult `json:"result,omitempty"`
}

// FloorplanResult is a finished plan on the wire.
type FloorplanResult struct {
	Chip          string              `json:"chip"`
	Process       string              `json:"process"`
	Width         float64             `json:"width_lambda"`
	Height        float64             `json:"height_lambda"`
	Area          float64             `json:"area_lambda2"`
	Utilization   float64             `json:"utilization"`
	WireLength    float64             `json:"wire_length_lambda"`
	Routability   float64             `json:"routability"`
	Cost          float64             `json:"cost"`
	Seed          int64               `json:"seed"`
	Budget        int                 `json:"budget"`
	CongestWeight float64             `json:"congest_weight"`
	Iterations    int                 `json:"iterations"`
	Blocks        []PlacedBody        `json:"blocks"`
	Congestion    []ModuleCongestBody `json:"congestion,omitempty"`
}

// PlacedBody is one module's slot in a finished plan.
type PlacedBody struct {
	Name       string  `json:"name"`
	X          float64 `json:"x_lambda"`
	Y          float64 `json:"y_lambda"`
	W          float64 `json:"width_lambda"`
	H          float64 `json:"height_lambda"`
	ShapeIndex int     `json:"shape_index"`
	Rows       int     `json:"rows,omitempty"`
}

// ModuleCongestBody is one module's channel overflow risk in the
// winning plan.
type ModuleCongestBody struct {
	Module       string            `json:"module"`
	Rows         int               `json:"rows"`
	POverflowSum float64           `json:"p_overflow_sum"`
	Channels     []ChannelRiskBody `json:"channels"`
}

// ChannelRiskBody is one channel's overflow probability.
type ChannelRiskBody struct {
	Index     int     `json:"index"`
	POverflow float64 `json:"p_overflow"`
}

// ErrorResponse is every non-2xx body.  RequestID and TraceID are
// present whenever request telemetry is enabled, so a client seeing a
// 429/400/500 can quote the exact identifiers an operator needs to
// find the request in the access log and flight recorder — the error
// path is where correlation matters most.
type ErrorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
	TraceID   string `json:"trace_id,omitempty"`
}

// HealthResponse is the GET /healthz body.  Status is always "ok": a
// process that answers is healthy.
type HealthResponse struct {
	Status string `json:"status"`
	// Store appears when the persistent store is mounted.
	Store *StoreHealth `json:"store,omitempty"`
}

// StoreHealth is the persistent store's view in /healthz.  Status is
// "ok" or "degraded"; degraded means corrupt records were detected
// and skipped (never served) — answers stay correct, the disk should
// be looked at.
type StoreHealth struct {
	Status   string `json:"status"`
	Segments int    `json:"segments"`
	Bytes    int64  `json:"bytes"`
	Records  int64  `json:"records"`
	Hits     int64  `json:"hits"`
	Misses   int64  `json:"misses"`
}

// errBadRequest marks client-side failures that map to HTTP 4xx; its
// absence means a server-side 5xx.
var errBadRequest = errors.New("serve: bad request")

// errUnknownParent marks a delta request whose parent plan is not in
// the plan cache (404): the plan aged out, or another server minted
// it.  The defined fallback is a full /v1/estimate.
var errUnknownParent = errors.New("serve: unknown parent plan")

// errUnknownJob marks a job id found neither in memory nor in the
// persistent store (404).
var errUnknownJob = errors.New("serve: unknown job")

func reqErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errBadRequest, fmt.Sprintf(format, args...))
}

// decodeJSON strictly decodes one JSON document from r into v.  Errors
// come in body order: a malformed document, then anything but
// whitespace after it, then a read error (413 for a body past the
// limit).  It is the reference decodeBody falls back to.
func decodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	if err := dec.Decode(v); err != nil {
		return decodeErr(err)
	}
	// Decoder.More stops at a stray '}' or ']', so the rest of the body
	// is scanned here instead.
	rest := io.MultiReader(dec.Buffered(), r)
	var chunk [512]byte
	for {
		n, err := rest.Read(chunk[:])
		for _, c := range chunk[:n] {
			if !isJSONSpace(c) {
				return reqErr("decode: trailing data after JSON document")
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return decodeErr(err)
		}
	}
}

// decodeErr classifies a decode failure as a bad request.  Both %w
// verbs matter: errBadRequest makes it a 4xx while the original chain
// keeps http.MaxBytesError reachable for the 413 mapping.
func decodeErr(err error) error {
	return fmt.Errorf("%w: decode: %w", errBadRequest, err)
}

func isJSONSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

// bodyPool recycles the buffers request bodies are read into.  A buffer
// goes back only when its handler returns (releaseBody), because a
// fast-path netlist is read in place until then.  Buffers grown past
// maxPooledBody are dropped, so one large body does not stay resident.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 1 << 20

// decodeBody reads a request body of at most limit bytes and decodes it
// into v; every handler decodes through it.  Estimate, congestion and
// batch bodies take decodeFast, one pass over the bytes.  Any body that
// pass declines, any other request type, and any body whose read failed
// go to decodeJSON over the same bytes, with the read error replayed
// after them.  So every accepted value and every error text is
// encoding/json's.  It returns the buffer the body was read into, error
// or not; the handler passes it to releaseBody when it returns.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) (*bytes.Buffer, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	if err == nil && decodeFast(buf.Bytes(), v) {
		return buf, nil
	}
	var src io.Reader = bytes.NewReader(buf.Bytes())
	if err != nil {
		src = io.MultiReader(src, errReader{err})
	}
	return buf, decodeJSON(src, v)
}

// releaseBody returns a body buffer to bodyPool.  Nothing may read a
// netlist decodeFast left in it afterwards.
func releaseBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		bodyPool.Put(buf)
	}
}

// errReader replays a body's read error after its bytes.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// decodeFast decodes an EstimateRequest, CongestionRequest or
// BatchRequest in one pass over body.  A netlist is validated but left
// in body as a jsonText (rawNetlist), so a repeated request is hashed
// without a copy.  It accepts only what it can decode exactly as
// encoding/json would: one object of exact lowercase field names, each
// at most once, holding strings, integers that fit an int, booleans
// and, for a batch, an array of module objects, with nothing but
// whitespace around it.  Strings must be valid UTF-8 whose
// \u escapes are not surrogates.  For anything else, including null,
// unknown or case-variant keys and numbers with a fraction or exponent,
// it reports false and leaves v untouched.
func decodeFast(body []byte, v any) bool {
	d := fastDecoder{b: body}
	switch v := v.(type) {
	case *EstimateRequest:
		var req EstimateRequest
		if !d.object(func(key []byte) bool {
			switch string(key) {
			case "format":
				return d.str(&req.Format)
			case "name":
				return d.str(&req.Name)
			case "netlist":
				return d.text(&req.rawNetlist)
			case "process":
				return d.str(&req.Process)
			case "rows":
				return d.integer(&req.Rows)
			case "track_sharing":
				return d.boolean(&req.TrackSharing)
			}
			return false
		}) || !d.end() {
			return false
		}
		*v = req
	case *CongestionRequest:
		var req CongestionRequest
		if !d.object(func(key []byte) bool {
			switch string(key) {
			case "format":
				return d.str(&req.Format)
			case "name":
				return d.str(&req.Name)
			case "netlist":
				return d.text(&req.rawNetlist)
			case "process":
				return d.str(&req.Process)
			case "rows":
				return d.integer(&req.Rows)
			case "gridded":
				return d.boolean(&req.Gridded)
			case "model":
				return d.str(&req.Model)
			case "capacity":
				return d.integer(&req.Capacity)
			case "feed_budget":
				return d.integer(&req.FeedBudget)
			}
			return false
		}) || !d.end() {
			return false
		}
		*v = req
	case *BatchRequest:
		var req BatchRequest
		if !d.object(func(key []byte) bool {
			switch string(key) {
			case "process":
				return d.str(&req.Process)
			case "rows":
				return d.integer(&req.Rows)
			case "track_sharing":
				return d.boolean(&req.TrackSharing)
			case "workers":
				return d.integer(&req.Workers)
			case "modules":
				return d.modules(&req.Modules)
			}
			return false
		}) || !d.end() {
			return false
		}
		*v = req
	default:
		return false
	}
	return true
}

// fastDecoder is decodeFast's cursor over a body.
type fastDecoder struct {
	b []byte
	i int
}

// maxFields bounds the keys of one object the fast path accepts: no
// request type has more fields, so a longer object repeats a key or
// names an unknown one, and either declines anyway.
const maxFields = 9

func (d *fastDecoder) skipSpace() {
	for d.i < len(d.b) && isJSONSpace(d.b[d.i]) {
		d.i++
	}
}

// consume skips whitespace and then c, reporting whether c was there.
func (d *fastDecoder) consume(c byte) bool {
	d.skipSpace()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (d *fastDecoder) end() bool {
	d.skipSpace()
	return d.i == len(d.b)
}

// object decodes one object, calling field after each key's colon to
// decode its value.  Keys must be plain printable ASCII and distinct:
// encoding/json unescapes keys, matches them case-insensitively and
// merges repeats, none of which this path models.
func (d *fastDecoder) object(field func(key []byte) bool) bool {
	if !d.consume('{') {
		return false
	}
	if d.consume('}') {
		return true
	}
	var seen [maxFields][]byte
	for n := 0; ; n++ {
		if n == len(seen) || !d.consume('"') {
			return false
		}
		start := d.i
		for d.i < len(d.b) && d.b[d.i] != '"' {
			if c := d.b[d.i]; c < 0x20 || c == '\\' || c >= utf8.RuneSelf {
				return false
			}
			d.i++
		}
		if d.i == len(d.b) {
			return false
		}
		key := d.b[start:d.i]
		d.i++
		for _, k := range seen[:n] {
			if string(k) == string(key) {
				return false
			}
		}
		seen[n] = key
		if !d.consume(':') || !field(key) {
			return false
		}
		if d.consume('}') {
			return true
		}
		if !d.consume(',') {
			return false
		}
	}
}

// modules decodes a batch's module array.  An empty array decodes to an
// empty, non-nil slice, as encoding/json's does.
func (d *fastDecoder) modules(dst *[]ModuleInput) bool {
	if !d.consume('[') {
		return false
	}
	mods := []ModuleInput{}
	if !d.consume(']') {
		for {
			var m ModuleInput
			if !d.object(func(key []byte) bool {
				switch string(key) {
				case "format":
					return d.str(&m.Format)
				case "name":
					return d.str(&m.Name)
				case "netlist":
					return d.text(&m.rawNetlist)
				}
				return false
			}) {
				return false
			}
			mods = append(mods, m)
			if d.consume(']') {
				break
			}
			if !d.consume(',') {
				return false
			}
		}
	}
	*dst = mods
	return true
}

// plainString marks the bytes a JSON string carries verbatim: printable
// ASCII other than the quote and the backslash.
var plainString = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// plainRun returns the index of the first byte at or after i that
// plainString does not mark, or len(b).  It tests eight bytes at a
// time: a lane is flagged when it is below 0x20, equal to the quote or
// the backslash, or has its top bit set.  A subtraction borrows only
// out of a flagged lane, so the lowest flagged lane is a real one.
func plainRun(b []byte, i int) int {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	for ; i+8 <= len(b); i += 8 {
		x := binary.LittleEndian.Uint64(b[i:])
		q, bs := x^(ones*'"'), x^(ones*'\\')
		if m := ((x-ones*0x20)|(q-ones)|(bs-ones))&^x&highs | x&highs; m != 0 {
			return i + bits.TrailingZeros64(m)/8
		}
	}
	for i < len(b) && plainString[b[i]] {
		i++
	}
	return i
}

// jsonText is a JSON string value decodeFast validated and left in the
// body: the bytes between its quotes, escapes intact, and how many bytes
// unescaping drops.  ok is false when encoding/json decoded the body
// instead.  The bytes are the body buffer's, so they are read only
// before the handler releases it.
type jsonText struct {
	raw    []byte
	shrink int
	ok     bool
}

// String unescapes the text into a new string: one copy when it has no
// escapes, and otherwise one exact-size allocation built by copying the
// runs between its escapes.
func (t jsonText) String() string {
	raw := t.raw
	if t.shrink == 0 {
		return string(raw)
	}
	var sb strings.Builder
	sb.Grow(len(raw) - t.shrink)
	for {
		j := bytes.IndexByte(raw, '\\')
		if j < 0 {
			sb.Write(raw)
			break
		}
		sb.Write(raw[:j])
		if raw[j+1] == 'u' {
			sb.WriteRune(hex4(raw[j+2 : j+6]))
			raw = raw[j+6:]
		} else {
			sb.WriteByte(escapedByte[raw[j+1]])
			raw = raw[j+2:]
		}
	}
	return sb.String()
}

// str decodes a string value.
func (d *fastDecoder) str(dst *string) bool {
	var t jsonText
	if !d.text(&t) {
		return false
	}
	*dst = t.String()
	return true
}

// text validates a string value and records it in place.  It finds the
// closing quote, checks every escape and measures what unescaping
// drops.
func (d *fastDecoder) text(dst *jsonText) bool {
	if !d.consume('"') {
		return false
	}
	b, start := d.b, d.i
	i, shrink, high := start, 0, false
	for {
		if i = plainRun(b, i); i == len(b) {
			return false
		}
		c := b[i]
		if c == '"' {
			break
		}
		switch {
		case c == '\\':
			n, size := unescape(b[i:])
			if n == 0 {
				return false
			}
			i += n
			shrink += n - size
		case c < 0x20:
			return false
		default:
			high = true
			i++
		}
	}
	raw := b[start:i]
	d.i = i + 1
	// encoding/json turns each byte of an invalid sequence into U+FFFD.
	if high && !utf8.Valid(raw) {
		return false
	}
	*dst = jsonText{raw: raw, shrink: shrink, ok: true}
	return true
}

// escapedByte maps the letter after a backslash to the byte it stands
// for; 0 marks a letter that is not a one-byte escape.
var escapedByte = [256]byte{
	'"': '"', '\\': '\\', '/': '/',
	'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t',
}

// unescape measures the escape at the start of s: its length n in s and
// the size of what it decodes to.  n is 0 for a malformed escape and for
// a \u escape in the surrogate range, whose pairing encoding/json
// resolves.
func unescape(s []byte) (n, size int) {
	if len(s) < 2 {
		return 0, 0
	}
	if s[1] != 'u' {
		if escapedByte[s[1]] == 0 {
			return 0, 0
		}
		return 2, 1
	}
	if len(s) < 6 {
		return 0, 0
	}
	r := hex4(s[2:6])
	if r < 0 || utf16.IsSurrogate(r) {
		return 0, 0
	}
	return 6, utf8.RuneLen(r)
}

// hex4 decodes four hex digits, or returns -1.
func hex4(s []byte) rune {
	var r rune
	for _, c := range s {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// integer decodes an integer: an optional minus sign and at most 18 digits
// without a leading zero, so it cannot overflow int64, and it must also
// fit an int.  A fraction or exponent fails at the caller's next
// delimiter.
func (d *fastDecoder) integer(dst *int) bool {
	d.skipSpace()
	b, i := d.b, d.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var n int64
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		n = n*10 + int64(b[i]-'0')
		i++
	}
	digits := i - start
	if digits == 0 || digits > 18 || (b[start] == '0' && digits > 1) {
		return false
	}
	if neg {
		n = -n
	}
	if int64(int(n)) != n {
		return false
	}
	*dst, d.i = int(n), i
	return true
}

// boolean decodes true or false.
func (d *fastDecoder) boolean(dst *bool) bool {
	d.skipSpace()
	switch rest := d.b[d.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		*dst, d.i = true, d.i+4
	case bytes.HasPrefix(rest, []byte("false")):
		*dst, d.i = false, d.i+5
	default:
		return false
	}
	return true
}

// parseCircuit turns one module input into a circuit through the
// requested front end.
func parseCircuit(format, name, source string, p *tech.Process) (*netlist.Circuit, error) {
	if strings.TrimSpace(source) == "" {
		return nil, reqErr("empty netlist")
	}
	r := strings.NewReader(source)
	switch format {
	case "", "mnet":
		c, err := hdl.ParseMnet(r)
		if err != nil {
			return nil, reqErr("%v", err)
		}
		return c, nil
	case "bench":
		if name == "" {
			name = "module"
		}
		c, err := hdl.ParseBench(r, name, p)
		if err != nil {
			return nil, reqErr("%v", err)
		}
		return c, nil
	case "verilog":
		c, err := hdl.ParseVerilog(r, p)
		if err != nil {
			return nil, reqErr("%v", err)
		}
		return c, nil
	default:
		return nil, reqErr("unknown format %q (want mnet, bench or verilog)", format)
	}
}

// builtinProcs holds one copy of each built-in process, shared by every
// request and never written: Compile clones the process it plans under.
var builtinProcs = func() map[string]*tech.Process {
	m := map[string]*tech.Process{}
	for _, name := range tech.BuiltinNames() {
		p, err := tech.Lookup(name)
		if err != nil {
			panic(err) // BuiltinNames lists only registered processes
		}
		m[name] = p
	}
	return m
}()

// builtinProcess returns the shared copy of a built-in process.
func builtinProcess(name string) (*tech.Process, error) {
	if p, ok := builtinProcs[name]; ok {
		return p, nil
	}
	_, err := tech.Lookup(name) // fails; it names the known processes
	return nil, err
}

// lookupProcess resolves a request's process name against the
// built-in database, falling back to the server default.
func lookupProcess(name, fallback string) (*tech.Process, string, error) {
	if name == "" {
		name = fallback
	}
	p, err := builtinProcess(name)
	if err != nil {
		return nil, "", reqErr("%v", err)
	}
	return p, name, nil
}

// parseKey decodes a hex content address from the wire.
func parseKey(s string) (Key, error) {
	var k Key
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(k) {
		return k, reqErr("malformed plan key %q", s)
	}
	copy(k[:], b)
	return k, nil
}

// decodeEdits turns a wire edit script into the engine's typed edit
// algebra, splitting off resize_rows: the last one's row count is
// returned as the script's row default (0 when there is none) rather
// than as an edit.  Shape errors (unknown op, missing operands,
// unknown process) are 400s and a resize below one row is a 422;
// other semantic errors (ghost devices, methodology mixing) are left
// for Plan.Delta so the delta route answers exactly what a full
// estimate of the edited netlist would.
func decodeEdits(bodies []EditBody) ([]engine.Edit, int, error) {
	edits := make([]engine.Edit, 0, len(bodies))
	rows := 0
	for i, e := range bodies {
		switch e.Op {
		case "add_net":
			if e.Name == "" {
				return nil, 0, reqErr("edit %d: add_net needs a name", i)
			}
			edits = append(edits, engine.AddNet(e.Name, e.Devices...))
		case "remove_net":
			if e.Name == "" {
				return nil, 0, reqErr("edit %d: remove_net needs a name", i)
			}
			edits = append(edits, engine.RemoveNet(e.Name))
		case "connect_pin":
			if e.Device == "" || e.Net == "" {
				return nil, 0, reqErr("edit %d: connect_pin needs device and net", i)
			}
			edits = append(edits, engine.ConnectPin(e.Device, e.Net))
		case "disconnect_pin":
			if e.Device == "" || e.Net == "" {
				return nil, 0, reqErr("edit %d: disconnect_pin needs device and net", i)
			}
			edits = append(edits, engine.DisconnectPin(e.Device, e.Net))
		case "add_cell":
			if e.Name == "" || e.Type == "" {
				return nil, 0, reqErr("edit %d: add_cell needs name and type", i)
			}
			edits = append(edits, engine.AddCell(e.Name, e.Type, e.Nets...))
		case "remove_cell":
			if e.Name == "" {
				return nil, 0, reqErr("edit %d: remove_cell needs a name", i)
			}
			edits = append(edits, engine.RemoveCell(e.Name))
		case "resize_rows":
			if e.Rows < 1 {
				return nil, 0, fmt.Errorf("%w: edit %d: resize to %d rows; need at least 1", core.ErrEstimate, i, e.Rows)
			}
			rows = e.Rows
		case "swap_process":
			p, err := builtinProcess(e.Process)
			if err != nil {
				return nil, 0, reqErr("edit %d: %v", i, err)
			}
			edits = append(edits, engine.SwapProcess(p))
		default:
			return nil, 0, reqErr("edit %d: unknown op %q", i, e.Op)
		}
	}
	return edits, rows, nil
}

// encodeResult converts an estimate into its wire shape.
func encodeResult(res *core.Result, process string, key Key, hit bool) EstimateResponse {
	out := EstimateResponse{
		Module:   res.Module,
		Process:  process,
		CacheHit: hit,
		Key:      key.String(),
		Stats: StatsBody{
			Devices: res.Stats.N,
			Nets:    res.Stats.H,
			Ports:   res.Stats.NumPorts,
		},
	}
	if res.SC != nil {
		sc := encodeSC(res.SC)
		out.SC = &sc
		for _, c := range res.SCCandidates {
			out.SCShapes = append(out.SCShapes, encodeSC(c))
		}
	}
	if res.FCExact != nil {
		out.FCExact = encodeFC(res.FCExact)
	}
	if res.FCAverage != nil {
		out.FCAvg = encodeFC(res.FCAverage)
	}
	return out
}

func encodeSC(sc *core.SCEstimate) SCBody {
	return SCBody{
		Rows:         sc.Rows,
		Tracks:       sc.Tracks,
		FeedThroughs: sc.FeedThroughs,
		Width:        sc.Width,
		Height:       sc.Height,
		Area:         sc.Area,
		AspectRatio:  sc.AspectRatio,
		PortFeasible: sc.PortFeasible,
	}
}

// encodeMap converts a congestion map into its wire shape.  The full
// per-channel distributions stay server-side; clients get the derived
// risk numbers, which is what floorplanner loops consume.
func encodeMap(m *congest.Map, process string, key Key, hit bool) CongestionResponse {
	out := CongestionResponse{
		Module:         m.Module,
		Process:        process,
		CacheHit:       hit,
		Key:            key.String(),
		Model:          m.Model.String(),
		Rows:           m.Rows,
		Gridded:        m.Gridded,
		Nets:           m.Nets,
		ExpectedTracks: m.TotalExpectedTracks,
		ExpectedFeeds:  m.TotalExpectedFeeds,
	}
	for _, ch := range m.Channels {
		out.Channels = append(out.Channels, ChannelBody{
			Index:       ch.Index,
			Expected:    ch.Expected,
			Capacity:    ch.Capacity,
			Utilization: ch.Utilization,
			POverflow:   ch.POverflow,
		})
	}
	for _, rf := range m.Feeds {
		out.Feeds = append(out.Feeds, RowFeedsBody{
			Index:       rf.Index,
			Expected:    rf.Expected,
			Budget:      rf.Budget,
			POverBudget: rf.POverBudget,
		})
	}
	for _, h := range m.Hotspots {
		out.Hotspots = append(out.Hotspots, HotspotBody{
			Kind: h.Kind, Index: h.Index, Score: h.Score, Expected: h.Expected,
		})
	}
	return out
}

func encodeFC(fc *core.FCEstimate) *FCBody {
	return &FCBody{
		Mode:        fc.Mode.String(),
		DeviceArea:  fc.DeviceArea,
		WireArea:    fc.WireArea,
		Area:        fc.Area,
		Width:       fc.Width,
		Height:      fc.Height,
		AspectRatio: fc.AspectRatio,
	}
}
