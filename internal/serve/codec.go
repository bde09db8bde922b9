package serve

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

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
	// default; negative disables annealing).
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

// HealthResponse is the GET /healthz body.  Status is "ok" or
// "degraded"; the watchdog block appears when the accuracy watchdog is
// running.
type HealthResponse struct {
	Status   string          `json:"status"`
	Watchdog *WatchdogHealth `json:"watchdog,omitempty"`
	// Store appears when the persistent store is mounted.
	Store *StoreHealth `json:"store,omitempty"`
}

// StoreHealth is the persistent store's view in /healthz.  Status is
// "ok" or "degraded"; degraded means corrupt records were detected
// and skipped (never served) — answers stay correct, the disk should
// be looked at.
type StoreHealth struct {
	Status             string `json:"status"`
	Segments           int    `json:"segments"`
	Bytes              int64  `json:"bytes"`
	Records            int64  `json:"records"`
	Hits               int64  `json:"hits"`
	Misses             int64  `json:"misses"`
	Compactions        int64  `json:"compactions"`
	LastCompactionUnix int64  `json:"last_compaction_unix,omitempty"`
}

// WatchdogHealth is the accuracy watchdog's view in /healthz.
type WatchdogHealth struct {
	Degraded    bool    `json:"degraded"`
	Probes      int64   `json:"probes"`
	ProbeErrors int64   `json:"probe_errors"`
	MaxDriftPP  float64 `json:"max_drift_pp"`
	Regressions int     `json:"regressions"`
	LastError   string  `json:"last_error,omitempty"`
}

// errBadRequest marks client-side failures that map to HTTP 4xx; its
// absence means a server-side 5xx.
var errBadRequest = errors.New("serve: bad request")

// errBadGateway marks proxy failures reaching the backend (502).
var errBadGateway = errors.New("serve: backend unreachable")

// errUnknownParent marks a delta request whose parent plan is not in
// the plan cache (404): the plan aged out, or the client is talking to
// a different shard.  The defined fallback is a full /v1/estimate.
var errUnknownParent = errors.New("serve: unknown parent plan")

// errUnknownJob marks a job id found neither in memory nor in the
// persistent store (404).
var errUnknownJob = errors.New("serve: unknown job")

func reqErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errBadRequest, fmt.Sprintf(format, args...))
}

// decodeJSON strictly decodes one JSON document from r into v,
// rejecting trailing garbage.
func decodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	if err := dec.Decode(v); err != nil {
		// Both %w verbs matter: errBadRequest classifies the failure
		// as 4xx while the original chain keeps http.MaxBytesError
		// reachable for the 413 mapping.
		return fmt.Errorf("%w: decode: %w", errBadRequest, err)
	}
	if dec.More() {
		return reqErr("decode: trailing data after JSON document")
	}
	return nil
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

// lookupProcess resolves a request's process name against the
// built-in database, falling back to the server default.
func lookupProcess(name, fallback string) (*tech.Process, string, error) {
	if name == "" {
		name = fallback
	}
	p, err := tech.Lookup(name)
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
			p, err := tech.Lookup(e.Process)
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
