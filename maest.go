// Package maest is a module area estimator for VLSI layout: a Go
// reproduction of Chen & Bushnell, "A Module Area Estimator for VLSI
// Layout", 25th Design Automation Conference (DAC), 1988.
//
// The estimator predicts, before any layout exists, the area and
// aspect ratio of a circuit module under two layout methodologies:
//
//   - Standard-Cell: equal-height cells in rows separated by routing
//     channels; the estimator computes the expected number of routing
//     tracks from the probability that a net's pins scatter over the
//     rows, and the expected number of feed-throughs in the central
//     row (paper §4.1, Eqs. 1–12).
//   - Full-Custom: free transistor placement; per-net interconnect is
//     lower-bounded by a two-row/one-track-channel model (paper §4.2,
//     Eq. 13), run with exact or average device areas.
//
// The package also ships everything needed to evaluate the estimator
// the way the paper does: a structural netlist language, process
// databases (nMOS λ=2.5µm and a generic CMOS), a simulated-annealing
// placer plus channel router producing real layouts (the TimberWolf
// stand-in), a Full-Custom layout synthesizer (the manual-layout
// stand-in), a slicing floor planner consuming the estimate database,
// baseline estimators, and workload generators.
//
// Quick start: compile a circuit against a process once, then ask the
// plan for estimates.
//
//	proc := maest.NMOS25()
//	circ, err := maest.ParseMnet(ctx, file)
//	pl, err := maest.Compile(ctx, circ, proc)
//	res, err := pl.Estimate(ctx)
//	fmt.Println(res.SC.Area, res.FCExact.Area)
package maest

import (
	"context"
	"io"

	"maest/internal/cells"
	"maest/internal/congest"
	"maest/internal/core"
	"maest/internal/db"
	"maest/internal/engine"
	"maest/internal/floorplan"
	"maest/internal/gen"
	"maest/internal/hdl"
	"maest/internal/layout"
	"maest/internal/metrics"
	"maest/internal/netlist"
	"maest/internal/obs"
	"maest/internal/pla"
	"maest/internal/place"
	"maest/internal/route"
	"maest/internal/serve"
	"maest/internal/tech"
)

// Process is a fabrication-process database entry.
type Process = tech.Process

// NMOS25 returns the built-in nMOS λ=2.5µm process (the paper's
// evaluation technology).
func NMOS25() *Process { return tech.NMOS25() }

// LookupProcess returns a built-in process by name ("nmos25",
// "cmos30").
func LookupProcess(name string) (*Process, error) { return tech.Lookup(name) }

// ReadProcess parses exactly one process from its text serialization.
func ReadProcess(r io.Reader) (*Process, error) { return tech.ReadOne(r) }

// Circuit is a flat module netlist.
type Circuit = netlist.Circuit

// Port directions.
const (
	In  = netlist.In
	Out = netlist.Out
)

// NewCircuitBuilder starts a circuit with the given module name.  The
// builder's by-name index lives only as long as the build: a built
// circuit is unindexed, and Circuit's DeviceByName, NetByName and
// PortByName scan.
func NewCircuitBuilder(name string) *netlist.Builder { return netlist.NewBuilder(name) }

// HDL front end.

// ParseMnet parses a module in the .mnet structural netlist language.
func ParseMnet(ctx context.Context, r io.Reader) (*Circuit, error) {
	return hdl.ParseMnetCtx(ctx, r)
}

// ParseBench parses an ISCAS-style .bench gate-level file, mapping its
// gates onto the process cell library.
func ParseBench(ctx context.Context, r io.Reader, name string, p *Process) (*Circuit, error) {
	return hdl.ParseBenchCtx(ctx, r, name, p)
}

// ParseVerilog parses a structural gate-level Verilog subset
// (Verilog-1985 primitives), mapping onto the process cell library.
func ParseVerilog(ctx context.Context, r io.Reader, p *Process) (*Circuit, error) {
	return hdl.ParseVerilogCtx(ctx, r, p)
}

// WriteMnet serializes a circuit in .mnet form.
func WriteMnet(w io.Writer, c *Circuit) error { return hdl.WriteMnet(w, c) }

// WriteBench serializes a gate-level circuit in ISCAS .bench form.
func WriteBench(w io.Writer, c *Circuit) error { return hdl.WriteBench(w, c) }

// ExpandTransistors lowers a gate-level circuit to the transistor
// level.  Plan estimates do not need it: they read the Full-Custom
// statistics straight from the same expansion.
func ExpandTransistors(c *Circuit, p *Process) (*Circuit, error) {
	return cells.ExpandTransistors(c, p)
}

// The estimator (the paper's contribution).
type (
	// SCOptions configures the Standard-Cell estimator.
	SCOptions = core.SCOptions
	// FCMode selects exact or average device areas (Table 1 modes).
	FCMode = core.FCMode
	// FCEstimate is a Full-Custom estimation result (Eq. 13).
	FCEstimate = core.FCEstimate
	// Result bundles both methodologies' estimates for one module.
	Result = core.Result
)

// Full-Custom device-area modes.
const (
	FCExactAreas   = core.FCExactAreas
	FCAverageAreas = core.FCAverageAreas
)

// EstimateFullCustom runs the §4.2 Full-Custom estimator on a
// transistor-level circuit.
func EstimateFullCustom(c *Circuit, p *Process, mode FCMode) (*FCEstimate, error) {
	return core.EstimateFullCustom(c, p, mode)
}

// Ground-truth layout flow (the evaluation substrate).
type (
	// Placement is a legal row placement.
	Placement = place.Placement
	// PlaceOptions configures the annealing placer.
	PlaceOptions = place.Options
	// DetailedRouting is a full per-track channel-routing result.
	DetailedRouting = route.Detailed
	// Geometry is a module's concrete rectangle-level layout.
	Geometry = layout.Geometry
)

// PlaceCircuit places a circuit into rows with simulated annealing
// (annealing statistics on the "place" span).
func PlaceCircuit(ctx context.Context, c *Circuit, p *Process, opts PlaceOptions) (*Placement, error) {
	return place.Place(ctx, c, p, opts)
}

// LayoutStandardCell places, routes, and measures a standard-cell
// module (the TimberWolf stand-in of Table 2).
func LayoutStandardCell(ctx context.Context, c *Circuit, p *Process, rows int, seed int64) (*layout.Module, error) {
	return layout.LayoutStandardCell(ctx, c, p, rows, seed)
}

// SynthesizeFullCustom constructs and measures a transistor-level
// layout (the manual-layout stand-in of Table 1).
func SynthesizeFullCustom(ctx context.Context, c *Circuit, p *Process, seed int64) (*layout.Module, error) {
	return layout.SynthesizeFullCustom(ctx, c, p, seed)
}

// DetailRoutePlacement performs detailed (per-track, vertical-
// constraint-aware) channel routing over a placement.
func DetailRoutePlacement(pl *Placement) (*DetailedRouting, error) {
	return route.DetailRoute(pl)
}

// BuildGeometry turns a placement plus detailed routing into concrete
// rectangle geometry.
func BuildGeometry(pl *Placement, det *DetailedRouting, p *Process) (*Geometry, error) {
	return layout.BuildGeometry(pl, det, p)
}

// WriteCIF serializes a module geometry as a CIF (Caltech
// Intermediate Form) file.
func WriteCIF(w io.Writer, g *Geometry, p *Process) error { return layout.WriteCIF(w, g, p) }

// WriteSVG renders a module geometry as an SVG document (scale SVG
// units per λ; ≤ 0 selects the default).
func WriteSVG(w io.Writer, g *Geometry, scale int) error { return layout.WriteSVG(w, g, scale) }

// Estimate database and floor planning.
type (
	// EstimateDB is the floor planner's input database.
	EstimateDB = db.Database
	// ModuleRecord is one module's estimates in the database.
	ModuleRecord = db.Module
	// GlobalNet is a chip-level net between module ports.
	GlobalNet = db.GlobalNet
	// GlobalPin is one endpoint of a global net.
	GlobalPin = db.GlobalPin
	// FloorPlan is a finished slicing floor plan.
	FloorPlan = floorplan.Plan
)

// ModuleRecordFromResult converts an estimate result into a database
// record.
func ModuleRecordFromResult(res *Result) ModuleRecord { return db.FromResult(res) }

// ReadEstimateDB parses a serialized estimate database.
func ReadEstimateDB(r io.Reader) (*EstimateDB, error) { return db.Read(r) }

// WriteEstimateDB serializes an estimate database.
func WriteEstimateDB(w io.Writer, d *EstimateDB) error { return db.Write(w, d) }

// FloorplanInputs converts an estimate database into PlanModules
// inputs: one fixed-shape module per record (shapes in record order)
// plus the global nets.
func FloorplanInputs(d *EstimateDB) ([]PlanModule, []FloorplanNet) { return floorplan.FromDB(d) }

// GlobalRoute estimates the chip-level wiring demand of a floor plan's
// global nets on a grid×grid congestion map.
func GlobalRoute(nets []FloorplanNet, plan *FloorPlan, p *Process, grid int) (*floorplan.GlobalRouteResult, error) {
	return floorplan.GlobalRoute(nets, plan, p, grid)
}

// WritePlanSVG renders a floor plan as an SVG document.
func WritePlanSVG(w io.Writer, plan *FloorPlan, scale float64) error {
	return floorplan.WriteSVG(w, plan, scale)
}

// Floor planning: the slicing search over modules that each carry a
// compiled engine Plan (shape candidates from Plan.Candidates and a
// routability term from the per-channel overflow probabilities) or a
// fixed shape list, annealed under a move budget.
type (
	// PlanModule is one module entering the planner: a compiled plan
	// or fixed shapes, exactly one of the two.
	PlanModule = floorplan.PlanModule
	// FloorplanNet is a chip-level net between annealer modules.
	FloorplanNet = floorplan.Net
	// FloorplanOption tunes the annealer (seed, budget, weights).
	FloorplanOption = floorplan.Option
)

// PlanModules floor-plans modules with the annealer; nets weight the
// wire-length and routability cost terms.  WithBudget(0) gives the
// deterministic greedy slicing pass.
func PlanModules(ctx context.Context, chip string, mods []PlanModule, nets []FloorplanNet, opts ...FloorplanOption) (*FloorPlan, error) {
	return floorplan.PlanModules(ctx, chip, mods, nets, opts...)
}

// WithBudget sets the annealer's move budget (< 0 = greedy).
func WithBudget(moves int) FloorplanOption { return floorplan.WithBudget(moves) }

// Workload generation.
type (
	// RandomConfig parameterizes RandomCircuit.
	RandomConfig = gen.RandomConfig
	// ChipConfig parameterizes RandomChip.
	ChipConfig = gen.ChipConfig
)

// RandomCircuit generates a seeded random gate-level circuit.
func RandomCircuit(cfg RandomConfig, p *Process) (*Circuit, error) { return gen.RandomCircuit(cfg, p) }

// RandomChip generates a seeded multi-module chip.
func RandomChip(cfg ChipConfig, p *Process) (*gen.Chip, error) { return gen.RandomChip(cfg, p) }

// Chain returns a k-inverter chain circuit, the simplest
// 2-component-net workload.
func Chain(name string, k int, p *Process) (*Circuit, error) { return gen.Chain(name, k, p) }

// FullCustomSuite returns the five Table-1-style benchmark modules.
func FullCustomSuite(p *Process) ([]*Circuit, error) { return gen.FullCustomSuite(p) }

// StandardCellSuite returns the two Table-2-style benchmark modules.
func StandardCellSuite(p *Process) ([]*Circuit, error) { return gen.StandardCellSuite(p) }

// RandomPLA generates a seeded random PLA personality, a programming
// matrix that can be lowered to a transistor netlist (the Gerveshi [1]
// linear-area context).
func RandomPLA(inputs, outputs, terms int, density float64, seed int64) (*pla.Personality, error) {
	return pla.Random(inputs, outputs, terms, density, seed)
}

// CircuitDegrees computes the net-degree statistics of a circuit.
func CircuitDegrees(c *Circuit) *metrics.DegreeStats { return metrics.Degrees(c) }

// RentExponent estimates the circuit's Rent exponent by recursive
// bisection over a connectivity-order chunking.
func RentExponent(c *Circuit) (*metrics.RentResult, error) { return metrics.Rent(c) }

// Observability: hierarchical spans and a process-wide metrics
// registry across the estimate/place/route pipeline.  Every
// operation takes a context first: pass one prepared with
// WithTraceSink and every stage records a span; without a sink the
// instrumentation is free (nil-span fast path, no allocations).

// TraceSink receives completed spans; implementations must be
// concurrency-safe.
type TraceSink = obs.Sink

// WithTraceSink returns a context whose pipeline spans record to sink.
func WithTraceSink(ctx context.Context, sink TraceSink) context.Context {
	return obs.WithSink(ctx, sink)
}

// StartSpan opens a span for caller-side work (library users nesting
// their own stages among the pipeline's).
func StartSpan(ctx context.Context, name string) (context.Context, *obs.Span) {
	return obs.Start(ctx, name)
}

// NewJSONLTraceSink returns a sink writing one JSON line per span.
func NewJSONLTraceSink(w io.Writer) *obs.JSONLSink { return obs.NewJSONL(w) }

// WriteMetrics emits every pipeline metric in the Prometheus text
// exposition format.
func WriteMetrics(w io.Writer) error { return obs.Default.WritePrometheus(w) }

// Serving: the estimator behind an HTTP/JSON API (cmd/maest-serve)
// with a content-addressed plan cache, concurrency limiting,
// per-request deadlines, and graceful shutdown.  The handler is
// exported so the service can be embedded in a larger mux.

// ServeOptions configures the estimation service handler.
type ServeOptions = serve.Options

// NewEstimateServer returns the estimation service handler, serving
// every route cmd/maest-serve does (the /v1 estimate, batch, delta,
// congestion, floorplan and job endpoints, /healthz and /metrics).
// Its DebugHandler mounts the request observatory.
func NewEstimateServer(opts ServeOptions) *serve.Server { return serve.New(opts) }

// CacheKeyFor computes the content-addressed identity of one
// estimation question: the same circuit (however its source text was
// ordered or commented), process, and options always map to the same
// key.
func CacheKeyFor(c *Circuit, processName string, opts SCOptions) serve.Key {
	return serve.CacheKey(c, processName, opts)
}

// NewPlanCache returns an LRU over compiled plans holding up to
// capacity entries (capacity < 1 disables caching).
func NewPlanCache(capacity int) *serve.PlanCache { return serve.NewPlanCache(capacity) }

// FlightRecorder is a fixed-capacity ring of recent request records;
// a nil recorder is a valid disabled no-op.  The service populates one
// when ServeOptions.FlightSize is set.
type FlightRecorder = obs.Flight

// ServeLatencySummary reports every service endpoint's latency
// distribution (count, mean, p50/p90/p99) from the process-wide
// histograms.
func ServeLatencySummary() []serve.EndpointLatency { return serve.LatencySummary() }

// Congestion analysis: the probabilistic routability subsystem
// (internal/congest).  It refines the Eq. 2–3 / Eq. 4–11 expectations
// into per-channel track-demand distributions and emits a congestion
// map — utilization, overflow probability, feed-through pressure, and
// ranked hotspots — for standard-cell rows and the gridded
// full-custom variant of the Eq. 13 model.  Plan.Congestion is the
// entry point.
type (
	// CongestModel selects the per-channel demand accounting: the
	// paper's own Eq. 2–3 occupancy, or the crossing model validated
	// against routed layouts.
	CongestModel = congest.Model
	// CongestMap is one module's congestion map.
	CongestMap = congest.Map
)

// ParseCongestModel resolves a demand-model name ("occupancy",
// "crossing", or empty for the default) for flags and request fields.
func ParseCongestModel(s string) (CongestModel, error) { return congest.ParseModel(s) }

// The estimation engine (internal/engine): a compile/execute split
// over the paper's estimators.  Compile runs the input-dependent work
// once — netlist statistics, degree classes, technology constants —
// into an immutable, content-addressed Plan; every estimator then
// executes against the plan, memoizing per-configuration results.
// Anything asking more than one question about the same circuit
// (candidate sweeps, congestion after an estimate, a floorplanner
// loop) should compile once and share the plan.
//
//	pl, err := maest.Compile(ctx, circ, proc)
//	res, err := pl.Estimate(ctx, maest.WithTrackSharing(true))
//	cmap, err := pl.Congestion(ctx)   // reuses the compiled stats
type (
	// Plan is an immutable compiled circuit: memoized statistics and
	// the process every estimator executes against.  Safe for
	// concurrent use.
	Plan = engine.Plan
	// EngineOption mutates the engine's execution options.
	EngineOption = engine.Option
)

// Compile compiles a circuit against a process into a Plan under a
// "compile" span.
func Compile(ctx context.Context, c *Circuit, p *Process) (*Plan, error) {
	return engine.CompileCtx(ctx, c, p)
}

// EstimatePlans estimates already-compiled plans concurrently,
// preserving plan order (WithWorkers sizes the pool).
func EstimatePlans(ctx context.Context, plans []*Plan, opts ...EngineOption) ([]*Result, error) {
	return engine.EstimatePlans(ctx, plans, opts...)
}

// Execution options for Plan methods and the engine entry points.

// WithRows fixes the standard-cell row count (0 = §5 initialization).
func WithRows(rows int) EngineOption { return engine.WithRows(rows) }

// WithTrackSharing enables the Eq. 10/11 track-sharing refinement.
func WithTrackSharing(on bool) EngineOption { return engine.WithTrackSharing(on) }

// WithFCMode selects the Full-Custom device-area mode.
func WithFCMode(mode FCMode) EngineOption { return engine.WithFCMode(mode) }

// WithWorkers sets the chip-estimate worker count (≤ 0 GOMAXPROCS).
func WithWorkers(n int) EngineOption { return engine.WithWorkers(n) }

// WithCongestModel selects the congestion demand model.
func WithCongestModel(m CongestModel) EngineOption { return engine.WithCongestModel(m) }

// WithGridded selects the gridded full-custom congestion variant.
func WithGridded(on bool) EngineOption { return engine.WithGridded(on) }

// WithCandidates sets the candidate-shape count for Plan.Candidates.
func WithCandidates(count int) EngineOption { return engine.WithCandidates(count) }

// ECO re-estimation: Plan.Delta(edits...) produces the plan for the
// edited circuit while reusing every compiled intermediate the edits
// provably do not touch — bit-identical to recompiling from scratch,
// at a fraction of the cost.
//
//	child, err := pl.Delta(maest.ConnectPin("g7", "net3"))
//	res, err := child.Estimate(ctx) // mostly memo hits

// ConnectPin adds one pin connecting the named device to the named
// net (created when absent).
func ConnectPin(device, net string) engine.Edit { return engine.ConnectPin(device, net) }

// RemoveCell deletes the named device instance and its pins.
func RemoveCell(name string) engine.Edit { return engine.RemoveCell(name) }

// ResizeRows overrides the row count the child plan's execute methods
// default to — equivalent to passing WithRows to every call.
func ResizeRows(rows int) engine.Edit { return engine.ResizeRows(rows) }
