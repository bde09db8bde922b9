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
//	circ, err := maest.ParseMnet(file)
//	pl, err := maest.Compile(circ, proc)
//	res, err := pl.Estimate(ctx)
//	fmt.Println(res.SC.Area, res.FCExact.Area)
package maest

import (
	"context"
	"io"

	"maest/internal/baseline"
	"maest/internal/cells"
	"maest/internal/congest"
	"maest/internal/core"
	"maest/internal/db"
	"maest/internal/engine"
	"maest/internal/floorplan"
	"maest/internal/gen"
	"maest/internal/geom"
	"maest/internal/hdl"
	"maest/internal/layout"
	"maest/internal/metrics"
	"maest/internal/netlist"
	"maest/internal/obs"
	"maest/internal/pla"
	"maest/internal/place"
	"maest/internal/prob"
	"maest/internal/route"
	"maest/internal/serve"
	"maest/internal/sim"
	"maest/internal/tech"
)

// Geometry units (Mead–Conway λ grid).
type (
	// Lambda is a length in λ.
	Lambda = geom.Lambda
	// Area is a surface in λ².
	Area = geom.Area
)

// Technology database.
type (
	// Process is a fabrication-process database entry.
	Process = tech.Process
	// Device is one fabricable device type.
	Device = tech.Device
)

// NMOS25 returns the built-in nMOS λ=2.5µm process (the paper's
// evaluation technology).
func NMOS25() *Process { return tech.NMOS25() }

// CMOS30 returns the built-in generic CMOS process.
func CMOS30() *Process { return tech.CMOS30() }

// LookupProcess returns a built-in process by name ("nmos25",
// "cmos30").
func LookupProcess(name string) (*Process, error) { return tech.Lookup(name) }

// ReadProcess parses exactly one process from its text serialization.
func ReadProcess(r io.Reader) (*Process, error) { return tech.ReadOne(r) }

// WriteProcess serializes a process.
func WriteProcess(w io.Writer, p *Process) error { return tech.Write(w, p) }

// Circuit model.
type (
	// Circuit is a flat module netlist.
	Circuit = netlist.Circuit
	// CircuitBuilder assembles circuits programmatically.  Its by-name
	// index lives only as long as the build: a built circuit is
	// unindexed, and Circuit's DeviceByName, NetByName and PortByName
	// scan.
	CircuitBuilder = netlist.Builder
	// Stats are the §4 estimator inputs gathered from a circuit.
	Stats = netlist.Stats
	// PortDir is an external port direction.
	PortDir = netlist.PortDir
)

// Port directions.
const (
	In    = netlist.In
	Out   = netlist.Out
	InOut = netlist.InOut
)

// NewCircuitBuilder starts a circuit with the given module name.
func NewCircuitBuilder(name string) *CircuitBuilder { return netlist.NewBuilder(name) }

// GatherStats scans a circuit against a process and returns the
// estimator inputs (N, H, Wᵢ, Xᵢ, yᵢ, ports).
func GatherStats(c *Circuit, p *Process) (*Stats, error) { return netlist.Gather(c, p) }

// HDL front end.

// ParseMnet parses a module in the .mnet structural netlist language.
func ParseMnet(r io.Reader) (*Circuit, error) { return hdl.ParseMnet(r) }

// WriteMnet serializes a circuit in .mnet form.
func WriteMnet(w io.Writer, c *Circuit) error { return hdl.WriteMnet(w, c) }

// ParseBench parses an ISCAS-style .bench gate-level file, mapping
// its gates onto the process cell library.
func ParseBench(r io.Reader, name string, p *Process) (*Circuit, error) {
	return hdl.ParseBench(r, name, p)
}

// ParseVerilog parses a structural gate-level Verilog subset
// (Verilog-1985 primitives), mapping onto the process cell library.
func ParseVerilog(r io.Reader, p *Process) (*Circuit, error) {
	return hdl.ParseVerilog(r, p)
}

// WriteVerilog serializes a gate-level circuit as structural Verilog.
func WriteVerilog(w io.Writer, c *Circuit) error { return hdl.WriteVerilog(w, c) }

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
	// SCEstimate is a Standard-Cell estimation result (Eq. 12/14).
	SCEstimate = core.SCEstimate
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

// EstimateStandardCell runs the §4.1 Standard-Cell estimator on
// gathered statistics.
func EstimateStandardCell(s *Stats, p *Process, opts SCOptions) (*SCEstimate, error) {
	return core.EstimateStandardCell(s, p, opts)
}

// EstimateStandardCellCandidates returns several candidate shapes
// around the initial row count (the paper's §7 multi-shape output).
func EstimateStandardCellCandidates(s *Stats, p *Process, opts SCOptions, count int) ([]*SCEstimate, error) {
	return core.EstimateStandardCellCandidates(s, p, opts, count)
}

// EstimateStandardCellProfiled runs the Standard-Cell estimator with
// the per-row feed-through profile refinement (full Eq. 4/5 at every
// row instead of the central-row two-component bound).
func EstimateStandardCellProfiled(s *Stats, p *Process, opts SCOptions) (*SCEstimate, error) {
	return core.EstimateStandardCellProfiled(s, p, opts)
}

// FeedThroughProfile is the per-row expected feed-through count.
type FeedThroughProfile = core.FeedThroughProfile

// FeedThroughRowProfile computes each row's expected feed-through
// count for a module's net-degree histogram over n rows.
func FeedThroughRowProfile(s *Stats, n int) (*FeedThroughProfile, error) {
	return core.FeedThroughRowProfile(s, n)
}

// EstimateFullCustom runs the §4.2 Full-Custom estimator on a
// transistor-level circuit.
func EstimateFullCustom(c *Circuit, p *Process, mode FCMode) (*FCEstimate, error) {
	return core.EstimateFullCustom(c, p, mode)
}

// Ground-truth layout flow (the evaluation substrate).
type (
	// LayoutModule is a measured module layout.
	LayoutModule = layout.Module
	// Placement is a legal row placement.
	Placement = place.Placement
	// PlaceOptions configures the annealing placer.
	PlaceOptions = place.Options
	// RouteOptions configures the channel router.
	RouteOptions = route.Options
	// RouteResult is a routing outcome.
	RouteResult = route.Result
)

// PlaceCircuit places a circuit into rows with simulated annealing.
func PlaceCircuit(c *Circuit, p *Process, opts PlaceOptions) (*Placement, error) {
	return place.Place(c, p, opts)
}

// RoutePlacement channel-routes a placement.
func RoutePlacement(pl *Placement, opts RouteOptions) (*RouteResult, error) {
	return route.RouteModule(pl, opts)
}

// LayoutStandardCell places, routes, and measures a standard-cell
// module (the TimberWolf stand-in of Table 2).
func LayoutStandardCell(c *Circuit, p *Process, rows int, seed int64) (*LayoutModule, error) {
	return layout.LayoutStandardCell(c, p, rows, seed)
}

// SynthesizeFullCustom constructs and measures a transistor-level
// layout (the manual-layout stand-in of Table 1).
func SynthesizeFullCustom(c *Circuit, p *Process, seed int64) (*LayoutModule, error) {
	return layout.SynthesizeFullCustom(c, p, seed)
}

// Detailed geometry and interchange.
type (
	// DetailedRouting is a full per-track channel-routing result.
	DetailedRouting = route.Detailed
	// Geometry is a module's concrete rectangle-level layout.
	Geometry = layout.Geometry
)

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

// WritePlanSVG renders a floor plan as an SVG document.
func WritePlanSVG(w io.Writer, plan *FloorPlan, scale float64) error {
	return floorplan.WriteSVG(w, plan, scale)
}

// DRCViolation is one design-rule violation found in a geometry.
type DRCViolation = layout.DRCViolation

// CheckDRC runs the design-rule checks over a module geometry.
func CheckDRC(g *Geometry, p *Process) []DRCViolation { return layout.CheckDRC(g, p) }

// WriteBench serializes a gate-level circuit in ISCAS .bench form.
func WriteBench(w io.Writer, c *Circuit) error { return hdl.WriteBench(w, c) }

// Estimate database and floor planning.
type (
	// EstimateDB is the floor planner's input database.
	EstimateDB = db.Database
	// ModuleRecord is one module's estimates in the database.
	ModuleRecord = db.Module
	// ShapeRecord is one candidate module shape.
	ShapeRecord = db.Shape
	// CongestionRecord is a module's congestion-map summary in the
	// database (the `congest` directive).
	CongestionRecord = db.Congestion
	// GlobalNet is a chip-level net between module ports.
	GlobalNet = db.GlobalNet
	// GlobalPin is one endpoint of a global net.
	GlobalPin = db.GlobalPin
	// FloorPlan is a finished slicing floor plan.
	FloorPlan = floorplan.Plan
	// Chip is a multi-module design.
	Chip = gen.Chip
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

// GlobalRouteResult is a chip-level wiring estimate over a plan.
type GlobalRouteResult = floorplan.GlobalRouteResult

// GlobalRoute estimates the chip-level wiring demand of a floor plan's
// global nets on a grid×grid congestion map.
func GlobalRoute(nets []FloorplanNet, plan *FloorPlan, p *Process, grid int) (*GlobalRouteResult, error) {
	return floorplan.GlobalRoute(nets, plan, p, grid)
}

// Floor planning: the slicing search over modules that each carry a
// compiled engine Plan (shape candidates from Plan.Candidates and a
// routability term from the per-channel overflow probabilities) or a
// fixed shape list, annealed under a move budget.
type (
	// PlanModule is one module entering the planner: a compiled plan
	// or fixed shapes, exactly one of the two.
	PlanModule = floorplan.PlanModule
	// FloorplanShape is one fixed candidate shape of a PlanModule.
	FloorplanShape = floorplan.Shape
	// FloorplanNet is a chip-level net between annealer modules.
	FloorplanNet = floorplan.Net
	// FloorplanNetPin is one endpoint of a FloorplanNet.
	FloorplanNetPin = floorplan.NetPin
	// FloorplanOption tunes the annealer (seed, budget, weights).
	FloorplanOption = floorplan.Option
	// FloorplanProgress is one annealer progress report.
	FloorplanProgress = floorplan.Progress
	// ModuleCongest is one module's congestion detail in a plan.
	ModuleCongest = floorplan.ModuleCongest
	// ChannelRisk is one routing channel's overflow probability.
	ChannelRisk = floorplan.ChannelRisk
	// FloorplanStats summarizes one annealer search.
	FloorplanStats = floorplan.SearchStats
)

// PlanModules floor-plans modules with the annealer; nets weight the
// wire-length and routability cost terms.  WithBudget(0) gives the
// deterministic greedy slicing pass.
func PlanModules(ctx context.Context, chip string, mods []PlanModule, nets []FloorplanNet, opts ...FloorplanOption) (*FloorPlan, error) {
	return floorplan.PlanModules(ctx, chip, mods, nets, opts...)
}

// WritePlanText renders a plan in the canonical text form — the
// deterministic, byte-stable rendering golden tests diff.
func WritePlanText(w io.Writer, plan *FloorPlan) error { return floorplan.WritePlanText(w, plan) }

// WithCongestWeight weights the routability term of the anneal cost.
func WithCongestWeight(w float64) FloorplanOption { return floorplan.WithCongestWeight(w) }

// WithWireWeight weights the wire-length term of the anneal cost.
func WithWireWeight(w float64) FloorplanOption { return floorplan.WithWireWeight(w) }

// WithFloorplanSeed fixes the annealer's random source.
func WithFloorplanSeed(seed int64) FloorplanOption { return floorplan.WithSeed(seed) }

// WithBudget sets the annealer's move budget (< 0 = greedy).
func WithBudget(moves int) FloorplanOption { return floorplan.WithBudget(moves) }

// WithFloorplanCandidates sets the shape-candidate count requested
// from each Plan (the engine-level WithCandidates analogue).
func WithFloorplanCandidates(count int) FloorplanOption { return floorplan.WithCandidates(count) }

// WithFloorplanTrackSharing toggles the Eq. 10/11 refinement for the
// annealer's candidate shapes.
func WithFloorplanTrackSharing(on bool) FloorplanOption { return floorplan.WithTrackSharing(on) }

// WithProgress registers a per-move progress callback.
func WithProgress(fn func(FloorplanProgress)) FloorplanOption { return floorplan.WithProgress(fn) }

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
func RandomChip(cfg ChipConfig, p *Process) (*Chip, error) { return gen.RandomChip(cfg, p) }

// Chain returns a k-inverter chain circuit, the simplest
// 2-component-net workload.
func Chain(name string, k int, p *Process) (*Circuit, error) { return gen.Chain(name, k, p) }

// FullCustomSuite returns the five Table-1-style benchmark modules.
func FullCustomSuite(p *Process) ([]*Circuit, error) { return gen.FullCustomSuite(p) }

// StandardCellSuite returns the two Table-2-style benchmark modules.
func StandardCellSuite(p *Process) ([]*Circuit, error) { return gen.StandardCellSuite(p) }

// Probability machinery (paper §4.1), exposed for analysis tools.

// ExpectedRowSpan returns E(i) of Eqs. 2–3: the expected number of
// rows spanned by a D-component net over n rows.
func ExpectedRowSpan(n, D int) (float64, error) { return prob.ExpectedRowSpan(n, D) }

// FeedThroughProb returns the probability that a D-component net
// needs a feed-through in row i of n (Eqs. 4–5 closed form).
func FeedThroughProb(n, D, i int) (float64, error) { return prob.FeedThroughProb(n, D, i) }

// CentralFeedThroughProb returns Eq. 9, the central-row feed-through
// probability under the two-component-net model.
func CentralFeedThroughProb(n int) (float64, error) { return prob.CentralFeedThroughProb(n) }

// RowSpanVariance returns Var(i) of the Eq. 2 row-span distribution —
// the second-moment extension to the paper's expectations.
func RowSpanVariance(n, D int) (float64, error) { return prob.RowSpanVariance(n, D) }

// TrackInterval returns mean ± z·σ bounds on the total track count of
// a net-degree histogram over n rows.
func TrackInterval(n int, degreeCount map[int]int, z float64) (mean, lo, hi float64, err error) {
	return prob.TrackInterval(n, degreeCount, z)
}

// Baselines.
type (
	// PLESTModel is the density-calibrated comparator of §2.
	PLESTModel = baseline.PLESTModel
	// PLA parameterizes the Gerveshi PLA area model.
	PLA = baseline.PLA
)

// NaiveEstimate is the active-area×factor rule of thumb.
func NaiveEstimate(s *Stats, factor float64) (float64, error) { return baseline.Naive(s, factor) }

// CalibratePLEST measures channel density from real layouts of the
// training circuits and returns the PLEST-style model.
func CalibratePLEST(train []*Circuit, p *Process, rows int, seed int64) (*PLESTModel, error) {
	return baseline.CalibratePLEST(train, p, rows, seed)
}

// PLA substrate (the Gerveshi [1] linear-area context).
type (
	// PLAPersonality is a PLA programming matrix that can be lowered
	// to a transistor netlist.
	PLAPersonality = pla.Personality
)

// RandomPLA generates a seeded random PLA personality.
func RandomPLA(inputs, outputs, terms int, density float64, seed int64) (*PLAPersonality, error) {
	return pla.Random(inputs, outputs, terms, density, seed)
}

// Interconnect-complexity metrics.
type (
	// DegreeStats summarizes a circuit's net-degree distribution.
	DegreeStats = metrics.DegreeStats
	// RentResult is a fitted Rent's-rule model.
	RentResult = metrics.RentResult
)

// CircuitDegrees computes the net-degree statistics of a circuit.
func CircuitDegrees(c *Circuit) *DegreeStats { return metrics.Degrees(c) }

// EvalCircuit evaluates a combinational gate-level circuit on an
// input assignment (net name → value) and returns every net's value —
// the equivalence-checking simulator the mapper is verified with.
func EvalCircuit(c *Circuit, inputs map[string]bool) (map[string]bool, error) {
	return sim.Eval(c, inputs)
}

// RentExponent estimates the circuit's Rent exponent by recursive
// bisection over a connectivity-order chunking.
func RentExponent(c *Circuit) (*RentResult, error) { return metrics.Rent(c) }

// RentExponentFM estimates the Rent exponent with recursive
// Fiduccia–Mattheyses min-cut bisection (higher-quality partitions).
func RentExponentFM(c *Circuit, seed int64) (*RentResult, error) {
	return metrics.RentFM(c, seed)
}

// Bipart is a two-way min-cut partition of a circuit's devices.
type Bipart = metrics.Bipart

// Bipartition splits the device subset (nil = all) into two balanced
// halves with a Fiduccia–Mattheyses min-cut pass.
func Bipartition(c *Circuit, subset []int, seed int64) (*Bipart, error) {
	return metrics.Bipartition(c, subset, seed)
}

// Observability: hierarchical spans, a process-wide metrics registry,
// and profiling hooks across the estimate/place/route pipeline.  Pass
// a context prepared with WithTraceSink to CompileCtx, the Plan
// methods, PlanModules or any of the *Ctx variants below and every
// stage records a span; without a sink the
// instrumentation is free (nil-span fast path, no allocations).
type (
	// TraceSink receives completed spans; implementations must be
	// concurrency-safe.
	TraceSink = obs.Sink
	// TraceSpan is one timed pipeline region (nil is a valid no-op).
	TraceSpan = obs.Span
	// TraceSpanData is the record a sink receives per span.
	TraceSpanData = obs.SpanData
	// TraceAttr is one key/value pair attached to a span.
	TraceAttr = obs.Attr
	// TreeTraceSink accumulates spans and renders a summary tree.
	TreeTraceSink = obs.TreeSink
	// JSONLTraceSink streams spans as JSON lines.
	JSONLTraceSink = obs.JSONLSink
	// MetricsRegistry holds counters, gauges, and histograms with
	// Prometheus-style text exposition.
	MetricsRegistry = obs.Registry
)

// WithTraceSink returns a context whose pipeline spans record to sink.
func WithTraceSink(ctx context.Context, sink TraceSink) context.Context {
	return obs.WithSink(ctx, sink)
}

// StartSpan opens a span for caller-side work (library users nesting
// their own stages among the pipeline's).
func StartSpan(ctx context.Context, name string) (context.Context, *TraceSpan) {
	return obs.Start(ctx, name)
}

// NewJSONLTraceSink returns a sink writing one JSON line per span.
func NewJSONLTraceSink(w io.Writer) *JSONLTraceSink { return obs.NewJSONL(w) }

// NewTreeTraceSink returns an accumulating sink whose WriteTree
// renders the human-readable span summary tree.
func NewTreeTraceSink() *TreeTraceSink { return obs.NewTree() }

// MultiTraceSink fans spans out to several sinks (nil sinks dropped).
func MultiTraceSink(sinks ...TraceSink) TraceSink { return obs.Multi(sinks...) }

// Metrics returns the process-wide registry the pipeline records
// into.
func Metrics() *MetricsRegistry { return obs.Default }

// WriteMetrics emits every pipeline metric in the Prometheus text
// exposition format.
func WriteMetrics(w io.Writer) error { return obs.Default.WritePrometheus(w) }

// StartCPUProfile begins a pprof CPU profile into path; call the
// returned stop function to finish it.
func StartCPUProfile(path string) (stop func() error, err error) {
	return obs.StartCPUProfile(path)
}

// WriteHeapProfile snapshots the live heap into path.
func WriteHeapProfile(path string) error { return obs.WriteHeapProfile(path) }

// Context-carrying variants of the pipeline entry points.  Each is
// identical to its plain counterpart plus span/metric recording under
// the context's trace sink.

// EstimateStandardCellProfiledCtx is EstimateStandardCellProfiled
// with observability.
func EstimateStandardCellProfiledCtx(ctx context.Context, s *Stats, p *Process, opts SCOptions) (*SCEstimate, error) {
	return core.EstimateStandardCellProfiledCtx(ctx, s, p, opts)
}

// ParseMnetCtx, ParseBenchCtx and ParseVerilogCtx are the front-end
// parsers with observability.
func ParseMnetCtx(ctx context.Context, r io.Reader) (*Circuit, error) {
	return hdl.ParseMnetCtx(ctx, r)
}

// ParseBenchCtx is ParseBench with observability.
func ParseBenchCtx(ctx context.Context, r io.Reader, name string, p *Process) (*Circuit, error) {
	return hdl.ParseBenchCtx(ctx, r, name, p)
}

// ParseVerilogCtx is ParseVerilog with observability.
func ParseVerilogCtx(ctx context.Context, r io.Reader, p *Process) (*Circuit, error) {
	return hdl.ParseVerilogCtx(ctx, r, p)
}

// PlaceCircuitCtx is PlaceCircuit with observability (annealing
// statistics on the "place" span).
func PlaceCircuitCtx(ctx context.Context, c *Circuit, p *Process, opts PlaceOptions) (*Placement, error) {
	return place.PlaceCtx(ctx, c, p, opts)
}

// RoutePlacementCtx is RoutePlacement with observability.
func RoutePlacementCtx(ctx context.Context, pl *Placement, opts RouteOptions) (*RouteResult, error) {
	return route.RouteModuleCtx(ctx, pl, opts)
}

// LayoutStandardCellCtx is LayoutStandardCell with observability.
func LayoutStandardCellCtx(ctx context.Context, c *Circuit, p *Process, rows int, seed int64) (*LayoutModule, error) {
	return layout.LayoutStandardCellCtx(ctx, c, p, rows, seed)
}

// SynthesizeFullCustomCtx is SynthesizeFullCustom with observability.
func SynthesizeFullCustomCtx(ctx context.Context, c *Circuit, p *Process, seed int64) (*LayoutModule, error) {
	return layout.SynthesizeFullCustomCtx(ctx, c, p, seed)
}

// Serving: the estimator behind an HTTP/JSON API (cmd/maest-serve)
// with a content-addressed plan cache, concurrency limiting,
// per-request deadlines, and graceful shutdown.  The handler is
// exported so the service can be embedded in a larger mux.
type (
	// ServeOptions configures the estimation service handler.
	ServeOptions = serve.Options
	// EstimateServer is the HTTP handler serving /v1/estimate,
	// /v1/estimate/batch, /healthz, and /metrics.
	EstimateServer = serve.Server
	// EstimateCacheKey is the SHA-256 identity of one estimation
	// question (canonicalized circuit + process + options).
	EstimateCacheKey = serve.Key
	// EstimateRequest is the POST /v1/estimate wire payload.
	EstimateRequest = serve.EstimateRequest
	// EstimateResponse is one module's wire answer.
	EstimateResponse = serve.EstimateResponse
	// BatchEstimateRequest is the POST /v1/estimate/batch payload.
	BatchEstimateRequest = serve.BatchRequest
	// BatchEstimateResponse answers a batch in request order.
	BatchEstimateResponse = serve.BatchResponse
)

// NewEstimateServer returns the estimation service handler.
func NewEstimateServer(opts ServeOptions) *EstimateServer { return serve.New(opts) }

// CacheKeyFor computes the content-addressed identity of one
// estimation question: the same circuit (however its source text was
// ordered or commented), process, and options always map to the same
// key.
func CacheKeyFor(c *Circuit, processName string, opts SCOptions) EstimateCacheKey {
	return serve.CacheKey(c, processName, opts)
}

// Request telemetry (the observatory): a lock-cheap flight recorder
// of recent requests, per-endpoint latency quantiles, and histogram
// quantile estimation.  The service populates these automatically
// (ServeOptions.FlightSize / ServeOptions.AccessLog); they are
// exported so embedders can mount EstimateServer.DebugHandler or run
// their own recorder.
type (
	// FlightRecorder is a fixed-capacity ring of recent request
	// records; a nil recorder is a valid disabled no-op.
	FlightRecorder = obs.Flight
	// FlightRecord is one recorded request: identity, outcome,
	// per-stage durations, and a span-tree summary.
	FlightRecord = obs.FlightRecord
	// FlightStage is one named stage duration inside a request.
	FlightStage = obs.FlightStage
	// FlightSpan is one summarized span of a request's trace tree.
	FlightSpan = obs.FlightSpan
	// MetricHistogram is a registry histogram; its Quantile method
	// estimates p50/p90/p99 by interpolation within buckets.
	MetricHistogram = obs.Histogram
	// ServeEndpointLatency is one endpoint's latency distribution
	// summary (count, mean, p50/p90/p99).
	ServeEndpointLatency = serve.EndpointLatency
)

// NewFlightRecorder returns a flight recorder keeping the most recent
// capacity request records (capacity < 1 returns the nil no-op).
func NewFlightRecorder(capacity int) *FlightRecorder { return obs.NewFlight(capacity) }

// ServeLatencySummary reports every service endpoint's latency
// distribution from the process-wide histograms.
func ServeLatencySummary() []ServeEndpointLatency { return serve.LatencySummary() }

// Congestion analysis: the probabilistic routability subsystem
// (internal/congest).  It refines the Eq. 2–3 / Eq. 4–11 expectations
// into per-channel track-demand distributions and emits a congestion
// map — utilization, overflow probability, feed-through pressure, and
// ranked hotspots — for standard-cell rows and the gridded
// full-custom variant of the Eq. 13 model.
type (
	// CongestModel selects the per-channel demand accounting.
	CongestModel = congest.Model
	// CongestOptions configures a congestion analysis.
	CongestOptions = congest.Options
	// CongestMap is one module's congestion map.
	CongestMap = congest.Map
	// CongestChannel is one routing channel's demand picture.
	CongestChannel = congest.Channel
	// CongestRowFeeds is one row's feed-through pressure.
	CongestRowFeeds = congest.RowFeeds
	// CongestHotspot is one ranked congestion risk.
	CongestHotspot = congest.Hotspot
	// CongestValidation scores a predicted map against a routed
	// layout's channel assignments.
	CongestValidation = congest.Validation
	// CongestionRequest is the POST /v1/congestion wire payload.
	CongestionRequest = serve.CongestionRequest
	// CongestionResponse is one module's congestion wire answer.
	CongestionResponse = serve.CongestionResponse
)

// The congestion demand models: CongestOccupancy is the paper's own
// Eq. 2–3 accounting (total expected demand equals the Eq. 3 track
// expectation); CongestCrossing matches the spine router's channel
// usage and is the model validated against routed layouts.
const (
	CongestOccupancy = congest.ModelOccupancy
	CongestCrossing  = congest.ModelCrossing
)

// ParseCongestModel resolves a demand-model name ("occupancy",
// "crossing", or empty for the default) for flags and request fields.
func ParseCongestModel(s string) (CongestModel, error) { return congest.ParseModel(s) }

// AnalyzeCongestion builds the congestion map of a module's gathered
// statistics over rows standard-cell rows.
func AnalyzeCongestion(s *Stats, rows int, opts CongestOptions) (*CongestMap, error) {
	return congest.Analyze(s, rows, opts)
}

// AnalyzeCongestionCtx is AnalyzeCongestion with observability.
func AnalyzeCongestionCtx(ctx context.Context, s *Stats, rows int, opts CongestOptions) (*CongestMap, error) {
	return congest.AnalyzeCtx(ctx, s, rows, opts)
}

// AnalyzeGridCongestion builds the gridded full-custom congestion map
// (gridRows 0 selects the ⌈√N⌉ default).
func AnalyzeGridCongestion(s *Stats, gridRows int, opts CongestOptions) (*CongestMap, error) {
	return congest.AnalyzeGrid(s, gridRows, opts)
}

// AnalyzeGridCongestionCtx is AnalyzeGridCongestion with
// observability.
func AnalyzeGridCongestionCtx(ctx context.Context, s *Stats, gridRows int, opts CongestOptions) (*CongestMap, error) {
	return congest.AnalyzeGridCtx(ctx, s, gridRows, opts)
}

// ValidateCongestion scores a predicted congestion map against the
// channel assignments of a routed layout.
func ValidateCongestion(m *CongestMap, routed *RouteResult) (*CongestValidation, error) {
	return congest.ValidateRoute(m, routed)
}

// InitialRowCount exposes the §5 row-count initialization, the row
// count the estimator would pick automatically for a module.
func InitialRowCount(s *Stats, p *Process) int { return core.InitialRows(s, p) }

// CongestKeyFor computes the content-addressed identity of one
// congestion question, the /v1/congestion analogue of CacheKeyFor.
func CongestKeyFor(c *Circuit, processName string, rows int, gridded bool, opts CongestOptions) EstimateCacheKey {
	return serve.CongestKey(c, processName, rows, gridded, opts)
}

// The estimation engine (internal/engine): a compile/execute split
// over the paper's estimators.  Compile runs the input-dependent work
// once — netlist statistics, degree classes, technology constants —
// into an immutable, content-addressed Plan; every estimator then
// executes against the plan, memoizing per-configuration results.
// Anything asking more than one question about the same circuit
// (candidate sweeps, congestion after an estimate, a floorplanner
// loop) should compile once and share the plan.
//
//	pl, err := maest.Compile(circ, proc)
//	res, err := pl.Estimate(ctx, maest.WithTrackSharing(true))
//	cmap, err := pl.Congestion(ctx)   // reuses the compiled stats
type (
	// Plan is an immutable compiled circuit: memoized statistics and
	// tech constants every estimator executes against.  Safe for
	// concurrent use.
	Plan = engine.Plan
	// PlanConstants are the technology-scaled constants a plan
	// resolves at compile time.
	PlanConstants = engine.Constants
	// PlanHash is the SHA-256 content address of a plan (canonical
	// circuit plus process serialization).
	PlanHash = engine.Hash
	// EngineOption mutates the engine's execution options.
	EngineOption = engine.Option
	// EngineOptions is the consolidated execution-option set behind
	// the With* constructors.
	EngineOptions = engine.Options
	// CongestDistributions are a plan's per-channel demand and
	// per-row feed-through distributions — the expensive convolution
	// half of a congestion analysis, reusable across scoring options.
	CongestDistributions = congest.Distributions
	// PlanCache is the serving layer's LRU over compiled plans.
	PlanCache = serve.PlanCache
)

// Compile compiles a circuit against a process into a Plan.
func Compile(c *Circuit, p *Process) (*Plan, error) { return engine.Compile(c, p) }

// CompileCtx is Compile with observability (a "compile" span).
func CompileCtx(ctx context.Context, c *Circuit, p *Process) (*Plan, error) {
	return engine.CompileCtx(ctx, c, p)
}

// PlanHashFor computes the content address a circuit/process pair
// compiles to, without compiling.
func PlanHashFor(c *Circuit, p *Process) PlanHash { return engine.PlanHash(c, p) }

// WriteCanonicalCircuit emits the deterministic, order-normalized
// circuit rendering plan hashes and serving-cache keys build on.
func WriteCanonicalCircuit(w io.Writer, c *Circuit) { engine.WriteCanonicalCircuit(w, c) }

// AppendCanonicalCircuit appends the same canonical rendering to a
// byte slice — the allocation-free form for callers hashing many
// circuits through one reused buffer.
func AppendCanonicalCircuit(dst []byte, c *Circuit) []byte {
	return engine.AppendCanonicalCircuit(dst, c)
}

// EstimatePlans estimates already-compiled plans concurrently,
// preserving plan order (WithWorkers sizes the pool).
func EstimatePlans(ctx context.Context, plans []*Plan, opts ...EngineOption) ([]*Result, error) {
	return engine.EstimatePlans(ctx, plans, opts...)
}

// NewPlanCache returns an LRU over compiled plans holding up to
// capacity entries (capacity < 1 disables caching).
func NewPlanCache(capacity int) *PlanCache { return serve.NewPlanCache(capacity) }

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

// WithCapacity sets the per-channel track capacity for congestion
// scoring (0 = uncapacitated).
func WithCapacity(tracks int) EngineOption { return engine.WithCapacity(tracks) }

// WithFeedBudget sets the per-row feed-through budget for congestion
// scoring (0 = unbudgeted).
func WithFeedBudget(feeds int) EngineOption { return engine.WithFeedBudget(feeds) }

// WithGridded selects the gridded full-custom congestion variant.
func WithGridded(on bool) EngineOption { return engine.WithGridded(on) }

// WithCandidates sets the candidate-shape count for Plan.Candidates.
func WithCandidates(count int) EngineOption { return engine.WithCandidates(count) }

// ECO re-estimation: the typed edit algebra behind Plan.Delta.
// Plan.Delta(edits...) produces the plan for the edited circuit while
// reusing every compiled intermediate the edits provably do not touch
// — bit-identical to recompiling from scratch, at a fraction of the
// cost.
//
//	child, err := pl.Delta(maest.ConnectPin("g7", "net3"))
//	res, err := child.Estimate(ctx) // mostly memo hits
type (
	// Edit is one step of the ECO edit algebra; build values with
	// AddNet, RemoveNet, ConnectPin, DisconnectPin, AddCell,
	// RemoveCell, ResizeRows, and SwapProcess.
	Edit = engine.Edit
	// RowSpans optionally overrides where the standard-cell kernel's
	// Eq. 2–3 row-span quantities and Eq. 11 feed-through expectation
	// come from; implementations must be bit-identical to the direct
	// computation.
	RowSpans = core.RowSpans
)

// AddNet creates a new net connecting the named devices.
func AddNet(name string, devices ...string) Edit { return engine.AddNet(name, devices...) }

// RemoveNet deletes the named net and every device pin on it; nets
// reaching a module port cannot be removed.
func RemoveNet(name string) Edit { return engine.RemoveNet(name) }

// ConnectPin adds one pin connecting the named device to the named
// net (created when absent).
func ConnectPin(device, net string) Edit { return engine.ConnectPin(device, net) }

// DisconnectPin removes the named device's last pin on the named net.
func DisconnectPin(device, net string) Edit { return engine.DisconnectPin(device, net) }

// AddCell adds a device instance of the given type connected to the
// named nets in pin order.
func AddCell(name, typ string, nets ...string) Edit { return engine.AddCell(name, typ, nets...) }

// RemoveCell deletes the named device instance and its pins.
func RemoveCell(name string) Edit { return engine.RemoveCell(name) }

// ResizeRows overrides the row count the child plan's execute methods
// default to — equivalent to passing WithRows to every call.
func ResizeRows(rows int) Edit { return engine.ResizeRows(rows) }

// SwapProcess retargets the module at a different process; Delta
// falls back to a full recompile for it.
func SwapProcess(p *Process) Edit { return engine.SwapProcess(p) }

// ApplyEdits applies a script's structural edits to a clone of the
// circuit — the reference semantics Plan.Delta is differentially
// tested against.
func ApplyEdits(c *Circuit, edits ...Edit) (*Circuit, error) {
	return engine.ApplyEdits(c, edits...)
}

// Estimator error taxonomy, exposed so callers can branch on failure
// classes (the serving layer maps ErrEstimate to HTTP 422).
var (
	// ErrEstimate tags every estimator failure.
	ErrEstimate = core.ErrEstimate
	// ErrCongest tags every congestion-analysis failure.
	ErrCongest = congest.ErrCongest
	// ErrCandidateCount reports a non-positive candidate count.
	ErrCandidateCount = core.ErrCandidateCount
	// ErrCandidateRange reports a candidate count exceeding the
	// feasible row range of the module.
	ErrCandidateRange = core.ErrCandidateRange
	// ErrPortInfeasible reports that no candidate shape offers the
	// module's ports enough perimeter.
	ErrPortInfeasible = core.ErrPortInfeasible
)

// SweepStandardCellShapes is the lenient candidate-sweep kernel
// behind EstimateStandardCellCandidates: it clamps the row window to
// feasible values instead of erroring, which is what a bundle
// estimate wants.  Callers needing strict validation should use
// EstimateStandardCellCandidates.
func SweepStandardCellShapes(s *Stats, p *Process, opts SCOptions, count int) ([]*SCEstimate, error) {
	return core.SweepStandardCellShapes(s, p, opts, count)
}

// ComputeCongestDistributions builds the per-channel and per-row
// demand distributions of one congestion question — the half of the
// analysis that depends only on (stats, rows, gridded, model).
func ComputeCongestDistributions(s *Stats, rows int, gridded bool, model CongestModel) (*CongestDistributions, error) {
	return congest.ComputeDistributions(s, rows, gridded, model)
}

// AnalyzeCongestDistributions scores precomputed distributions into a
// congestion map under the given capacity/feed-budget options.
func AnalyzeCongestDistributions(d *CongestDistributions, opts CongestOptions) (*CongestMap, error) {
	return congest.AnalyzeDistributions(d, opts)
}

// AnalyzeCongestDistributionsCtx is AnalyzeCongestDistributions with
// observability.
func AnalyzeCongestDistributionsCtx(ctx context.Context, d *CongestDistributions, opts CongestOptions) (*CongestMap, error) {
	return congest.AnalyzeDistributionsCtx(ctx, d, opts)
}

// CongestGridRows returns the default ⌈√N⌉ row count of the gridded
// full-custom congestion model for a module's statistics.
func CongestGridRows(s *Stats) int { return congest.GridRows(s) }
