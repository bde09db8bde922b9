package engine

import (
	"context"
	"crypto/sha256"
	"fmt"
	"maps"
	"sort"
	"sync"
	"time"

	"maest/internal/cells"
	"maest/internal/congest"
	"maest/internal/core"
	"maest/internal/netlist"
	"maest/internal/obs"
	"maest/internal/tech"
)

// Hash is the content address of a Plan: SHA-256 over the canonical
// circuit rendering plus the full process serialization.  Two plans
// with equal hashes produce bit-identical results from every execute
// method, so a cache may serve either from the other's work.
type Hash [sha256.Size]byte

// String returns the hash in hex, for logs and cache keys.
func (h Hash) String() string { return fmt.Sprintf("%x", h[:]) }

// PlanHash computes the content address Compile would assign, without
// compiling.  Caches probe with this before paying for compilation.
func PlanHash(c *netlist.Circuit, p *tech.Process) Hash {
	ports, devs := canonOrders(c)
	return hashOrdered(c, tech.Append(nil, p), ports, devs)
}

// HashCanonical is PlanHash over a circuit already rendered by
// AppendCanonicalCircuit.  Callers that derive further content
// addresses from the same rendering (the serving layer's result keys)
// render once and hash here; the value equals PlanHash's.
func HashCanonical(canon []byte, p *tech.Process) Hash {
	h := sha256.New()
	h.Write(canon)
	h.Write(tech.Append(nil, p))
	var out Hash
	h.Sum(out[:0])
	return out
}

// hashOrdered is the innermost hash: canonical orders and process
// bytes already known, one pooled rendering buffer, one SHA-256.  The
// process is invariant across a whole Delta chain, so every child hash
// reuses the parent's rendered process bytes instead of re-serializing
// the device library per edit.
func hashOrdered(c *netlist.Circuit, procBlob []byte, ports, devs []int32) Hash {
	buf := hashBufPool.Get().(*[]byte)
	b := appendCanonicalOrdered((*buf)[:0], c, ports, devs)
	b = append(b, procBlob...)
	out := Hash(sha256.Sum256(b))
	*buf = b
	hashBufPool.Put(buf)
	return out
}

// hashBufPool recycles the rendering buffers behind hashOrdered:
// the ECO loop hashes one circuit per edit, and growing a fresh
// multi-KB buffer each time dominated the delta profile.
var hashBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// AppendCanonicalCircuit appends a deterministic, order-normalized
// rendering of the circuit to dst and returns the extended slice:
// ports and devices sorted by name, so the rendering (and every hash
// derived from it) is invariant under comments, whitespace, and
// declaration order in the source netlist.  It is close to .mnet but
// not identical: generated "$" names are allowed even though WriteMnet
// refuses to emit them.
func AppendCanonicalCircuit(dst []byte, c *netlist.Circuit) []byte {
	ports, devs := canonOrders(c)
	return appendCanonicalOrdered(dst, c, ports, devs)
}

// canonOrders computes the canonical (name-sorted) visit order of a
// circuit's ports and devices, as positions into the respective
// slices.  Names are unique, so each permutation is unique — which is
// what lets a Delta child reuse its parent's orders whenever the edit
// script left the element sets alone (the common ECO case: the edit
// algebra never touches ports, and pin rewires never touch the device
// list), skipping the O(N log N) re-sort per edit.
func canonOrders(c *netlist.Circuit) (ports, devs []int32) {
	ports = make([]int32, len(c.Ports))
	for i := range ports {
		ports[i] = int32(i)
	}
	sort.Slice(ports, func(i, j int) bool { return c.Ports[ports[i]].Name < c.Ports[ports[j]].Name })
	devs = make([]int32, len(c.Devices))
	for i := range devs {
		devs[i] = int32(i)
	}
	sort.Slice(devs, func(i, j int) bool { return c.Devices[devs[i]].Name < c.Devices[devs[j]].Name })
	return ports, devs
}

// appendCanonicalOrdered is AppendCanonicalCircuit with the sorted
// orders already known.
func appendCanonicalOrdered(dst []byte, c *netlist.Circuit, ports, devs []int32) []byte {
	dst = append(dst, "module "...)
	dst = append(dst, c.Name...)
	dst = append(dst, '\n')
	for _, i := range ports {
		p := c.Ports[i]
		dst = append(dst, "port "...)
		dst = append(dst, p.Name...)
		dst = append(dst, ' ')
		dst = append(dst, p.Dir.String()...)
		dst = append(dst, ' ')
		dst = append(dst, p.Net.Name...)
		dst = append(dst, '\n')
	}
	for _, i := range devs {
		d := c.Devices[i]
		dst = append(dst, "device "...)
		dst = append(dst, d.Name...)
		dst = append(dst, ' ')
		dst = append(dst, d.Type...)
		for _, n := range d.Pins {
			if n == nil {
				dst = append(dst, " -"...)
			} else {
				dst = append(dst, ' ')
				dst = append(dst, n.Name...)
			}
		}
		dst = append(dst, '\n')
	}
	return dst
}

// Constants are the process-derived scale factors of Eq. 12–14,
// resolved once at compile time (lengths in λ).
type Constants struct {
	// RowHeight is the standard-cell row height of Eq. 12's n·h term.
	RowHeight float64
	// TrackPitch scales routing tracks into channel height (Eq. 12)
	// and full-custom wiring area (Eq. 13).
	TrackPitch float64
	// FeedThroughWidth is f_w, the width of one feed-through column.
	FeedThroughWidth float64
	// PortPitch spaces module ports along an edge (§5 control
	// criterion).
	PortPitch float64
	// AvgDeviceWidth is W_avg, the module's mean device width.
	AvgDeviceWidth float64
	// AvgDeviceHeight is the module's mean device height.
	AvgDeviceHeight float64
}

// memo keys.  Every execute result is memoized under the knobs it
// depends on — nothing more, so e.g. a congestion map computed for
// the estimate's row count is shared with an explicit request for the
// same rows.
type (
	scKey struct {
		rows    int
		sharing bool
	}
	distKey struct {
		rows    int
		gridded bool
		model   congest.Model
	}
	congKey struct {
		distKey
		capacity, feedBudget int
	}
	sweepKey struct {
		rows, count int
		sharing     bool
	}
)

// Plan is one compiled circuit + process pair: the immutable
// intermediates every estimate shares, plus memo tables for the
// results of each execute method.  A Plan is safe for concurrent use;
// the compiled inputs are never mutated after Compile returns, and
// the memos are mutex-guarded (execute methods compute outside the
// lock — a racing duplicate computation is idempotent because every
// kernel is deterministic).
type Plan struct {
	circ     *netlist.Circuit
	proc     *tech.Process // private clone; callers may mutate theirs freely
	procBlob []byte        // proc rendered once (tech.Append); reused by every Delta child hash
	stats    *netlist.Stats
	hash     Hash
	// canonPorts/canonDevs are the canonical (name-sorted) visit
	// orders behind hash; a Delta child whose script leaves the
	// element sets alone inherits them instead of re-sorting.
	canonPorts, canonDevs []int32
	cellLevel             bool // standard-cell methodology applies (library cells, not transistors)
	initialRows           int
	consts                Constants
	// nCells/nTransistors record the methodology classification so
	// Delta can re-derive it incrementally after add/remove edits.
	nCells, nTransistors int
	// defaultRows, when non-zero, overrides the row count execute
	// methods default to (the ResizeRows edit); an explicit WithRows
	// always wins.  Zero on every compiled-from-scratch plan.
	defaultRows int

	mu     sync.Mutex
	sc     map[scKey]*core.SCEstimate
	prof   map[scKey]*core.SCEstimate
	sweeps map[sweepKey][]*core.SCEstimate
	fc     [2]*core.FCEstimate // by core.FCMode
	bundle map[scKey]*core.Result
	dists  map[distKey]*congest.Distributions
	maps   map[congKey]*congest.Map
}

// Compile builds the Plan for one circuit under one process.
func Compile(c *netlist.Circuit, p *tech.Process) (*Plan, error) {
	return CompileCtx(context.Background(), c, p)
}

// CompileCtx is Compile with observability: a "compile" span plus the
// compilation metrics.  Compilation validates the process, classifies
// the module's methodology (mixing cells and transistors in one
// module is rejected, as in the paper), gathers the §3 statistics,
// and freezes the tech-scaled constants — all the per-circuit work no
// execute method should ever repeat.
func CompileCtx(ctx context.Context, c *netlist.Circuit, p *tech.Process) (pl *Plan, err error) {
	_, sp := obs.Start(ctx, "compile")
	sp.SetString("module", c.Name)
	defer func(t0 time.Time) {
		mCompileSec.Observe(time.Since(t0).Seconds())
		if err != nil {
			mCompileErr.Inc()
		} else {
			mCompiles.Inc()
			sp.SetInt("devices", int64(pl.stats.N))
			sp.SetInt("nets", int64(pl.stats.H))
			sp.SetString("plan", pl.hash.String()[:12])
		}
		sp.EndErr(err)
	}(time.Now())

	if err := p.Validate(); err != nil {
		return nil, estErr("module %q: %v", c.Name, err)
	}
	nCells, nTransistors := 0, 0
	for _, d := range c.Devices {
		dt, err := p.Device(d.Type)
		if err != nil {
			return nil, estErr("module %q: %v", c.Name, err)
		}
		if dt.Class == tech.ClassCell {
			nCells++
		} else {
			nTransistors++
		}
	}
	if nCells > 0 && nTransistors > 0 {
		return nil, estErr("module %q mixes %d cells and %d transistors; estimate them as separate modules",
			c.Name, nCells, nTransistors)
	}

	proc := p.Clone()
	s, err := netlist.Gather(c, proc)
	if err != nil {
		return nil, estErr("module %q: %v", c.Name, err)
	}
	procBlob := tech.Append(nil, proc)
	canonPorts, canonDevs := canonOrders(c)
	pl = &Plan{
		circ:         c,
		proc:         proc,
		procBlob:     procBlob,
		stats:        s,
		hash:         hashOrdered(c, procBlob, canonPorts, canonDevs),
		canonPorts:   canonPorts,
		canonDevs:    canonDevs,
		cellLevel:    nCells > 0,
		nCells:       nCells,
		nTransistors: nTransistors,
		initialRows:  core.InitialRows(s, proc),
		consts: Constants{
			RowHeight:        float64(proc.RowHeight),
			TrackPitch:       float64(proc.TrackPitch),
			FeedThroughWidth: float64(proc.FeedThroughWidth),
			PortPitch:        float64(proc.PortPitch),
			AvgDeviceWidth:   s.AvgWidth(),
			AvgDeviceHeight:  s.AvgHeight(),
		},
	}
	pl.initMemos(nil)
	return pl, nil
}

// initMemos allocates the execute-result memo tables for Compile and
// Delta.  A Delta child starts with its parent's congestion
// distributions when the degree histogram, all they depend on, is equal.
func (pl *Plan) initMemos(parent *Plan) {
	pl.sc = make(map[scKey]*core.SCEstimate)
	pl.prof = make(map[scKey]*core.SCEstimate)
	pl.sweeps = make(map[sweepKey][]*core.SCEstimate)
	pl.bundle = make(map[scKey]*core.Result)
	pl.dists = make(map[distKey]*congest.Distributions)
	pl.maps = make(map[congKey]*congest.Map)
	if parent != nil && maps.Equal(pl.stats.DegreeCount, parent.stats.DegreeCount) {
		parent.mu.Lock()
		maps.Copy(pl.dists, parent.dists)
		parent.mu.Unlock()
	}
}

// rowsFor resolves a row knob against the plan's ResizeRows default:
// an explicit row count always wins; otherwise a Delta(ResizeRows(n))
// child defaults to n the way a WithRows(n) call would.
func (pl *Plan) rowsFor(rows int) int {
	if rows != 0 || pl.defaultRows == 0 {
		return rows
	}
	return pl.defaultRows
}

// Hash returns the Plan's content address.
func (pl *Plan) Hash() Hash { return pl.hash }

// Circuit returns the compiled circuit.  It is shared, not copied;
// treat it as read-only (mutating it invalidates the Plan).
func (pl *Plan) Circuit() *netlist.Circuit { return pl.circ }

// Process returns the Plan's private process clone (read-only).
func (pl *Plan) Process() *tech.Process { return pl.proc }

// Stats returns the §3 statistics gathered at compile time.
func (pl *Plan) Stats() *netlist.Stats { return pl.stats }

// Constants returns the tech-scaled Eq. 12–14 constants.
func (pl *Plan) Constants() Constants { return pl.consts }

// CellLevel reports whether the standard-cell methodology applies
// (the module is built from library cells rather than transistors).
func (pl *Plan) CellLevel() bool { return pl.cellLevel }

// InitialRows returns the §5 initial row count frozen at compile.
func (pl *Plan) InitialRows() int { return pl.initialRows }

// DefaultRows returns the row count a Delta(ResizeRows(n)) child
// defaults its execute calls to, or 0 when the plan carries no
// override.  The default is not part of the plan's content address, so
// a cache keyed by Hash must hold only plans for which this is 0.
func (pl *Plan) DefaultRows() int { return pl.defaultRows }

// fcStats gathers the Eq. 13 inputs of the full-custom side: from the
// module itself at transistor level, or straight from its cell
// expansion, which is never built as a netlist.
func (pl *Plan) fcStats() (*netlist.FCStats, error) {
	if !pl.cellLevel {
		return netlist.GatherFC(pl.circ, pl.proc) // cannot fail: Compile resolved every device type
	}
	s, err := cells.ExpandStats(pl.circ, pl.proc)
	if err != nil {
		return nil, estErr("module %q: %v", pl.circ.Name, err)
	}
	return s, nil
}
