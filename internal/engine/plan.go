package engine

import (
	"context"
	"crypto/sha256"
	"encoding"
	"fmt"
	"hash"
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

// Midstate is the SHA-256 state after a circuit's canonical rendering,
// in crypto/sha256's binary form: the prefix the plan hash and every
// answer key about the circuit finish from.  A Plan carries it inline.
type Midstate [4 + 8*4 + sha256.BlockSize + 8]byte // magic, state words, pending block, length

// Canon is a circuit's canonical derivation under one process, made by
// one sort, one render and one SHA-256 pass: the canonical (name-
// sorted) port and device orders, the rendering's midstate, and the
// plan hash, which is that midstate resumed with the process bytes —
// SHA-256(rendering ‖ tech.Append(process)).  CompileCanon builds the
// Plan from it without deriving any of this again.
type Canon struct {
	circ        *netlist.Circuit
	proc        *tech.Process
	procBlob    []byte
	ports, devs []int32
	mid         Midstate
	hash        Hash
}

// Canonicalize derives c's canonical form under p and appends the
// rendering to dst.  The rendering sorts ports and devices by name, so
// it and every hash of it are invariant under comments, whitespace and
// declaration order; it is .mnet-like, but allows generated "$" names.
// With p nil only the midstate is meaningful: such a Canon must not be
// compiled.  Neither c nor p may change while the Canon is in use.
func Canonicalize(dst []byte, c *netlist.Circuit, p *tech.Process) (Canon, []byte) {
	k := Canon{circ: c, proc: p}
	if p != nil {
		k.procBlob = tech.Append(nil, p)
	}
	k.ports, k.devs = canonOrders(c)
	dst, k.hash = seal(dst, &k.mid, c, k.procBlob, k.ports, k.devs)
	return k, dst
}

// canonicalize is Canonicalize into a pooled rendering buffer, for
// callers that need only the derived values.
func canonicalize(c *netlist.Circuit, p *tech.Process) Canon {
	buf := renderPool.Get().(*[]byte)
	k, b := Canonicalize((*buf)[:0], c, p)
	*buf = b
	renderPool.Put(buf)
	return k
}

// Hash returns the plan hash Compile assigns the circuit.
func (k *Canon) Hash() Hash { return k.hash }

// Midstate returns the state after the canonical rendering, shared
// and read-only.
func (k *Canon) Midstate() *Midstate { return &k.mid }

// PlanHash computes the content address Compile would assign, without
// compiling.  Caches probe with this before paying for compilation.
func PlanHash(c *netlist.Circuit, p *tech.Process) Hash {
	k := canonicalize(c, p)
	return k.hash
}

// seal renders c in the given orders onto dst and hashes the rendering
// once: it stores the state after it in mid and returns the plan hash,
// that state continued over procBlob (which a Delta chain shares).
func seal(dst []byte, mid *Midstate, c *netlist.Circuit, procBlob []byte, ports, devs []int32) ([]byte, Hash) {
	from := len(dst)
	dst = appendCanonicalOrdered(dst, c, ports, devs)
	h := hasherPool.Get().(hash.Hash)
	h.Reset()
	h.Write(dst[from:])
	// The state and the sum cross h's interface through dst's spare
	// capacity, heap already, so neither mid nor out escapes.
	var state []byte
	var err error
	if a, ok := h.(interface{ AppendBinary([]byte) ([]byte, error) }); ok {
		state, err = a.AppendBinary(dst[len(dst):]) // from Go 1.24 on
	} else {
		state, err = h.(encoding.BinaryMarshaler).MarshalBinary()
	}
	if err != nil || len(state) != len(mid) {
		panic("engine: unexpected SHA-256 state size")
	}
	copy(mid[:], state)
	h.Write(procBlob)
	var out Hash
	copy(out[:], h.Sum(dst[len(dst):]))
	hasherPool.Put(h)
	return dst, out
}

// renderPool and hasherPool recycle seal's rendering buffers and
// SHA-256 states: the ECO loop derives one circuit per edit.
var (
	renderPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}
	hasherPool = sync.Pool{New: func() any { return sha256.New() }}
)

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

// appendCanonicalOrdered appends the canonical rendering of c in the
// given orders.
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

// memo keys.  Every execute result is memoized under the knobs it
// depends on — nothing more, so e.g. a congestion map computed for
// the estimate's row count is shared with an explicit request for the
// same rows.
type (
	scKey struct {
		rows    int
		sharing bool
	}
	congKey struct {
		rows                 int
		gridded              bool
		model                congest.Model
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
	mid      Midstate // state after the canonical rendering; hash continues it over procBlob
	// canonPorts/canonDevs are the canonical (name-sorted) visit
	// orders behind hash; a Delta child whose script leaves the
	// element sets alone inherits them instead of re-sorting.
	canonPorts, canonDevs []int32
	cellLevel             bool // standard-cell methodology applies (library cells, not transistors)
	initialRows           int
	// nCells/nTransistors record the methodology classification so
	// Delta can re-derive it incrementally after add/remove edits.
	nCells, nTransistors int
	// defaultRows, when non-zero, overrides the row count execute
	// methods default to (the ResizeRows edit); an explicit WithRows
	// always wins.  Zero on every compiled-from-scratch plan.
	defaultRows int

	mu     sync.Mutex
	sc     map[scKey]*core.SCEstimate
	sweeps map[sweepKey][]*core.SCEstimate
	fc     [2]*core.FCEstimate // by core.FCMode
	bundle map[scKey]*core.Result
	maps   map[congKey]*congest.Map
}

// Compile builds the Plan for one circuit under one process.
func Compile(c *netlist.Circuit, p *tech.Process) (*Plan, error) {
	return CompileCtx(context.Background(), c, p)
}

// CompileCtx is Compile with observability: a "compile" span plus the
// compilation metrics.
func CompileCtx(ctx context.Context, c *netlist.Circuit, p *tech.Process) (*Plan, error) {
	k := canonicalize(c, p)
	return CompileCanon(ctx, &k)
}

// CompileCanon compiles the circuit and process a Canon was derived
// from, taking its orders, midstate and hash as they are.  Compilation
// validates the process, classifies the module's methodology (mixing
// cells and transistors in one module is rejected, as in the paper),
// gathers the §3 statistics, and clones the process — all the
// per-circuit work no execute method should ever repeat.
func CompileCanon(ctx context.Context, k *Canon) (pl *Plan, err error) {
	c, p := k.circ, k.proc
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
	pl = &Plan{
		circ:         c,
		proc:         proc,
		procBlob:     k.procBlob,
		stats:        s,
		hash:         k.hash,
		mid:          k.mid,
		canonPorts:   k.ports,
		canonDevs:    k.devs,
		cellLevel:    nCells > 0,
		nCells:       nCells,
		nTransistors: nTransistors,
		initialRows:  core.InitialRows(s, proc),
	}
	pl.initMemos(nil)
	return pl, nil
}

// initMemos allocates the execute-result memo tables for Compile and
// Delta.  A Delta child starts with its parent's congestion maps when
// the module name and degree histogram, all a map reads beyond its memo
// key, are equal.
func (pl *Plan) initMemos(parent *Plan) {
	pl.sc = make(map[scKey]*core.SCEstimate)
	pl.sweeps = make(map[sweepKey][]*core.SCEstimate)
	pl.bundle = make(map[scKey]*core.Result)
	pl.maps = make(map[congKey]*congest.Map)
	if parent != nil && pl.circ.Name == parent.circ.Name && maps.Equal(pl.stats.DegreeCount, parent.stats.DegreeCount) {
		parent.mu.Lock()
		maps.Copy(pl.maps, parent.maps)
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

// Midstate returns the state after the circuit's canonical rendering,
// shared and read-only.
func (pl *Plan) Midstate() *Midstate { return &pl.mid }

// Circuit returns the compiled circuit.  It is shared, not copied;
// treat it as read-only (mutating it invalidates the Plan).
func (pl *Plan) Circuit() *netlist.Circuit { return pl.circ }

// Process returns the Plan's private process clone (read-only).
func (pl *Plan) Process() *tech.Process { return pl.proc }

// Stats returns the §3 statistics gathered at compile time.
func (pl *Plan) Stats() *netlist.Stats { return pl.stats }

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
