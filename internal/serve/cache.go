// Package serve is the long-lived estimation service: the Fig. 1
// pipeline (circuit schematic + process database in, estimate record
// out) behind an HTTP/JSON API, with a content-addressed plan cache
// and the production robustness — concurrency limiting, per-request
// timeouts, request-size limits, graceful shutdown — that the
// floorplanner-in-a-loop workload needs.  Floorplanning search loops
// re-evaluate the same module netlists thousands of times per design
// iteration; the cache turns every repeat into a hash lookup.
package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"fmt"
	"sync"

	"maest/internal/congest"
	"maest/internal/core"
	"maest/internal/engine"
	"maest/internal/netlist"
	"maest/internal/obs"
)

// Cache metrics.  The plan LRU is the service's one in-memory cache; a
// cached plan's memo holds every estimate and congestion map computed
// against it, so the estimate and congestion hit ratios count answers
// served from a plan's memo — the serving layer's headline numbers,
// monitored per endpoint family.
var (
	mPlanHits      = obs.DefCounter("maest_serve_plan_cache_hits_total", "compiled-plan cache hits")
	mPlanMisses    = obs.DefCounter("maest_serve_plan_cache_misses_total", "compiled-plan cache misses")
	mPlanEvictions = obs.DefCounter("maest_serve_plan_cache_evictions_total", "compiled-plan cache LRU evictions")
	gPlanEntries   = obs.DefGauge("maest_serve_plan_cache_entries", "compiled-plan cache resident entries")
	mEstimateHits  = obs.DefCounter("maest_serve_cache_hits_total", "estimate answers served from a cached plan's memo")
	mEstimateMiss  = obs.DefCounter("maest_serve_cache_misses_total", "estimate answers missing from the plan's memo")
	mCongestHits   = obs.DefCounter("maest_serve_congest_cache_hits_total", "congestion maps served from a cached plan's memo")
	mCongestMiss   = obs.DefCounter("maest_serve_congest_cache_misses_total", "congestion maps missing from the plan's memo")
)

// Key is a content address: SHA-256 over the canonical form of the
// circuit plus whatever else the addressed answer depends on.  Two
// requests with the same key are guaranteed the same answer.
type Key [sha256.Size]byte

// String returns the key in hex, for logs and debugging.
func (k Key) String() string { return fmt.Sprintf("%x", k[:]) }

// CacheKey computes the content address of an estimate request: the
// circuit's canonical rendering (engine.AppendCanonicalCircuit) plus
// the process name and estimator options.  The rendering sorts ports
// and devices by name, so the key is invariant under comments,
// whitespace, and declaration order in the source netlist (the
// estimators themselves are order-invariant, so order-insensitive keys
// are safe and catch strictly more repeats).
func CacheKey(c *netlist.Circuit, processName string, opts core.SCOptions) Key {
	return resultKey(canonMidstate(c), processName, opts.Rows, opts.TrackSharing)
}

// midstate is the SHA-256 state after hashing a circuit's canonical
// rendering (crypto/sha256's MarshalBinary form): the shared prefix of
// every answer key about that circuit, so a resident plan can finish
// any of them without rendering again.
type midstate []byte

// midstateOf hashes a canonical rendering and returns the state.
func midstateOf(canon []byte) midstate {
	h := sha256.New()
	h.Write(canon)
	mid, err := h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic(err) // crypto/sha256 always marshals
	}
	return mid
}

// canonMidstate renders c canonically into a pooled buffer and returns
// the rendering's midstate.
func canonMidstate(c *netlist.Circuit) midstate {
	buf := canonPool.Get().(*[]byte)
	*buf = engine.AppendCanonicalCircuit((*buf)[:0], c)
	mid := midstateOf(*buf)
	canonPool.Put(buf)
	return mid
}

// canonPool recycles canonical renderings and source-alias frames,
// which live only until they are hashed.
var canonPool = sync.Pool{New: func() any { return new([]byte) }}

// resultKey is CacheKey finished from a rendering's midstate.
func resultKey(mid midstate, processName string, rows int, sharing bool) Key {
	return keyOf(mid, "process %s\nrows %d\nsharing %t\n", processName, rows, sharing)
}

// congestKey is the content address of a congestion analysis, finished
// from a rendering's midstate: the same canonical rendering as CacheKey
// plus every knob the map depends on (process, row count, grid variant,
// demand model, capacity and feed budget).
func congestKey(mid midstate, processName string, rows int, gridded bool, opts congest.Options) Key {
	return keyOf(mid, "congest %s\nrows %d\ngridded %t\nmodel %s\ncapacity %d\nfeedbudget %d\n",
		processName, rows, gridded, opts.Model, opts.Capacity, opts.FeedBudget)
}

// keyOf resumes a rendering's midstate and appends the formatted knobs:
// the one derivation of every answer key.
func keyOf(mid midstate, knobs string, args ...any) Key {
	h := sha256.New()
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(mid); err != nil {
		panic(err) // mid came from midstateOf
	}
	fmt.Fprintf(h, knobs, args...)
	var k Key
	h.Sum(k[:0])
	return k
}

// sourceAlias is the alias key of one circuit source: SHA-256 over the
// resolved process name, format, module name and raw netlist text —
// everything the parse route reads.  Each field is length-prefixed so
// no two distinct tuples frame the same bytes.
func sourceAlias(procName, format, name, source string) Key {
	buf := canonPool.Get().(*[]byte)
	b := (*buf)[:0]
	for _, f := range [...]string{procName, format, name, source} {
		b = binary.AppendUvarint(b, uint64(len(f)))
		b = append(b, f...)
	}
	k := Key(sha256.Sum256(b))
	*buf = b
	canonPool.Put(buf)
	return k
}

// PlanCache is a fixed-capacity LRU from plan content address
// (engine.PlanHash) to compiled plan, so every endpoint asking about
// the same circuit under the same process shares one compile — and,
// through the plan's memo, every answer computed against it.  Beside
// the plan keys it keeps at most one source alias per resident plan
// (sourceAlias → the plan's entry), so a repeated request body finds
// its plan without a parse; an alias only ever points at a key the
// canonical route computed, and leaves with its plan.  All methods are
// safe for concurrent use, and a nil *PlanCache is a well-defined
// disabled cache (lookups miss, stores keep nothing).
type PlanCache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recent; values are *planEntry
	entries  map[Key]*list.Element
	aliases  map[Key]*list.Element
}

type planEntry struct {
	key  Key
	plan *engine.Plan
	// alias is the source alias naming this entry and mid the midstate
	// of its canonical rendering; both are set together, mid == nil
	// meaning no alias.
	alias Key
	mid   midstate
}

// NewPlanCache returns a plan cache holding at most capacity plans;
// capacity < 1 returns the nil (disabled) cache.
func NewPlanCache(capacity int) *PlanCache {
	if capacity < 1 {
		return nil
	}
	return &PlanCache{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[Key]*list.Element, capacity),
		aliases:  make(map[Key]*list.Element, capacity),
	}
}

// Get returns the plan cached under k, marking it most recently used.
func (c *PlanCache) Get(k Key) (*engine.Plan, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		mPlanMisses.Inc()
		return nil, false
	}
	c.order.MoveToFront(el)
	mPlanHits.Inc()
	return el.Value.(*planEntry).plan, true
}

// Put caches pl under k, evicting the least recently used plan when
// the cache is full, and returns the plan now resident under k.  A
// plan already cached under k wins and is refreshed: equal keys mean
// equivalent plans, and the resident one's memo holds the answers
// computed so far.
func (c *PlanCache) Put(k Key, pl *engine.Plan) *engine.Plan {
	if c == nil {
		return pl
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*planEntry).plan
	}
	c.entries[k] = c.order.PushFront(&planEntry{key: k, plan: pl})
	if c.order.Len() > c.capacity {
		oldest := c.order.Remove(c.order.Back()).(*planEntry)
		delete(c.entries, oldest.key)
		if oldest.mid != nil {
			delete(c.aliases, oldest.alias)
		}
		mPlanEvictions.Inc()
	}
	gPlanEntries.Set(float64(c.order.Len()))
	return pl
}

// lookupAlias returns the plan a source alias names, with the plan's
// key and rendering midstate, marking it most recently used.  A hit
// counts as a plan-cache hit; a miss counts nothing, because the
// caller falls through to Get.
func (c *PlanCache) lookupAlias(a Key) (pl *engine.Plan, k Key, mid midstate, ok bool) {
	if c == nil {
		return nil, k, nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.aliases[a]
	if !ok {
		return nil, k, nil, false
	}
	c.order.MoveToFront(el)
	mPlanHits.Inc()
	e := el.Value.(*planEntry)
	return e.plan, e.key, e.mid, true
}

// setAlias points source alias a at the plan resident under k, whose
// rendering hashes to mid, replacing that entry's previous alias.  It
// is a no-op when k is no longer resident.  A source always parses to
// the same plan key, so a never names two entries.
func (c *PlanCache) setAlias(a, k Key, mid midstate) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		return
	}
	e := el.Value.(*planEntry)
	if e.mid != nil {
		delete(c.aliases, e.alias)
	}
	e.alias, e.mid = a, mid
	c.aliases[a] = el
}

// Len returns the number of resident plans.
func (c *PlanCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
