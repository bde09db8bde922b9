package serve

import (
	"encoding/hex"
	"sort"
	"sync"
	"sync/atomic"

	"maest/internal/obs"
	"maest/internal/store"
)

// The trace tier: the write-behind path from the tail sampler to the
// persistent store's NSTrace namespace.  A kept trace's flight record
// is enqueued here by instrument(); the writeBehind writer encodes it
// with the obs trace codec and appends it to the store off the latency
// path.  Like the result tier, a trace dropped under backpressure
// costs history, not correctness — the drop counter says how much.
//
// The tier also owns the trace index: an in-memory map from trace id
// to the store keys of that trace's hops, plus a bounded recent-hops
// list for /debug/traces scans.  The index is rebuilt from a store
// scan at startup, which is what lets GET /debug/trace/{id} answer for
// a trace sampled before the last restart.
var (
	mTraceWrites = obs.DefCounter("maest_trace_store_writes_total", "sampled traces persisted to the trace store")
	mTraceErrs   = obs.DefCounter("maest_trace_store_errors_total", "trace persists that failed (encode or store append)")
	mTraceDrops  = obs.DefCounter("maest_trace_store_dropped_total", "sampled traces dropped because the queue was full or the tier was flushing")
	gTraceQueue  = obs.DefGauge("maest_trace_store_queue", "trace write-behind queue depth")
	gTraceIndex  = obs.DefGauge("maest_trace_store_indexed", "trace hops resident in the in-memory index")
)

const (
	// traceQueueCap bounds pending persists; beyond it, sampled traces
	// are dropped (counted) rather than blocking the request path.
	traceQueueCap = 4096
	// traceIndexCap bounds the in-memory hop index.  The store keeps
	// everything until its own eviction; the index only caps what
	// /debug/traces can enumerate without touching disk.
	traceIndexCap = 65536
)

// traceEntry is one persisted hop in the in-memory index — just
// enough to answer an index scan without reading the store.
type traceEntry struct {
	key      store.Key
	trace    [16]byte
	endpoint string
	status   int
	micros   int64
	unixNano int64
}

// traceTier wraps the trace store with the write-behind queue and the
// hop index.  A nil *traceTier is the disabled tier: every method is
// a no-op, the same idiom as the nil *storeTier.
type traceTier struct {
	st *store.Store
	q  *writeBehind[obs.FlightRecord]

	idxMu   sync.RWMutex
	byTrace map[[16]byte][]store.Key
	entries []traceEntry // oldest first, bounded by traceIndexCap

	writes atomic.Int64
	errs   atomic.Int64
}

// newTraceTier rebuilds the hop index from the store's NSTrace
// namespace and starts the writer goroutine.
func newTraceTier(st *store.Store) *traceTier {
	t := &traceTier{st: st, byTrace: make(map[[16]byte][]store.Key)}
	t.rebuildIndex()
	t.q = newWriteBehind(traceQueueCap, mTraceDrops, gTraceQueue, t.persist)
	return t
}

// rebuildIndex scans NSTrace and re-derives the in-memory index —
// newest hops win the bounded capacity.
func (t *traceTier) rebuildIndex() {
	var entries []traceEntry
	_ = t.st.Scan(store.NSTrace, func(key store.Key, payload []byte) error {
		rec, err := obs.DecodeTrace(payload)
		if err != nil {
			return nil // a rotten payload loses one hop, not the index
		}
		var trace [16]byte
		copy(trace[:], key[:16])
		entries = append(entries, traceEntry{
			key:      key,
			trace:    trace,
			endpoint: rec.Endpoint,
			status:   rec.Status,
			micros:   rec.Micros,
			unixNano: rec.Time.UnixNano(),
		})
		return nil
	})
	// Scan order is map order; the index wants time order so capacity
	// eviction drops the oldest history.
	sort.Slice(entries, func(i, j int) bool { return entries[i].unixNano < entries[j].unixNano })
	if len(entries) > traceIndexCap {
		entries = entries[len(entries)-traceIndexCap:]
	}
	t.idxMu.Lock()
	t.entries = entries
	for _, e := range entries {
		t.byTrace[e.trace] = append(t.byTrace[e.trace], e.key)
	}
	gTraceIndex.Set(float64(len(t.entries)))
	t.idxMu.Unlock()
}

// persist encodes one flight record and appends it under its hop key.
func (t *traceTier) persist(rec obs.FlightRecord) {
	key, ok := traceHopKey(rec.Trace, rec.Span)
	if !ok {
		t.errs.Add(1)
		mTraceErrs.Inc()
		return
	}
	payload := obs.EncodeTrace(nil, &rec)
	if err := t.st.Put(store.NSTrace, key, payload); err != nil {
		t.errs.Add(1)
		mTraceErrs.Inc()
		return
	}
	t.writes.Add(1)
	mTraceWrites.Inc()
	t.indexAdd(traceEntry{
		key:      key,
		trace:    [16]byte(key[:16]),
		endpoint: rec.Endpoint,
		status:   rec.Status,
		micros:   rec.Micros,
		unixNano: rec.Time.UnixNano(),
	})
}

// traceHopKey builds the NSTrace store key for one hop: trace id (16
// bytes) + span id (8 bytes) + zero padding, so a distributed trace's
// hops share a key prefix.
func traceHopKey(traceID, spanID string) (store.Key, bool) {
	var k store.Key
	if len(traceID) != 32 || len(spanID) != 16 {
		return k, false
	}
	if _, err := hex.Decode(k[:16], []byte(traceID)); err != nil {
		return k, false
	}
	if _, err := hex.Decode(k[16:24], []byte(spanID)); err != nil {
		return k, false
	}
	return k, true
}

// hexTraceID renders a raw trace id the way the W3C header spells it.
func hexTraceID(t [16]byte) string { return hex.EncodeToString(t[:]) }

// indexAdd appends one hop, evicting the oldest when the index is full.
func (t *traceTier) indexAdd(e traceEntry) {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	for len(t.entries) >= traceIndexCap {
		old := t.entries[0]
		t.entries = t.entries[1:]
		keys := t.byTrace[old.trace]
		for i, k := range keys {
			if k == old.key {
				keys = append(keys[:i], keys[i+1:]...)
				break
			}
		}
		if len(keys) == 0 {
			delete(t.byTrace, old.trace)
		} else {
			t.byTrace[old.trace] = keys
		}
	}
	t.entries = append(t.entries, e)
	t.byTrace[e.trace] = append(t.byTrace[e.trace], e.key)
	gTraceIndex.Set(float64(len(t.entries)))
}

// enqueue hands one kept trace to the writer, dropping it (with a
// counter) when the queue is full or the tier is flushing.
func (t *traceTier) enqueue(rec obs.FlightRecord) {
	if t == nil {
		return
	}
	t.q.enqueue(rec)
}

// sync blocks until every trace enqueued so far has reached the store,
// without stopping intake.
func (t *traceTier) sync() {
	if t == nil {
		return
	}
	t.q.sync()
}

// flush stops intake and blocks until the queue has drained.  Call
// before closing the store; safe to call more than once.
func (t *traceTier) flush() {
	if t == nil {
		return
	}
	t.q.flush()
}

// getTrace reads every persisted hop of one trace back from the store,
// decoded, sorted by time then span id.  The bool reports whether the
// trace id parsed and the index knew it.
func (t *traceTier) getTrace(traceID string) ([]*obs.FlightRecord, bool) {
	if t == nil {
		return nil, false
	}
	var trace [16]byte
	if len(traceID) != 32 {
		return nil, false
	}
	if _, err := hex.Decode(trace[:], []byte(traceID)); err != nil {
		return nil, false
	}
	t.idxMu.RLock()
	keys := append([]store.Key(nil), t.byTrace[trace]...)
	t.idxMu.RUnlock()
	if len(keys) == 0 {
		return nil, false
	}
	var hops []*obs.FlightRecord
	for _, k := range keys {
		b, ok, err := t.st.Get(store.NSTrace, k)
		if err != nil || !ok {
			continue
		}
		rec, err := obs.DecodeTrace(b)
		if err != nil {
			continue
		}
		hops = append(hops, rec)
	}
	sortHops(hops)
	return hops, len(hops) > 0
}

// sortHops orders a stitched trace's hops by wall time, span id
// breaking ties — the stable order both the live and post-restart
// renderings share.
func sortHops(hops []*obs.FlightRecord) {
	sort.Slice(hops, func(i, j int) bool {
		if !hops[i].Time.Equal(hops[j].Time) {
			return hops[i].Time.Before(hops[j].Time)
		}
		return hops[i].Span < hops[j].Span
	})
}

// query scans the hop index newest-first: hops matching the endpoint
// (when non-empty), at least minMicros long, at or after sinceUnix
// seconds, up to limit.
func (t *traceTier) query(endpoint string, minMicros, sinceUnix int64, limit int) []traceEntry {
	if t == nil || limit <= 0 {
		return nil
	}
	t.idxMu.RLock()
	defer t.idxMu.RUnlock()
	out := make([]traceEntry, 0, limit)
	for i := len(t.entries) - 1; i >= 0 && len(out) < limit; i-- {
		e := t.entries[i]
		if endpoint != "" && e.endpoint != endpoint {
			continue
		}
		if e.micros < minMicros {
			continue
		}
		if sinceUnix > 0 && e.unixNano < sinceUnix*1e9 {
			continue
		}
		out = append(out, e)
	}
	return out
}

// indexed returns the number of hops resident in the index.
func (t *traceTier) indexed() int {
	if t == nil {
		return 0
	}
	t.idxMu.RLock()
	defer t.idxMu.RUnlock()
	return len(t.entries)
}

// TraceTierStats is the trace tier's counters block, surfaced in
// /debug/traces and the bench telemetry snapshot.
type TraceTierStats struct {
	Writes  int64 `json:"writes"`
	Errors  int64 `json:"errors"`
	Dropped int64 `json:"dropped"`
	Indexed int   `json:"indexed"`
}

func (t *traceTier) tierStats() (TraceTierStats, bool) {
	if t == nil {
		return TraceTierStats{}, false
	}
	return TraceTierStats{
		Writes:  t.writes.Load(),
		Errors:  t.errs.Load(),
		Dropped: t.q.droppedCount(),
		Indexed: t.indexed(),
	}, true
}
