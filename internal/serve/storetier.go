package serve

import (
	"encoding/json"

	"maest/internal/obs"
	"maest/internal/store"
)

// The persistent tier under the plan cache.  Reads are synchronous: a
// plan-memo miss probes the store before paying for the execute, and a
// store hit is installed into the memo.  Writes are write-behind: the
// request path enqueues the computed value and the writer goroutine
// does the JSON marshal and disk append off the latency path.  The
// store is a cache of recomputable results, so a write dropped under
// backpressure costs a future recompute, not correctness.
var (
	mStoreWrites     = obs.DefCounter("maest_store_writebehind_writes_total", "results persisted by the write-behind tier")
	mStoreWriteErrs  = obs.DefCounter("maest_store_writebehind_errors_total", "write-behind persists that failed")
	mStoreWriteDrops = obs.DefCounter("maest_store_writebehind_dropped_total", "write-behind persists dropped because the queue was full")
	gStoreQueue      = obs.DefGauge("maest_store_writebehind_queue", "write-behind queue depth")
)

// storeWrite is one queued persist.  The value is kept as its in-memory
// shape; the writer goroutine marshals it so the request path never
// pays for JSON encoding.
type storeWrite struct {
	ns  store.Namespace
	key store.Key
	val any
}

// storeTier wraps an open store with its write-behind queue.  A nil
// *storeTier is a well-defined disabled tier: lookups miss, persists
// are dropped.
type storeTier struct {
	st *store.Store
	q  *writeBehind[storeWrite]
}

// newStoreTier starts the writer goroutine over an open store.
func newStoreTier(st *store.Store) *storeTier {
	t := &storeTier{st: st}
	t.q = newWriteBehind(4096, mStoreWriteDrops, gStoreQueue, t.persist)
	return t
}

func (t *storeTier) persist(w storeWrite) {
	b, err := json.Marshal(w.val)
	if err == nil {
		err = t.st.Put(w.ns, w.key, b)
	}
	if err != nil {
		mStoreWriteErrs.Inc()
		return
	}
	mStoreWrites.Inc()
}

// put persists one value under key, write-behind: the request path
// never blocks on the disk.
func (t *storeTier) put(ns store.Namespace, key Key, val any) {
	if t == nil {
		return
	}
	t.q.enqueue(storeWrite{ns: ns, key: store.Key(key), val: val})
}

// flush stops intake and blocks until every queued persist has reached
// the store.  Call before closing the store; safe to call more than once.
func (t *storeTier) flush() {
	if t == nil {
		return
	}
	t.q.flush()
}

// load probes the store for one persisted value.  A hit decodes back to
// exactly what was persisted: Go's float64 JSON round trip is exact
// (shortest-representation encode, exact parse), so the re-encoded
// answer is byte-identical to a fresh computation's — the differential
// tests enforce it.  Undecodable payloads (a schema from a future
// version, say) degrade to a miss: the service recomputes and
// overwrites.
func load[T any](t *storeTier, ns store.Namespace, key Key) (*T, bool) {
	if t == nil {
		return nil, false
	}
	b, ok, err := t.st.Get(ns, store.Key(key))
	if err != nil || !ok {
		return nil, false
	}
	v := new(T)
	if json.Unmarshal(b, v) != nil {
		return nil, false
	}
	return v, true
}

// stats snapshots the underlying store (ok=false when disabled).
func (t *storeTier) stats() (store.Stats, bool) {
	if t == nil {
		return store.Stats{}, false
	}
	return t.st.Stats(), true
}
