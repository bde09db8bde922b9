// Package distmemo is the process-wide memo of the standard-cell
// estimator's two pure functions of small keys: the §4.1 row-span
// quantities of internal/prob, keyed by (n, D), and Eq. 11's rounded
// feed-through expectation, keyed by (H, p).
//
// Different modules, and different edit states of one module in an ECO
// loop, ask for the same keys constantly, so this package shares the
// values across every compiled plan in the process.  Congestion
// distributions are not memoized here: each engine Plan keeps its own.
//
// The memo is sharded (16 ways, hashed by key) so concurrent plans do
// not serialize on one lock, and size-bounded per shard (oldest-first
// eviction) so a long-lived service cannot grow it without bound.
// Every value is the one internal/prob computed, so a hit is
// bit-identical to calling prob directly.
package distmemo

import (
	"math"
	"sync"

	"maest/internal/obs"
	"maest/internal/prob"
)

// Memo metrics.  The hit ratio is the ECO loop's headline number: a
// re-estimate after an edit that preserves the degree histogram
// should be all hits.
var (
	mSpanHits    = obs.DefCounter("maest_distmemo_rowspan_hits_total", "row-span memo hits")
	mSpanMisses  = obs.DefCounter("maest_distmemo_rowspan_misses_total", "row-span memo misses")
	mSpanEvicted = obs.DefCounter("maest_distmemo_rowspan_evictions_total", "row-span memo evictions")
	mFeedHits    = obs.DefCounter("maest_distmemo_feedthrough_hits_total", "feed-through count memo hits")
	mFeedMisses  = obs.DefCounter("maest_distmemo_feedthrough_misses_total", "feed-through count memo misses")
	mFeedEvicted = obs.DefCounter("maest_distmemo_feedthrough_evictions_total", "feed-through count memo evictions")
)

const (
	numShards = 16
	// spanShardCap bounds each shard to 512 row-span entries (8192
	// process-wide); an entry is one float and one int.
	spanShardCap = 512
	// feedShardCap bounds each shard to 512 feed-through expectations
	// (8192 process-wide); an entry is a single int.
	feedShardCap = 512
)

// shard is one lock-striped slice of a memo table: a map plus the
// insertion-ordered key list oldest-first eviction walks.
type shard[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]V
	order   []K
	cap     int
	evicted *obs.Counter
}

func (s *shard[K, V]) get(k K) (V, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.entries[k]
	return v, ok
}

func (s *shard[K, V]) put(k K, v V) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.entries == nil {
		s.entries = make(map[K]V, s.cap)
	}
	if _, dup := s.entries[k]; dup {
		// A racing duplicate computation: keep the resident value so
		// every caller that already holds it stays consistent.
		return
	}
	if len(s.order) >= s.cap {
		oldest := s.order[0]
		s.order = s.order[1:]
		delete(s.entries, oldest)
		s.evicted.Inc()
	}
	s.entries[k] = v
	s.order = append(s.order, k)
}

func (s *shard[K, V]) purge() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = nil
	s.order = nil
}

var (
	spanShards [numShards]shard[spanKey, *spanEntry]
	feedShards [numShards]shard[feedKey, int]
)

func init() {
	for i := range spanShards {
		spanShards[i].cap = spanShardCap
		spanShards[i].evicted = mSpanEvicted
	}
	for i := range feedShards {
		feedShards[i].cap = feedShardCap
		feedShards[i].evicted = mFeedEvicted
	}
}

// spanKey identifies one row-span computation.
type spanKey struct {
	n, d int
}

// spanEntry memoizes both row-span quantities of one (n, D) together,
// so a TracksForNet lookup after an ExpectedRowSpan lookup is free.
type spanEntry struct {
	e      float64
	tracks int
}

func spanShard(k spanKey) *shard[spanKey, *spanEntry] {
	return &spanShards[(uint64(k.n)*31+uint64(k.d))%numShards]
}

// rowSpanEntry resolves (and memoizes) the full row-span quantity set
// for one (n, D).  Errors are never cached: the defined-error paths
// of internal/prob are cheap and callers expect fresh wrapping.
func rowSpanEntry(n, d int) (*spanEntry, error) {
	k := spanKey{n: n, d: d}
	if e, ok := spanShard(k).get(k); ok {
		mSpanHits.Inc()
		return e, nil
	}
	mSpanMisses.Inc()
	ev, err := prob.ExpectedRowSpan(n, d)
	if err != nil {
		return nil, err
	}
	tracks, err := prob.TracksForNet(n, d)
	if err != nil {
		return nil, err
	}
	e := &spanEntry{e: ev, tracks: tracks}
	spanShard(k).put(k, e)
	return e, nil
}

// ExpectedRowSpan returns prob.ExpectedRowSpan(n, D), memoized.  The
// value is the one prob computed — bit-identical to calling prob
// directly.
func ExpectedRowSpan(n, d int) (float64, error) {
	e, err := rowSpanEntry(n, d)
	if err != nil {
		return 0, err
	}
	return e.e, nil
}

// TracksForNet returns prob.TracksForNet(n, D), memoized.
func TracksForNet(n, d int) (int, error) {
	e, err := rowSpanEntry(n, d)
	if err != nil {
		return 0, err
	}
	return e.tracks, nil
}

// feedKey identifies one Eq. 11 feed-through expectation: the
// routable-net count H and the exact bits of the central-row
// probability p (a pure function of the row count, but keying on the
// float keeps the memo correct for any caller-supplied p).
type feedKey struct {
	h     int
	pBits uint64
}

func feedShard(k feedKey) *shard[feedKey, int] {
	return &feedShards[(uint64(k.h)*31^k.pBits)%numShards]
}

// FeedThroughsCeil returns prob.FeedThroughsCeil(h, p), memoized.
// Eq. 11 sums the full Eq. 10 binomial law — O(H) Lgamma/Exp calls —
// to honor the paper's derivation, which makes it the costliest term
// of a warm standard-cell estimate; an ECO loop revisits the same
// (H, p) pairs constantly.
func FeedThroughsCeil(h int, p float64) (int, error) {
	k := feedKey{h: h, pBits: math.Float64bits(p)}
	if v, ok := feedShard(k).get(k); ok {
		mFeedHits.Inc()
		return v, nil
	}
	mFeedMisses.Inc()
	v, err := prob.FeedThroughsCeil(h, p)
	if err != nil {
		// Errors are never cached, as elsewhere in this package.
		return 0, err
	}
	feedShard(k).put(k, v)
	return v, nil
}

// Purge empties every memo table.  Tests and benchmarks use it to
// measure cold paths; production code never needs it (the tables are
// size-bounded).
func Purge() {
	for i := range spanShards {
		spanShards[i].purge()
	}
	for i := range feedShards {
		feedShards[i].purge()
	}
}
