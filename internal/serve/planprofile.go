package serve

import (
	"container/list"
	"sort"
	"sync"
	"time"

	"maest/internal/obs"
)

// Per-plan cost profiles: the online aggregation behind GET
// /debug/plans.  Every instrumented request that resolved to a
// compiled plan folds its outcome into that plan's profile — request
// count, latency distribution, cache/store disposition, estimate-stage
// time — so an operator can ask "which plan is eating the service"
// without replaying the access log.  Profiles live in a bounded map;
// when a fleet of one-off plans would overflow it, the least recently
// seen profile is evicted (the persistent trace store still has the
// history; this is the hot view).

// planProfileCap bounds the profile map.
const planProfileCap = 1024

// planProfile is one plan's accumulating counters.  Latency quantiles
// come from an unregistered histogram so a thousand plans do not
// pollute the Prometheus exposition.
type planProfile struct {
	plan          string
	requests      int64
	errors        int64
	cacheHits     int64
	storeHits     int64
	estimateUsSum int64
	estimateCount int64
	lat           *obs.Histogram
	lastSeen      time.Time
}

// planProfiles is the bounded profile map, an LRU in observation order.
// A nil *planProfiles is the disabled aggregator (telemetry off):
// observe is a no-op.
type planProfiles struct {
	mu    sync.Mutex
	m     map[string]*list.Element
	order *list.List // front = most recently observed; values are *planProfile
	cap   int
}

func newPlanProfiles(capacity int) *planProfiles {
	if capacity < 1 {
		capacity = planProfileCap
	}
	return &planProfiles{m: make(map[string]*list.Element, capacity), order: list.New(), cap: capacity}
}

// observe folds one finished request into its plan's profile, evicting
// the least recently observed profile when a new plan overflows the map.
func (p *planProfiles) observe(plan string, latSecs float64, failed, cacheHit, storeHit bool, stages []obs.FlightStage) {
	if p == nil || plan == "" {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var pr *planProfile
	if el, ok := p.m[plan]; ok {
		p.order.MoveToFront(el)
		pr = el.Value.(*planProfile)
	} else {
		if p.order.Len() >= p.cap {
			delete(p.m, p.order.Remove(p.order.Back()).(*planProfile).plan)
		}
		pr = &planProfile{plan: plan, lat: obs.NewHistogram(obs.DefBuckets)}
		p.m[plan] = p.order.PushFront(pr)
	}
	pr.requests++
	if failed {
		pr.errors++
	}
	if cacheHit {
		pr.cacheHits++
	}
	if storeHit {
		pr.storeHits++
	}
	for _, st := range stages {
		if st.Name == "estimate" || st.Name == "delta" || st.Name == "analyze" {
			pr.estimateUsSum += st.Micros
			pr.estimateCount++
		}
	}
	pr.lat.Observe(latSecs)
	pr.lastSeen = time.Now()
}

// PlanProfile is one plan's profile as GET /debug/plans renders it.
type PlanProfile struct {
	Plan     string `json:"plan"`
	Requests int64  `json:"requests"`
	Errors   int64  `json:"errors"`
	// CacheHitRatio counts memory- and disk-served answers together
	// (the wire's view of "cached"); StoreHitRatio is the disk share.
	CacheHits     int64   `json:"cache_hits"`
	StoreHits     int64   `json:"store_hits"`
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	StoreHitRatio float64 `json:"store_hit_ratio"`
	P50Seconds    float64 `json:"p50_seconds"`
	P99Seconds    float64 `json:"p99_seconds"`
	// MeanEstimateMicros averages the estimate/delta/analyze stage over
	// the requests that ran one (cache hits skip it).
	MeanEstimateMicros float64 `json:"mean_estimate_us"`
	LastSeenUnix       int64   `json:"last_seen_unix"`
}

// snapshot renders the profiles sorted by request count descending,
// plan hash breaking ties.
func (p *planProfiles) snapshot() []PlanProfile {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	out := make([]PlanProfile, 0, p.order.Len())
	for el := p.order.Front(); el != nil; el = el.Next() {
		pr := el.Value.(*planProfile)
		pp := PlanProfile{
			Plan:         pr.plan,
			Requests:     pr.requests,
			Errors:       pr.errors,
			CacheHits:    pr.cacheHits,
			StoreHits:    pr.storeHits,
			P50Seconds:   pr.lat.Quantile(0.50),
			P99Seconds:   pr.lat.Quantile(0.99),
			LastSeenUnix: pr.lastSeen.Unix(),
		}
		if pr.requests > 0 {
			pp.CacheHitRatio = float64(pr.cacheHits) / float64(pr.requests)
			pp.StoreHitRatio = float64(pr.storeHits) / float64(pr.requests)
		}
		if pr.estimateCount > 0 {
			pp.MeanEstimateMicros = float64(pr.estimateUsSum) / float64(pr.estimateCount)
		}
		out = append(out, pp)
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Requests != out[j].Requests {
			return out[i].Requests > out[j].Requests
		}
		return out[i].Plan < out[j].Plan
	})
	return out
}
