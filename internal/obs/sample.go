package obs

import (
	"encoding/binary"
	"sync/atomic"
)

// Tail sampling: the policy that decides which completed requests are
// worth persisting.  Head sampling (decide at the start) cannot know
// which requests will matter; deciding at the end — when the outcome
// and duration are known — keeps every error, every slow-tail request,
// and a deterministic baseline slice of ordinary traffic.
//
// The baseline keep is derived from the trace id, not a random draw:
// uint64(first 8 bytes of the trace id) < rate·2⁶⁴.  Random trace ids
// make this an unbiased rate, and determinism buys two properties a
// coin flip cannot: every hop of a distributed trace makes the same
// decision (two servers on one trace keep or drop it together, so
// stitched trees are never half-persisted), and tests can pick trace
// ids on either side of the threshold.
//
// A nil *TailSampler is the disabled policy — Keep answers false with
// no allocation and no atomic traffic — matching the nil *Flight and
// nil *Span conventions everywhere else in this package.

// Sampler metrics, process-global like every obs metric family.
var (
	mSampleSeen     = DefCounter("maest_trace_sample_seen_total", "completed requests offered to the tail sampler")
	mSampleKept     = DefCounter("maest_trace_sample_kept_total", "requests the tail sampler kept, any reason")
	mSampleErrors   = DefCounter("maest_trace_sample_kept_error_total", "requests kept because they failed")
	mSampleSlow     = DefCounter("maest_trace_sample_kept_slow_total", "requests kept because they crossed the slow threshold")
	mSampleBaseline = DefCounter("maest_trace_sample_kept_baseline_total", "requests kept by the deterministic baseline rate")
)

// SamplePolicy configures a TailSampler.
type SamplePolicy struct {
	// Rate is the baseline keep fraction in [0, 1] for requests that
	// are neither errors nor slow.  0 keeps none of them; 1 keeps all.
	Rate float64
	// SlowMicros is the duration at or above which a request is always
	// kept.  0 disables the slow-tail rule.
	SlowMicros int64
	// KeepErrors keeps every failed request regardless of Rate.
	KeepErrors bool
}

// SampleVerdict says why a request was kept.
type SampleVerdict uint8

const (
	// SampleDrop is the "not kept" verdict.
	SampleDrop SampleVerdict = iota
	// SampleError kept the request because it failed.
	SampleError
	// SampleSlow kept the request because it crossed the slow threshold.
	SampleSlow
	// SampleBaseline kept the request by the deterministic baseline rate.
	SampleBaseline
)

// String names the verdict for rendering.
func (v SampleVerdict) String() string {
	switch v {
	case SampleError:
		return "error"
	case SampleSlow:
		return "slow"
	case SampleBaseline:
		return "baseline"
	}
	return "drop"
}

// TailSampler applies one SamplePolicy.  All methods are safe for
// concurrent use; a nil *TailSampler keeps nothing and costs nothing.
type TailSampler struct {
	policy    SamplePolicy
	threshold uint64 // baseline keep when uint64(trace[:8]) < threshold

	seen, kept           atomic.Int64
	errors, slow, random atomic.Int64
}

// NewTailSampler returns a sampler for the policy, or nil (disabled)
// when the policy keeps nothing.
func NewTailSampler(p SamplePolicy) *TailSampler {
	if p.Rate <= 0 && p.SlowMicros <= 0 && !p.KeepErrors {
		return nil
	}
	t := &TailSampler{policy: p}
	switch {
	case p.Rate >= 1:
		t.threshold = ^uint64(0)
	case p.Rate > 0:
		t.threshold = uint64(p.Rate * float64(1<<63) * 2)
	}
	return t
}

// Policy returns the sampler's policy (zero value when disabled).
func (t *TailSampler) Policy() SamplePolicy {
	if t == nil {
		return SamplePolicy{}
	}
	return t.policy
}

// Keep decides a completed request's fate: trace is the request's
// trace id, micros its duration, failed whether it ended in an error.
// The rules compose most-severe first — error, then slow, then the
// baseline — so the verdict names the strongest reason.  A nil sampler
// answers SampleDrop without touching any counter.
func (t *TailSampler) Keep(trace [16]byte, micros int64, failed bool) SampleVerdict {
	if t == nil {
		return SampleDrop
	}
	t.seen.Add(1)
	mSampleSeen.Inc()
	v := SampleDrop
	switch {
	case failed && t.policy.KeepErrors:
		v = SampleError
		t.errors.Add(1)
		mSampleErrors.Inc()
	case t.policy.SlowMicros > 0 && micros >= t.policy.SlowMicros:
		v = SampleSlow
		t.slow.Add(1)
		mSampleSlow.Inc()
	case t.threshold == ^uint64(0) || binary.BigEndian.Uint64(trace[:8]) < t.threshold:
		v = SampleBaseline
		t.random.Add(1)
		mSampleBaseline.Inc()
	default:
		return SampleDrop
	}
	t.kept.Add(1)
	mSampleKept.Inc()
	return v
}

// SampleStats is a point-in-time snapshot of one sampler's counters.
type SampleStats struct {
	Seen     int64 `json:"seen"`
	Kept     int64 `json:"kept"`
	Dropped  int64 `json:"dropped"`
	Errors   int64 `json:"kept_error"`
	Slow     int64 `json:"kept_slow"`
	Baseline int64 `json:"kept_baseline"`
}

// Stats snapshots the sampler (zero value when disabled).
func (t *TailSampler) Stats() SampleStats {
	if t == nil {
		return SampleStats{}
	}
	seen, kept := t.seen.Load(), t.kept.Load()
	return SampleStats{
		Seen:     seen,
		Kept:     kept,
		Dropped:  seen - kept,
		Errors:   t.errors.Load(),
		Slow:     t.slow.Load(),
		Baseline: t.random.Load(),
	}
}
