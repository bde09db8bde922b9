// Package obs is the zero-dependency observability layer of the
// estimator: hierarchical wall-clock spans propagated through
// context.Context, a process-wide metrics registry with
// Prometheus-style text exposition, and pprof profiling helpers.
//
// The paper's whole pitch is speed (< 1.5 CPU s per Full-Custom
// module, < 3 CPU s per Standard-Cell module, Tables 1–2), so the
// pipeline must be measurable without being slowed down: when no
// trace sink is installed in the context, Start returns a nil *Span
// whose methods are all no-ops, and the disabled path performs no
// allocations (enforced by this package's tests and benchmarks).
//
// Typical use:
//
//	sink := obs.NewJSONL(file)
//	ctx := obs.WithSink(context.Background(), sink)
//	ctx, sp := obs.Start(ctx, "estimate")
//	sp.SetString("module", name)
//	... work, possibly calling obs.Start(ctx, ...) for children ...
//	sp.End()
package obs

import (
	"context"
	"sync/atomic"
	"time"
)

// Attr is one key/value pair attached to a span. Value is one of
// string, int64, or float64 — kept as `any` to avoid three parallel
// slices, but never anything else.
type Attr struct {
	Key   string
	Value any
}

// SpanData is the immutable record handed to a Sink when a span ends.
type SpanData struct {
	// ID and ParentID link the span tree; ParentID is 0 for roots.
	ID, ParentID uint64
	Name         string
	Start        time.Time
	Duration     time.Duration
	// Depth is the nesting level (0 for roots) — sinks can indent
	// without reconstructing the tree.
	Depth int
	Attrs []Attr
	// Err holds the error message when the span ended in failure.
	Err string
}

// Sink receives completed spans. Implementations must be safe for
// concurrent use: EstimatePlans workers end spans from many
// goroutines.
type Sink interface {
	Record(d *SpanData)
}

// Span is one timed region of the pipeline. A nil *Span is valid and
// every method on it is a no-op, so instrumented code never checks
// for enablement. A non-nil Span must be used by a single goroutine
// (concurrency is expressed by child spans, not by sharing one).
type Span struct {
	sink     Sink
	name     string
	start    time.Time
	id       uint64
	parentID uint64
	depth    int
	attrs    []Attr
	err      string
	ended    bool
}

type (
	spanKey struct{}
	sinkKey struct{}
)

var lastID atomic.Uint64

// WithSink returns a context whose spans are recorded into sink.
// Installing a nil sink disables tracing for the subtree.
func WithSink(ctx context.Context, sink Sink) context.Context {
	return context.WithValue(ctx, sinkKey{}, sink)
}

// SinkFrom returns the sink spans started from ctx would record to
// (nil when tracing is disabled).
func SinkFrom(ctx context.Context) Sink {
	if sp, ok := ctx.Value(spanKey{}).(*Span); ok && sp != nil {
		return sp.sink
	}
	if s, ok := ctx.Value(sinkKey{}).(Sink); ok {
		return s
	}
	return nil
}

// Start begins a span named name as a child of the span in ctx (or a
// root when there is none) and returns a derived context carrying the
// new span. When ctx has no sink installed it returns (ctx, nil)
// without allocating — the disabled fast path.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	var (
		sink     Sink
		parentID uint64
		depth    int
	)
	if parent, ok := ctx.Value(spanKey{}).(*Span); ok && parent != nil {
		sink, parentID, depth = parent.sink, parent.id, parent.depth+1
	} else if s, ok := ctx.Value(sinkKey{}).(Sink); ok {
		sink = s
	}
	if sink == nil {
		return ctx, nil
	}
	sp := &Span{
		sink:     sink,
		name:     name,
		start:    time.Now(),
		id:       lastID.Add(1),
		parentID: parentID,
		depth:    depth,
	}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// SetInt attaches an integer counter to the span.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{key, v})
}

// SetFloat attaches a float value to the span.
func (s *Span) SetFloat(key string, v float64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{key, v})
}

// SetString attaches a string value to the span.
func (s *Span) SetString(key, v string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{key, v})
}

// End completes the span and records it into the sink. Ending twice
// records once.
func (s *Span) End() { s.EndErr(nil) }

// EndErr completes the span, tagging it with err when non-nil — the
// usual pattern is `defer func() { sp.EndErr(err) }()` over a named
// return.
func (s *Span) EndErr(err error) {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	if err != nil {
		s.err = err.Error()
	}
	s.sink.Record(&SpanData{
		ID:       s.id,
		ParentID: s.parentID,
		Name:     s.name,
		Start:    s.start,
		Duration: time.Since(s.start),
		Depth:    s.depth,
		Attrs:    s.attrs,
		Err:      s.err,
	})
}
