package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
)

// W3C Trace Context (traceparent) support: the wire format that lets a
// span tree survive a process boundary.  A floorplanner loop calling
// maest-serve — or any forwarding hop in front of it — sends
//
//	traceparent: 00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>
//
// and every hop parses it, roots its own span tree under the incoming
// trace, and re-injects its own span id as the parent for the next
// hop.  The types here are plain values (no allocation to parse or
// compare), so the disabled-telemetry path can stay zero-alloc by
// simply never calling them.

// TraceparentHeader is the canonical W3C header name (HTTP headers
// are case-insensitive; the spec spells it lowercase).
const TraceparentHeader = "traceparent"

// TraceContext is one hop's position in a distributed trace: the
// trace-id shared by every hop, this hop's span-id, and the W3C trace
// flags (bit 0 = sampled).  The zero value is invalid.
type TraceContext struct {
	TraceID [16]byte
	SpanID  [8]byte
	Flags   byte
}

// ErrTraceparent reports a header that does not parse as a W3C
// traceparent.  Callers treat it as "no incoming trace" and mint a
// fresh root.
var ErrTraceparent = errors.New("obs: malformed traceparent header")

// ParseTraceparent parses a W3C traceparent header value.  It is
// strict where the spec is strict: lowercase hex only, version 0xff
// rejected, all-zero trace-id or parent-id rejected, version 00
// exactly 55 bytes.  Unknown future versions are accepted when their
// first four fields parse and any extra content is dash-separated.
func ParseTraceparent(s string) (TraceContext, error) {
	var tc TraceContext
	if len(s) < 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return tc, ErrTraceparent
	}
	ver, ok := hexByte(s[0], s[1])
	if !ok || ver == 0xff {
		return tc, ErrTraceparent
	}
	if ver == 0 && len(s) != 55 {
		return tc, ErrTraceparent
	}
	if len(s) > 55 && s[55] != '-' {
		return tc, ErrTraceparent
	}
	var zero bool
	if !hexField(s[3:35], tc.TraceID[:]) {
		return tc, ErrTraceparent
	}
	zero = true
	for _, b := range tc.TraceID {
		if b != 0 {
			zero = false
			break
		}
	}
	if zero {
		return tc, ErrTraceparent
	}
	if !hexField(s[36:52], tc.SpanID[:]) {
		return TraceContext{}, ErrTraceparent
	}
	zero = true
	for _, b := range tc.SpanID {
		if b != 0 {
			zero = false
			break
		}
	}
	if zero {
		return TraceContext{}, ErrTraceparent
	}
	flags, ok := hexByte(s[53], s[54])
	if !ok {
		return TraceContext{}, ErrTraceparent
	}
	tc.Flags = flags
	return tc, nil
}

// hexField decodes exactly len(dst)*2 lowercase hex digits into dst.
func hexField(s string, dst []byte) bool {
	for i := range dst {
		b, ok := hexByte(s[2*i], s[2*i+1])
		if !ok {
			return false
		}
		dst[i] = b
	}
	return true
}

// hexByte decodes two lowercase hex digits (the spec forbids
// uppercase) into one byte.
func hexByte(hi, lo byte) (byte, bool) {
	h, ok := hexNibble(hi)
	if !ok {
		return 0, false
	}
	l, ok := hexNibble(lo)
	if !ok {
		return 0, false
	}
	return h<<4 | l, true
}

func hexNibble(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}

// Valid reports whether the context carries a usable (non-zero)
// trace-id and span-id.
func (tc TraceContext) Valid() bool {
	return tc.TraceID != [16]byte{} && tc.SpanID != [8]byte{}
}

// Sampled reports the W3C sampled flag (bit 0 of Flags).
func (tc TraceContext) Sampled() bool { return tc.Flags&1 == 1 }

// Traceparent renders the context as a version-00 W3C header value.
func (tc TraceContext) Traceparent() string {
	var buf [55]byte
	buf[0], buf[1], buf[2] = '0', '0', '-'
	hex.Encode(buf[3:35], tc.TraceID[:])
	buf[35] = '-'
	hex.Encode(buf[36:52], tc.SpanID[:])
	buf[52] = '-'
	const digits = "0123456789abcdef"
	buf[53] = digits[tc.Flags>>4]
	buf[54] = digits[tc.Flags&0xf]
	return string(buf[:])
}

// TraceIDString returns the 32-hex-digit trace id.
func (tc TraceContext) TraceIDString() string { return hex.EncodeToString(tc.TraceID[:]) }

// SpanIDString returns the 16-hex-digit span id.
func (tc TraceContext) SpanIDString() string { return hex.EncodeToString(tc.SpanID[:]) }

// NewTraceContext mints a fresh sampled root: random trace-id and
// span-id from crypto/rand.  The all-zero ids the spec forbids are
// statistically unreachable but guarded anyway (a broken entropy
// source degrades to a fixed non-zero id rather than an invalid one).
func NewTraceContext() TraceContext {
	tc := TraceContext{Flags: 1}
	var b [24]byte
	rand.Read(b[:]) //nolint:errcheck // never fails on supported platforms; zero guard below
	copy(tc.TraceID[:], b[:16])
	copy(tc.SpanID[:], b[16:])
	if tc.TraceID == [16]byte{} {
		tc.TraceID[15] = 1
	}
	if tc.SpanID == [8]byte{} {
		tc.SpanID[7] = 1
	}
	return tc
}

// Child returns a context for the next hop or child operation: same
// trace-id and flags, fresh random span-id.
func (tc TraceContext) Child() TraceContext {
	child := tc
	var b [8]byte
	rand.Read(b[:]) //nolint:errcheck // see NewTraceContext
	child.SpanID = b
	if child.SpanID == [8]byte{} {
		child.SpanID[7] = 1
	}
	return child
}

type traceKey struct{}

// WithTraceContext returns a context carrying tc; internal/client
// reads it back to inject the traceparent header into outgoing
// requests.
func WithTraceContext(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, traceKey{}, tc)
}

// TraceContextFrom returns the trace context installed in ctx, if any.
func TraceContextFrom(ctx context.Context) (TraceContext, bool) {
	tc, ok := ctx.Value(traceKey{}).(TraceContext)
	return tc, ok && tc.Valid()
}
