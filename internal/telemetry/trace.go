package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
)

// Request-scoped tracing: 128-bit trace IDs and 64-bit span IDs carried
// through context.Context and propagated over HTTP in a W3C
// traceparent-style header. One trace ID follows an event batch from the
// serve API through its session's turn, the streaming detector and the
// shadow canary, and a retraining cycle through its journal transitions,
// registry publish, gate decision and promotion. The IDs link three
// sinks: span completions and verdict summaries in the flight recorder,
// exemplars on latency histograms, and slogx records logged with a
// tracing context.

// TraceID is a 128-bit request/cycle identifier, rendered as 32 hex
// digits. The zero value means "no trace".
type TraceID [16]byte

// SpanID is a 64-bit identifier for one hop within a trace, rendered as
// 16 hex digits.
type SpanID [8]byte

// NewTraceID returns a fresh random trace ID. IDs are drawn from
// crypto/rand, so concurrent generators never collide in practice.
func NewTraceID() TraceID {
	var t TraceID
	mustRandom(t[:])
	return t
}

// NewSpanID returns a fresh random span ID.
func NewSpanID() SpanID {
	var s SpanID
	mustRandom(s[:])
	return s
}

// mustRandom fills b from crypto/rand; ID generation has no sane
// degraded mode, so a failing entropy source is fatal.
func mustRandom(b []byte) {
	if _, err := rand.Read(b); err != nil {
		panic(fmt.Sprintf("telemetry: reading random ID: %v", err))
	}
}

// IsZero reports the absent trace ID.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the trace ID as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsZero reports the absent span ID.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the span ID as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// TraceContext is one hop of a trace: the trace it belongs to and the
// span identifying this hop.
type TraceContext struct {
	// Trace is the 128-bit trace the hop belongs to.
	Trace TraceID
	// Span identifies this hop within the trace.
	Span SpanID
}

// Valid reports whether the context carries a usable (non-zero) trace.
func (tc TraceContext) Valid() bool { return !tc.Trace.IsZero() && !tc.Span.IsZero() }

// TraceParent renders the context in the W3C traceparent layout:
// version 00, 32-hex trace ID, 16-hex span ID, flags 01 (sampled).
func (tc TraceContext) TraceParent() string {
	return "00-" + tc.Trace.String() + "-" + tc.Span.String() + "-01"
}

// Child returns a context in the same trace with a fresh span ID — the
// shape a server derives from an inbound traceparent so its own work is
// distinguishable from the caller's.
func (tc TraceContext) Child() TraceContext {
	return TraceContext{Trace: tc.Trace, Span: NewSpanID()}
}

// ParseTraceParent parses a W3C traceparent header. Every field is
// lowercase hex and version ff is invalid. A version-00 header is
// exactly 55 characters; a later version may append dash-separated
// fields (the W3C forward-compatibility rule). The all-zero trace or
// span ID is rejected.
func ParseTraceParent(s string) (TraceContext, bool) {
	// version(2) - trace(32) - span(16) - flags(2), dash-separated.
	if len(s) < 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return TraceContext{}, false
	}
	version := s[0:2]
	if version == "ff" || !lowerHex(version) {
		return TraceContext{}, false
	}
	if len(s) > 55 && (version == "00" || s[55] != '-') {
		return TraceContext{}, false
	}
	if !lowerHex(s[3:35]) || !lowerHex(s[36:52]) || !lowerHex(s[53:55]) {
		return TraceContext{}, false
	}
	var tc TraceContext
	if !hexDecode(tc.Trace[:], s[3:35]) || !hexDecode(tc.Span[:], s[36:52]) {
		return TraceContext{}, false
	}
	if !tc.Valid() {
		return TraceContext{}, false
	}
	return tc, true
}

// hexDecode fills dst from the hex string s, reporting success.
func hexDecode(dst []byte, s string) bool {
	n, err := hex.Decode(dst, []byte(s))
	return err == nil && n == len(dst)
}

// lowerHex reports whether s is entirely lowercase hex digits, the only
// digits W3C Trace Context allows.
func lowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// traceCtxKey keys the TraceContext carried in a context.Context.
type traceCtxKey struct{}

// WithTraceContext returns ctx carrying tc.
func WithTraceContext(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceContextFrom returns the trace context carried by ctx, if any.
func TraceContextFrom(ctx context.Context) (TraceContext, bool) {
	tc, ok := ctx.Value(traceCtxKey{}).(TraceContext)
	return tc, ok && tc.Valid()
}

// EnsureTraceContext returns ctx carrying a valid trace context,
// minting a fresh trace when none is present. The carried context is
// returned alongside for callers that propagate it outward (headers,
// exemplars, flight-recorder entries).
func EnsureTraceContext(ctx context.Context) (context.Context, TraceContext) {
	if tc, ok := TraceContextFrom(ctx); ok {
		return ctx, tc
	}
	tc := TraceContext{Trace: NewTraceID(), Span: NewSpanID()}
	return WithTraceContext(ctx, tc), tc
}

// TraceIDFrom returns the hex trace ID carried by ctx, or "" when the
// context carries none — the form metric exemplars and flight-recorder
// entries want.
func TraceIDFrom(ctx context.Context) string {
	if tc, ok := TraceContextFrom(ctx); ok {
		return tc.Trace.String()
	}
	return ""
}
