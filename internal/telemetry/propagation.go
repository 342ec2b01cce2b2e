package telemetry

import (
	"context"
	"net/http"
	"strconv"
)

// Trace context crosses process boundaries as two HTTP headers: the
// trace ID and the ID of the span the request was issued under. A
// receiving process starts its handler span with SpanWithRemoteParent
// so both processes' events share one trace tree. A third header
// carries a per-attempt request ID, stamped fresh on every retry, so
// client attempt events reconcile one-to-one with server spans.
const (
	// HeaderTraceID carries SpanContext.TraceID.
	HeaderTraceID = "X-Trace-Id"
	// HeaderParentSpan carries SpanContext.SpanID as 16 hex digits.
	HeaderParentSpan = "X-Parent-Span"
	// HeaderRequestID carries the per-attempt request ID ("r17.2" is
	// the second retry of logical request 17).
	HeaderRequestID = "X-Request-Id"
)

// FormatSpanID renders a span ID for the wire (16 lowercase hex digits).
func FormatSpanID(id uint64) string {
	return strconv.FormatUint(id, 16)
}

// ParseSpanID parses a wire-format span ID; malformed input yields 0.
func ParseSpanID(s string) uint64 {
	id, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0
	}
	return id
}

// Inject writes the span context into HTTP headers. Invalid contexts
// (tracing disabled) write nothing.
func Inject(sc SpanContext, h http.Header) {
	if !sc.Valid() {
		return
	}
	h.Set(HeaderTraceID, sc.TraceID)
	h.Set(HeaderParentSpan, FormatSpanID(sc.SpanID))
}

// Extract reads a span context from HTTP headers. Requests from
// untraced callers yield an invalid context (SpanWithRemoteParent then
// starts a fresh root span).
func Extract(h http.Header) SpanContext {
	return SpanContext{
		TraceID: h.Get(HeaderTraceID),
		SpanID:  ParseSpanID(h.Get(HeaderParentSpan)),
	}
}

// spanCtxKey keys the active span in a context.Context.
type spanCtxKey struct{}

// ContextWithSpan returns a context carrying the span, so layers that
// only see a context (the wire client under Search's fan-out)
// can parent their work correctly. A nil span leaves ctx unchanged.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the span carried by ctx, or nil (every *Span
// method no-ops on nil, so callers use the result unconditionally).
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// remoteCtxKey keys a remote parent span context in a context.Context.
type remoteCtxKey struct{}

// ContextWithRemote returns a context carrying a remote parent span
// context — the identity Extract pulled off an incoming request — so a
// downstream layer that roots its own span (Metasearcher.Search) can join
// the caller's trace with SpanWithRemoteParent instead of minting a
// fresh trace ID. An invalid context leaves ctx unchanged.
func ContextWithRemote(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, remoteCtxKey{}, sc)
}

// RemoteFromContext returns the remote parent span context carried by
// ctx (zero, i.e. !Valid(), when absent).
func RemoteFromContext(ctx context.Context) SpanContext {
	sc, _ := ctx.Value(remoteCtxKey{}).(SpanContext)
	return sc
}
