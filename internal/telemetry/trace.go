package telemetry

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer creates spans and delivers their events to an Observer. A nil
// *Tracer is the disabled tracer: every method no-ops and returns nil
// spans, so instrumented code carries no conditionals.
//
// Every root span is assigned a fresh trace ID; children inherit it.
// Span IDs are offset by a per-tracer random base, so spans created by
// different processes (a metasearcher and its dbnodes) do not collide
// when their traces are joined via SpanWithRemoteParent.
type Tracer struct {
	obs  Observer
	ids  atomic.Uint64
	base uint64

	mu  sync.Mutex
	rng *rand.Rand
}

// NewTracer builds a tracer over obs. A nil observer yields a nil
// tracer (tracing disabled).
func NewTracer(obs Observer) *Tracer {
	if obs == nil {
		return nil
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	return &Tracer{obs: obs, rng: rng, base: rng.Uint64()}
}

// newTraceID draws a fresh 64-bit trace ID, rendered as 16 hex digits.
func (t *Tracer) newTraceID() string {
	t.mu.Lock()
	v := t.rng.Uint64()
	t.mu.Unlock()
	if v == 0 {
		v = 1
	}
	return fmt.Sprintf("%016x", v)
}

// Span starts a root span under a fresh trace ID.
func (t *Tracer) Span(name string, attrs ...Attr) *Span {
	return t.start(name, 0, "", attrs)
}

// SpanWithRemoteParent starts a span whose parent lives in another
// process: the span joins the remote trace and parents under the remote
// span ID, so observers that merge both processes' events see one tree.
// An invalid (zero) remote context yields an ordinary root span.
func (t *Tracer) SpanWithRemoteParent(name string, remote SpanContext, attrs ...Attr) *Span {
	return t.start(name, remote.SpanID, remote.TraceID, attrs)
}

func (t *Tracer) start(name string, parent uint64, trace string, attrs []Attr) *Span {
	if t == nil {
		return nil
	}
	if trace == "" {
		trace = t.newTraceID()
	}
	s := &Span{
		t:      t,
		id:     t.base + t.ids.Add(1),
		parent: parent,
		trace:  trace,
		name:   name,
		start:  time.Now(),
	}
	t.obs.Observe(Event{
		Kind:   KindSpanStart,
		Name:   name,
		Trace:  trace,
		Span:   s.id,
		Parent: parent,
		Time:   s.start,
		Attrs:  attrs,
	})
	return s
}

// Span is one traced operation. A nil *Span no-ops on every method, so
// spans can be threaded through config structs unconditionally.
type Span struct {
	t      *Tracer
	id     uint64
	parent uint64
	trace  string
	name   string
	start  time.Time
}

// SpanContext is the propagatable identity of a span: enough for a
// remote process to parent its own spans under this one. The zero value
// is "no context" (Valid reports false).
type SpanContext struct {
	// TraceID identifies the whole trace (16 lowercase hex digits).
	TraceID string
	// SpanID identifies this span within the trace.
	SpanID uint64
}

// Valid reports whether the context carries a trace.
func (sc SpanContext) Valid() bool { return sc.TraceID != "" && sc.SpanID != 0 }

// Context returns the span's propagatable identity (zero for a nil
// span, i.e. when tracing is disabled).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.trace, SpanID: s.id}
}

// Child starts a sub-span in the same trace.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.t.start(name, s.id, s.trace, attrs)
}

// Event records an instantaneous event within the span.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	s.t.obs.Observe(Event{
		Kind:   KindPoint,
		Name:   name,
		Trace:  s.trace,
		Span:   s.id,
		Parent: s.parent,
		Time:   time.Now(),
		Attrs:  attrs,
	})
}

// End closes the span, reporting its duration. Attributes passed here
// annotate the end event (outcome counts, sizes, ...).
func (s *Span) End(attrs ...Attr) {
	if s == nil {
		return
	}
	now := time.Now()
	s.t.obs.Observe(Event{
		Kind:     KindSpanEnd,
		Name:     s.name,
		Trace:    s.trace,
		Span:     s.id,
		Parent:   s.parent,
		Time:     now,
		Duration: now.Sub(s.start),
		Attrs:    attrs,
	})
}
