// Package telemetry instruments the metasearch pipeline with
// structured traces and runtime metrics, using only the standard
// library (net/http for the /metrics handler).
//
// Two complementary facilities:
//
//   - A Registry of named counters, gauges, and fixed-bucket latency
//     histograms. All updates are atomic (no locks on the hot path
//     after the first lookup), and the registry renders snapshots as
//     Prometheus text or JSON.
//   - A Tracer emitting span and point events to a pluggable Observer,
//     so the pipeline's phases (sampling, classification probing, EM
//     shrinkage, adaptive selection, search fan-out) are visible as a
//     span tree. A RingCapture keeps the recent events (or a nil
//     Observer drops them at no cost: a nil *Tracer and nil *Span
//     no-op on every method), and BuildSpanTree rebuilds the tree from
//     one or more processes' exports.
//
// The probe queries a metasearcher sends are its operating cost — a
// federated search system budgets them per backend — so sampling and
// classification report every query issued, the EM reports its
// convergence behavior and the adaptive rule its verdicts, making the
// paper's Figures 2-3 observable at runtime.
package telemetry

import (
	"fmt"
	"time"
)

// Attr is one key/value annotation on a trace event.
type Attr struct {
	Key   string
	Value interface{}
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: int64(v)} }

// Int64 builds an integer attribute from an int64.
func Int64(k string, v int64) Attr { return Attr{Key: k, Value: v} }

// Float builds a float attribute.
func Float(k string, v float64) Attr { return Attr{Key: k, Value: v} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: v} }

// Kind discriminates trace events.
type Kind int

const (
	// KindSpanStart marks the beginning of a span.
	KindSpanStart Kind = iota
	// KindSpanEnd marks the end of a span; Duration is set.
	KindSpanEnd
	// KindPoint is an instantaneous event within a span.
	KindPoint
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindSpanStart:
		return "start"
	case KindSpanEnd:
		return "end"
	case KindPoint:
		return "point"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one trace record delivered to an Observer. Span identifiers
// are unique per Tracer; Parent is zero for root spans. BuildSpanTree
// rebuilds the span tree from (Span, Parent) pairs.
type Event struct {
	Kind     Kind
	Name     string
	Trace    string // trace id: shared by every span of one request, across processes
	Span     uint64 // id of the span this event belongs to
	Parent   uint64 // id of the enclosing span (0 = root)
	Time     time.Time
	Duration time.Duration // set on KindSpanEnd
	Attrs    []Attr
}

// Attr returns the value of the named attribute (nil if absent).
func (e Event) Attr(key string) interface{} {
	for _, a := range e.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return nil
}

// Observer receives trace events. Implementations must be safe for
// concurrent use: BuildSummaries samples databases in parallel.
type Observer interface {
	Observe(Event)
}
