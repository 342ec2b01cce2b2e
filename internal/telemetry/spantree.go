package telemetry

import (
	"slices"
	"sort"
	"time"
)

// SpanNode is one span of a rebuilt trace, annotated with the process
// it ran in.
type SpanNode struct {
	Name     string    `json:"name"`
	Identity Identity  `json:"identity"`
	Span     uint64    `json:"span"`
	Parent   uint64    `json:"parent,omitempty"`
	Start    time.Time `json:"start"`
	// DurationSeconds is zero when the span's end event was not
	// exported (still open, or overwritten in the member's ring) —
	// Ended distinguishes the two readings.
	DurationSeconds float64 `json:"duration_seconds,omitempty"`
	Ended           bool    `json:"ended"`
	// Orphan marks a root whose parent is not in the tree: the parent
	// was never exported (usually it aged out of a ring), or the span
	// sits on a parent cycle, which no real trace has.
	Orphan bool `json:"orphan,omitempty"`
	// Attrs annotate the start event, EndAttrs the end event (outcome
	// counts, sizes).
	Attrs    map[string]interface{} `json:"attrs,omitempty"`
	EndAttrs map[string]interface{} `json:"end_attrs,omitempty"`
	Events   []SpanPoint            `json:"events,omitempty"`
	Children []*SpanNode            `json:"children,omitempty"`
}

// SpanPoint is one instantaneous event inside a span.
type SpanPoint struct {
	Name  string                 `json:"name"`
	Time  time.Time              `json:"time"`
	Attrs map[string]interface{} `json:"attrs,omitempty"`
}

// SpanTree is a span forest: roots in start order, each with its
// children in start order.
type SpanTree struct {
	// Spans counts all spans; Orphans the roots with a parent id. A
	// fully assembled trace has len(Roots)==1 and Orphans==0.
	Spans   int         `json:"spans"`
	Orphans int         `json:"orphans"`
	Roots   []*SpanNode `json:"roots"`
}

// BuildSpanTree rebuilds the span forest from the events of one or
// more processes' exports, usually filtered to one trace. Span IDs are
// unique across processes (each tracer offsets them by a random 64-bit
// base), so events key directly by span ID. Every span appears exactly
// once: a span whose parent is missing becomes an orphan root, and so
// does a span no root reaches (a parent cycle), earliest first. An end
// whose start was lost still yields its span; a point event whose span
// was lost is dropped.
func BuildSpanTree(exports ...SpanExport) SpanTree {
	type event struct {
		id Identity
		ExportedEvent
	}
	var all []event
	for _, x := range exports {
		for _, e := range x.Events {
			all = append(all, event{x.Identity, e})
		}
	}
	// Exports come in any order; sort by event time so siblings come
	// out in start order and point events in occurrence order.
	sort.SliceStable(all, func(i, j int) bool { return all[i].Time.Before(all[j].Time) })

	nodes := map[uint64]*SpanNode{}
	var order []*SpanNode
	for _, e := range all {
		n := nodes[e.Span]
		switch e.Kind {
		case "start", "end":
			if n == nil {
				// An end without its start back-derives the start, unless
				// its duration is negative or reaches before year 0.
				start := e.Time.Add(-time.Duration(e.Duration * float64(time.Second)))
				if start.After(e.Time) || start.Year() < 0 {
					start = e.Time
				}
				n = &SpanNode{Span: e.Span, Name: e.Name, Identity: e.id, Parent: e.Parent, Start: start}
				nodes[e.Span] = n
				order = append(order, n)
			}
			if e.Kind == "start" {
				n.Name, n.Identity, n.Parent, n.Start, n.Attrs = e.Name, e.id, e.Parent, e.Time, e.Attrs
			} else {
				n.DurationSeconds, n.Ended, n.EndAttrs = e.Duration, true, e.Attrs
			}
		case "point":
			if n != nil { // a point whose span is gone has nowhere to hang
				n.Events = append(n.Events, SpanPoint{Name: e.Name, Time: e.Time, Attrs: e.Attrs})
			}
		}
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].Start.Before(order[j].Start) })

	t := SpanTree{Spans: len(order)}
	for _, n := range order {
		if p := nodes[n.Parent]; n.Parent != 0 && p != nil {
			p.Children = append(p.Children, n)
		} else {
			t.Roots = append(t.Roots, n)
		}
	}
	// A span on a parent cycle, or below one, hangs under no root: the
	// earliest such span becomes a root until every span is reached.
	reached := make(map[*SpanNode]bool, len(order))
	var reach func(n *SpanNode)
	reach = func(n *SpanNode) {
		reached[n] = true
		for _, c := range n.Children {
			reach(c)
		}
	}
	for _, r := range t.Roots {
		reach(r)
	}
	for _, n := range order {
		if reached[n] {
			continue
		}
		p := nodes[n.Parent]
		p.Children = slices.DeleteFunc(p.Children, func(c *SpanNode) bool { return c == n })
		t.Roots = append(t.Roots, n)
		reach(n)
	}
	for _, r := range t.Roots {
		if r.Parent != 0 {
			r.Orphan = true
			t.Orphans++
		}
	}
	return t
}
