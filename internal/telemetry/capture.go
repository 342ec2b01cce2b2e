package telemetry

import (
	"sync"
	"time"
)

// Capture is an Observer that records every event, for tests and
// diagnostics. The zero value is ready to use.
type Capture struct {
	mu     sync.Mutex
	events []Event
}

// Observe implements Observer.
func (c *Capture) Observe(e Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// Events returns a copy of everything recorded so far, in arrival
// order.
func (c *Capture) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}

// Reset discards all recorded events.
func (c *Capture) Reset() {
	c.mu.Lock()
	c.events = nil
	c.mu.Unlock()
}

// SpanNames returns the names of all started spans in start order.
func (c *Capture) SpanNames() []string {
	var out []string
	for _, e := range c.Events() {
		if e.Kind == KindSpanStart {
			out = append(out, e.Name)
		}
	}
	return out
}

// SpanNode is one reconstructed span with its point events and
// children, in start order.
type SpanNode struct {
	Name     string
	Start    Event
	End      Event // zero Kind==KindSpanStart means the span never ended
	Duration time.Duration
	Events   []Event
	Children []*SpanNode
}

// Ended reports whether an end event was recorded for the span.
func (n *SpanNode) Ended() bool { return n.End.Kind == KindSpanEnd }

// Tree reconstructs the span forest from the recorded events: root
// spans in start order, each with its children and point events.
func (c *Capture) Tree() []*SpanNode {
	byID := make(map[uint64]*SpanNode)
	var roots []*SpanNode
	for _, e := range c.Events() {
		switch e.Kind {
		case KindSpanStart:
			n := &SpanNode{Name: e.Name, Start: e}
			byID[e.Span] = n
			if parent := byID[e.Parent]; parent != nil {
				parent.Children = append(parent.Children, n)
			} else {
				roots = append(roots, n)
			}
		case KindSpanEnd:
			if n := byID[e.Span]; n != nil {
				n.End = e
				n.Duration = e.Duration
			}
		case KindPoint:
			if n := byID[e.Span]; n != nil {
				n.Events = append(n.Events, e)
			}
		}
	}
	return roots
}

// Find returns the first span with the given name, searching the
// reconstructed forest depth-first (nil if absent).
func (c *Capture) Find(name string) *SpanNode {
	var dfs func(ns []*SpanNode) *SpanNode
	dfs = func(ns []*SpanNode) *SpanNode {
		for _, n := range ns {
			if n.Name == name {
				return n
			}
			if hit := dfs(n.Children); hit != nil {
				return hit
			}
		}
		return nil
	}
	return dfs(c.Tree())
}
