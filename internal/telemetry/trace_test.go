package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestSpanTreeReconstruction(t *testing.T) {
	ring := NewRingCapture(64)
	tr := NewTracer(ring)

	root := tr.Span("build", Int("databases", 2))
	child := root.Child("sample", String("db", "a"))
	child.Event("sampling.round", Int("docs", 50))
	child.End(Int("queries", 10))
	sib := root.Child("shrink", String("db", "a"))
	sib.End()
	root.End()

	tree := BuildSpanTree(ring.Export(Identity{}, root.Context().TraceID))
	roots := tree.Roots
	if len(roots) != 1 || roots[0].Name != "build" {
		t.Fatalf("roots = %+v", roots)
	}
	b := roots[0]
	if len(b.Children) != 2 || b.Children[0].Name != "sample" || b.Children[1].Name != "shrink" {
		t.Fatalf("children = %+v", b.Children)
	}
	s := b.Children[0]
	if len(s.Events) != 1 || s.Events[0].Name != "sampling.round" {
		t.Errorf("sample events = %+v", s.Events)
	}
	if v, ok := s.Events[0].Attrs["docs"].(int64); !ok || v != 50 {
		t.Errorf("docs attr = %v", s.Events[0].Attrs["docs"])
	}
	if v, ok := s.EndAttrs["queries"].(int64); !ok || v != 10 {
		t.Errorf("queries end attr = %v", s.EndAttrs["queries"])
	}
	if !s.Ended || !b.Ended {
		t.Error("spans not marked ended")
	}
	var started []string
	for _, e := range ring.Events() {
		if e.Kind == KindSpanStart {
			started = append(started, e.Name)
		}
	}
	if got := strings.Join(started, ","); got != "build,sample,shrink" {
		t.Errorf("span order = %v", got)
	}
	if tree.Spans != 3 || tree.Orphans != 0 {
		t.Errorf("tree counts %d spans and %d orphans, want 3 and 0", tree.Spans, tree.Orphans)
	}
}

func TestNilTracerAndSpanNoop(t *testing.T) {
	var tr *Tracer
	s := tr.Span("x")
	if s != nil {
		t.Fatal("nil tracer produced a span")
	}
	// All of these must be safe no-ops.
	s.Event("e")
	s.End()
	if c := s.Child("y"); c != nil {
		t.Error("nil span produced a child")
	}
	if NewTracer(nil) != nil {
		t.Error("NewTracer(nil) != nil")
	}
}

func TestTracerConcurrentSpans(t *testing.T) {
	ring := NewRingCapture(64)
	tr := NewTracer(ring)
	root := tr.Span("build")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := root.Child("sample")
			s.Event("tick")
			s.End()
		}()
	}
	wg.Wait()
	root.End()
	b := BuildSpanTree(ring.Export(Identity{}, "")).Roots[0]
	if len(b.Children) != 8 {
		t.Errorf("children = %d, want 8", len(b.Children))
	}
	for _, c := range b.Children {
		if len(c.Events) != 1 || !c.Ended {
			t.Errorf("child incomplete: %+v", c)
		}
	}
}
