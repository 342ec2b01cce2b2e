package telemetry

import (
	"encoding/json"
	"testing"
)

// FuzzSpanTree feeds BuildSpanTree hostile member exports: any JSON a
// member could serve as a list of span exports. Whatever arrives, every
// distinct span ID appears in the tree exactly once, Spans counts them,
// Orphans is the number of roots with a parent, every child names its
// parent, and the tree JSON-encodes (the collector serves it).
func FuzzSpanTree(f *testing.F) {
	for _, seed := range []string{
		// A root, a child in another process, a point, an orphan.
		`[{"instance":"a","events":[{"kind":"start","name":"r","span":1,"time":"2026-08-08T12:00:00Z"},` +
			`{"kind":"point","name":"p","span":1,"time":"2026-08-08T12:00:00.001Z"},` +
			`{"kind":"end","name":"r","span":1,"time":"2026-08-08T12:00:01Z","duration_seconds":1}]},` +
			`{"instance":"b","events":[{"kind":"start","name":"c","span":2,"parent":1,"time":"2026-08-08T12:00:00.5Z"},` +
			`{"kind":"start","name":"o","span":9,"parent":99,"time":"2026-08-08T12:00:00.7Z"}]}]`,
		// A root, a 2-cycle and a self-parented span.
		`[{"events":[{"kind":"start","span":1},{"kind":"start","span":2,"parent":3},` +
			`{"kind":"start","span":3,"parent":2},{"kind":"start","span":4,"parent":4}]}]`,
		// Ends without their starts whose durations reach before year 0
		// or past year 9999; a point whose span is gone; an unknown
		// kind; a duplicated start.
		`[{"events":[{"kind":"end","span":5,"time":"0001-01-01T00:00:00Z","duration_seconds":1e12},` +
			`{"kind":"end","span":6,"time":"9999-12-31T23:59:59Z","duration_seconds":-3},{"kind":"point","span":7},` +
			`{"kind":"bogus","span":8},{"kind":"start","span":9,"parent":6},{"kind":"start","span":9,"parent":0}]}]`,
		// A chain below a cycle.
		`[{"events":[{"kind":"start","span":4,"parent":3},{"kind":"start","span":2,"parent":3},{"kind":"start","span":3,"parent":2}]}]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var exports []SpanExport
		if json.Unmarshal(data, &exports) != nil {
			return
		}
		want := map[uint64]bool{}
		for _, x := range exports {
			for _, e := range x.Events {
				if e.Kind == "start" || e.Kind == "end" {
					want[e.Span] = true
				}
			}
		}
		tree := BuildSpanTree(exports...)
		seen := map[uint64]bool{}
		var walk func(parent *SpanNode, ns []*SpanNode)
		walk = func(parent *SpanNode, ns []*SpanNode) {
			for _, n := range ns {
				if seen[n.Span] {
					t.Fatalf("span %d appears twice", n.Span)
				}
				seen[n.Span] = true
				if parent != nil && (n.Parent != parent.Span || n.Orphan) {
					t.Fatalf("span %d (parent %d, orphan %v) hangs under span %d", n.Span, n.Parent, n.Orphan, parent.Span)
				}
				walk(n, n.Children)
			}
		}
		walk(nil, tree.Roots)
		if len(seen) != len(want) || tree.Spans != len(want) {
			t.Fatalf("tree reaches %d spans and counts %d, exports hold %d", len(seen), tree.Spans, len(want))
		}
		orphans := 0
		for _, r := range tree.Roots {
			if r.Orphan != (r.Parent != 0) {
				t.Fatalf("root %d with parent %d has orphan %v", r.Span, r.Parent, r.Orphan)
			}
			if r.Orphan {
				orphans++
			}
		}
		if tree.Orphans != orphans {
			t.Fatalf("Orphans = %d, roots with a parent = %d", tree.Orphans, orphans)
		}
		if _, err := json.Marshal(tree); err != nil {
			t.Fatalf("tree does not JSON-encode: %v", err)
		}
	})
}
