package telemetry

import (
	"encoding/json"
	"net/http"
	"time"
)

// SpanExportVersion is the version stamped on /debug/export/spans
// envelopes. Consumers (the cluster collector) reject versions they do
// not understand; additive fields do not bump it.
const SpanExportVersion = 1

// Identity names one process in the cluster topology. The collector
// stamps every scraped metric and span with it, so fleet-wide views can
// still be sliced per instance, role, or shard.
type Identity struct {
	// Instance is the process's address or another unique name.
	Instance string `json:"instance"`
	// Role is the process's job: "router", "shard", "dbnode", ...
	Role string `json:"role"`
	// Shard is the shard the process belongs to, when it has one.
	Shard string `json:"shard,omitempty"`
}

// ExportedEvent is one trace event in wire form: Kind as its string
// name, attrs flattened to a map, duration in seconds. Span IDs stay
// uint64 — both ends are Go, so the decimal JSON round-trips exactly.
type ExportedEvent struct {
	Kind     string                 `json:"kind"`
	Name     string                 `json:"name"`
	Trace    string                 `json:"trace"`
	Span     uint64                 `json:"span"`
	Parent   uint64                 `json:"parent,omitempty"`
	Time     time.Time              `json:"time"`
	Duration float64                `json:"duration_seconds,omitempty"`
	Attrs    map[string]interface{} `json:"attrs,omitempty"`
}

// ExportEvent converts an Event to its wire form.
func ExportEvent(e Event) ExportedEvent {
	out := ExportedEvent{
		Kind:     e.Kind.String(),
		Name:     e.Name,
		Trace:    e.Trace,
		Span:     e.Span,
		Parent:   e.Parent,
		Time:     e.Time,
		Duration: e.Duration.Seconds(),
	}
	if len(e.Attrs) > 0 {
		out.Attrs = make(map[string]interface{}, len(e.Attrs))
		for _, a := range e.Attrs {
			out.Attrs[a.Key] = a.Value
		}
	}
	return out
}

// SpanExport is the /debug/export/spans envelope: the exporting
// process's identity plus its retained recent events, oldest first.
type SpanExport struct {
	Version int `json:"version"`
	Identity
	// Dropped counts events the ring overwrote before this export — a
	// non-zero value means the scrape interval is too long for the
	// process's span rate (or the ring too small).
	Dropped int64           `json:"dropped,omitempty"`
	Events  []ExportedEvent `json:"events"`
}

// Export returns the ring's retained events stamped with id, filtered
// to one trace unless trace is "". BuildSpanTree rebuilds it as a tree.
func (r *RingCapture) Export(id Identity, trace string) SpanExport {
	events := r.Events()
	exp := SpanExport{
		Version:  SpanExportVersion,
		Identity: id,
		Dropped:  r.Total() - int64(len(events)),
		Events:   make([]ExportedEvent, 0, len(events)),
	}
	for _, e := range events {
		if trace == "" || e.Trace == trace {
			exp.Events = append(exp.Events, ExportEvent(e))
		}
	}
	return exp
}

// ExportSpansHandler serves the process's recent spans from ring as a
// versioned SpanExport. ?trace=<id> filters to one trace (the
// collector's on-demand trace fetch).
func ExportSpansHandler(id Identity, ring *RingCapture) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(ring.Export(id, req.URL.Query().Get("trace")))
	})
}
