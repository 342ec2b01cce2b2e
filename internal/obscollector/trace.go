package obscollector

import (
	"slices"
	"sort"
	"time"

	"repro/internal/audit"
	"repro/internal/telemetry"
)

// AssembledTrace is one distributed trace stitched from every process's
// span export, plus the audit records that carry the same trace ID.
type AssembledTrace struct {
	TraceID string `json:"trace_id"`
	telemetry.SpanTree
	// Processes are the distinct instances that contributed spans,
	// sorted.
	Processes []string `json:"processes"`
	// Queries are the audit records of this trace (the selection
	// evidence of every process that ran a selection for it).
	Queries []*audit.QueryRecord `json:"queries,omitempty"`
}

// AssembleTrace stitches the given trace from the members' latest
// exports with telemetry.BuildSpanTree. Returns nil when no process
// exported any event for the trace.
func AssembleTrace(traceID string, states map[string]*InstanceState) *AssembledTrace {
	out := &AssembledTrace{TraceID: traceID}
	var exports []telemetry.SpanExport
	for _, st := range states {
		exp := telemetry.SpanExport{Identity: st.Identity}
		for _, e := range st.Spans {
			if e.Trace == traceID {
				exp.Events = append(exp.Events, e)
			}
		}
		if len(exp.Events) > 0 {
			exports = append(exports, exp)
			out.Processes = append(out.Processes, st.Identity.Instance)
		}
		for _, q := range st.Queries {
			if q.TraceID == traceID {
				out.Queries = append(out.Queries, q)
			}
		}
	}
	if len(exports) == 0 {
		return nil
	}
	out.SpanTree = telemetry.BuildSpanTree(exports...)
	sort.Strings(out.Processes)
	out.Processes = slices.Compact(out.Processes)
	sort.SliceStable(out.Queries, func(i, j int) bool { return out.Queries[i].Time.Before(out.Queries[j].Time) })
	return out
}

// TraceSummary is one known trace in the /debug/cluster/traces index.
type TraceSummary struct {
	TraceID   string    `json:"trace_id"`
	Spans     int       `json:"spans"`
	Processes int       `json:"processes"`
	Earliest  time.Time `json:"earliest"`
}

// KnownTraces lists every trace ID present in the members' span
// exports, newest first.
func KnownTraces(states map[string]*InstanceState) []TraceSummary {
	type agg struct {
		spans    map[uint64]bool
		procs    map[string]bool
		earliest time.Time
	}
	byTrace := map[string]*agg{}
	for _, st := range states {
		for _, e := range st.Spans {
			if e.Trace == "" || e.Kind != "start" {
				continue
			}
			a := byTrace[e.Trace]
			if a == nil {
				a = &agg{spans: map[uint64]bool{}, procs: map[string]bool{}, earliest: e.Time}
				byTrace[e.Trace] = a
			}
			a.spans[e.Span] = true
			a.procs[st.Identity.Instance] = true
			if e.Time.Before(a.earliest) {
				a.earliest = e.Time
			}
		}
	}
	out := make([]TraceSummary, 0, len(byTrace))
	for id, a := range byTrace {
		out = append(out, TraceSummary{TraceID: id, Spans: len(a.spans), Processes: len(a.procs), Earliest: a.earliest})
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Earliest.Equal(out[j].Earliest) {
			return out[i].Earliest.After(out[j].Earliest)
		}
		return out[i].TraceID < out[j].TraceID
	})
	return out
}
