package audit

import (
	"net/http"

	"repro/internal/telemetry"
)

// ExportVersion is the version stamped on /debug/export/queries
// envelopes. Consumers reject versions they do not understand; additive
// fields do not bump it.
const ExportVersion = 1

// Export is the /debug/export/queries envelope: the exporting process's
// identity plus its retained recent query records, newest first.
type Export struct {
	Version int `json:"version"`
	telemetry.Identity
	// Total is how many records were ever added (ring evictions mean
	// len(Records) can be smaller).
	Total   uint64         `json:"total"`
	Records []*QueryRecord `json:"records"`
}

// ByTrace returns the retained records carrying the given trace ID,
// newest first.
func (l *Log) ByTrace(traceID string) []*QueryRecord {
	if l == nil || traceID == "" {
		return nil
	}
	var out []*QueryRecord
	for _, r := range l.Recent(l.capacity()) {
		if r.TraceID == traceID {
			out = append(out, r)
		}
	}
	return out
}

func (l *Log) capacity() int {
	if l == nil {
		return 0
	}
	return len(l.slots)
}

// ExportHandler serves the process's recent audit records as a
// versioned Export. ?trace=<id> filters to one trace.
func (l *Log) ExportHandler(id telemetry.Identity) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		exp := Export{Version: ExportVersion, Identity: id, Total: l.Len()}
		if trace := req.URL.Query().Get("trace"); trace != "" {
			exp.Records = l.ByTrace(trace)
		} else {
			exp.Records = l.Recent(l.capacity())
		}
		if exp.Records == nil {
			exp.Records = []*QueryRecord{}
		}
		w.Header().Set("Content-Type", "application/json")
		writeIndented(w, exp)
	})
}
