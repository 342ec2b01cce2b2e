package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format (version 0.0.4): counters and gauges as single
// series, histograms as cumulative _bucket{le="..."} series plus _sum
// and _count. Series with described help text get a # HELP line.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	for _, name := range sortedKeys(s.Counters) {
		if err := s.writeHelp(w, name); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		if err := s.writeHelp(w, name); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", name, name, formatFloat(s.Gauges[name])); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		if err := s.writeHelp(w, name); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
			return err
		}
		var cum int64
		for i, b := range h.Bounds {
			cum += h.Counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, escapeLabel(formatFloat(b)), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
			name, h.Count, name, formatFloat(h.Sum), name, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// writeHelp emits the # HELP line for name when help text was
// described; help text escapes backslash and newline per the exposition
// format.
func (s Snapshot) writeHelp(w io.Writer, name string) error {
	help, ok := s.Help[name]
	if !ok || help == "" {
		return nil
	}
	help = strings.ReplaceAll(help, `\`, `\\`)
	help = strings.ReplaceAll(help, "\n", `\n`)
	_, err := fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	return err
}

// escapeLabel escapes a Prometheus label value: backslash, double
// quote, and newline must be backslash-escaped inside the quotes.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// WriteJSON renders the snapshot as JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Series counts the distinct exposed series: one per counter, one per
// gauge, and one per histogram (its buckets expand on render).
func (s Snapshot) Series() int {
	return len(s.Counters) + len(s.Gauges) + len(s.Histograms)
}

// Summary renders an aligned, human-readable table of every metric, for
// end-of-run reports (cmd/experiments prints one per invocation).
func (s Snapshot) Summary() string {
	var b strings.Builder
	b.WriteString("telemetry summary\n")
	if s.Series() == 0 {
		b.WriteString("  (no metrics recorded)\n")
		return b.String()
	}
	width := 0
	for _, m := range []([]string){sortedKeys(s.Counters), sortedKeys(s.Gauges), sortedKeys(s.Histograms)} {
		for _, name := range m {
			if len(name) > width {
				width = len(name)
			}
		}
	}
	for _, name := range sortedKeys(s.Counters) {
		fmt.Fprintf(&b, "  %-*s  %d\n", width, name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		fmt.Fprintf(&b, "  %-*s  %s\n", width, name, formatFloat(s.Gauges[name]))
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		mean := 0.0
		if h.Count > 0 {
			mean = h.Sum / float64(h.Count)
		}
		fmt.Fprintf(&b, "  %-*s  count=%d sum=%s mean=%s\n",
			width, name, h.Count, formatFloat(h.Sum), formatFloat(mean))
	}
	return b.String()
}

// Handler serves the registry over HTTP: Prometheus text by default,
// JSON with ?format=json.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		snap := r.Snapshot()
		if req.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			snap.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		snap.WritePrometheus(w)
	})
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// formatFloat renders floats compactly ("0.005", "42", "1e+06"-free
// for the usual ranges) so the Prometheus text output stays readable.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
