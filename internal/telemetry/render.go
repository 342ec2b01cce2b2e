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
// exposition format: counters and gauges as single series, histograms
// as cumulative _bucket{le="..."} series plus _sum and _count. Series
// with described help text get a # HELP line.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	var err error
	write := func(name, typ string, samples ...Sample) {
		if err == nil {
			err = WriteFamily(w, name, typ, s.Help[name], samples...)
		}
	}
	for _, name := range sortedKeys(s.Counters) {
		write(name, "counter", Sample{Value: strconv.FormatInt(s.Counters[name], 10)})
	}
	for _, name := range sortedKeys(s.Gauges) {
		write(name, "gauge", Sample{Value: FormatFloat(s.Gauges[name])})
	}
	for _, name := range sortedKeys(s.Histograms) {
		write(name, "histogram", HistogramSamples(s.Histograms[name])...)
	}
	return err
}

// Label is one name="value" pair of a sample.
type Label struct{ Name, Value string }

// Sample is one line of a metric family: the family's name plus Suffix
// ("_bucket", "_sum" or "_count" for a histogram's parts), its labels
// in order, and its rendered value.
type Sample struct {
	Suffix string
	Labels []Label
	Value  string
}

// WriteFamily writes one metric family in the Prometheus text
// exposition format (version 0.0.4): a # HELP line unless help is
// empty, the # TYPE line, then one line per sample. It is the one place
// help text and label values are escaped.
func WriteFamily(w io.Writer, name, typ, help string, samples ...Sample) error {
	var b strings.Builder
	if help != "" {
		fmt.Fprintf(&b, "# HELP %s %s\n", name, helpEscaper.Replace(help))
	}
	fmt.Fprintf(&b, "# TYPE %s %s\n", name, typ)
	for _, s := range samples {
		b.WriteString(name + s.Suffix)
		sep := "{"
		for _, l := range s.Labels {
			b.WriteString(sep + l.Name + `="` + escapeLabel(l.Value) + `"`)
			sep = ","
		}
		if len(s.Labels) > 0 {
			b.WriteString("}")
		}
		b.WriteString(" " + s.Value + "\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// HistogramSamples expands a histogram into its cumulative
// _bucket{le="..."} samples, the +Inf bucket, _sum and _count.
func HistogramSamples(h HistogramSnapshot) []Sample {
	out := make([]Sample, 0, len(h.Bounds)+3)
	var cum int64
	for i, b := range h.Bounds {
		cum += h.Counts[i]
		out = append(out, Sample{"_bucket", []Label{{"le", FormatFloat(b)}}, strconv.FormatInt(cum, 10)})
	}
	count := strconv.FormatInt(h.Count, 10)
	return append(out,
		Sample{"_bucket", []Label{{"le", "+Inf"}}, count},
		Sample{"_sum", nil, FormatFloat(h.Sum)},
		Sample{"_count", nil, count})
}

// The text format's only escapes: backslash and newline in help text,
// and also the double quote in label values.
var (
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
)

func escapeLabel(v string) string { return labelEscaper.Replace(v) }

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
		fmt.Fprintf(&b, "  %-*s  %s\n", width, name, FormatFloat(s.Gauges[name]))
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		mean := 0.0
		if h.Count > 0 {
			mean = h.Sum / float64(h.Count)
		}
		fmt.Fprintf(&b, "  %-*s  count=%d sum=%s mean=%s\n",
			width, name, h.Count, FormatFloat(h.Sum), FormatFloat(mean))
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

// FormatFloat renders a sample value compactly ("0.005", "42",
// "1e+21"), so the exposition text stays readable.
func FormatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
