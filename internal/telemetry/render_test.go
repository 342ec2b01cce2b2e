package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

func TestEscapeLabel(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain", "plain"},
		{"0.005", "0.005"},
		{`back\slash`, `back\\slash`},
		{`say "hi"`, `say \"hi\"`},
		{"line\nbreak", `line\nbreak`},
		{"\\\"\n", `\\\"\n`},
	}
	for _, c := range cases {
		if got := escapeLabel(c.in); got != c.want {
			t.Errorf("escapeLabel(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestPrometheusHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("req_latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Buckets must be cumulative: 2 under 0.01, 3 under 0.1, 4 under 1,
	// 5 under +Inf.
	for _, want := range []string{
		`req_latency_bucket{le="0.01"} 2`,
		`req_latency_bucket{le="0.1"} 3`,
		`req_latency_bucket{le="1"} 4`,
		`req_latency_bucket{le="+Inf"} 5`,
		`req_latency_count 5`,
		"# TYPE req_latency histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Prometheus output missing %q:\n%s", want, out)
		}
	}
	// The +Inf bucket must equal _count (exposition-format invariant).
	if !strings.Contains(out, `req_latency_bucket{le="+Inf"} 5`) || !strings.Contains(out, "req_latency_count 5") {
		t.Error("le=\"+Inf\" bucket must equal _count")
	}
}

func TestSummaryEmptyRegistry(t *testing.T) {
	if got := NewRegistry().Snapshot().Summary(); !strings.Contains(got, "no metrics recorded") {
		t.Errorf("empty summary = %q", got)
	}
}
