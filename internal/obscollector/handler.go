package obscollector

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
	"sort"
	"strconv"

	"repro/internal/telemetry"
)

// Handler serves the cluster debug surface:
//
//	GET /debug/cluster/metrics      — rollup + per-instance series
//	                                  (Prometheus text; ?format=json for
//	                                  the full ClusterMetrics document)
//	GET /debug/cluster/trace/{id}   — one assembled cross-process trace
//	GET /debug/cluster/traces       — index of known trace IDs
//	GET /debug/cluster/instances    — scrape status per member
//	GET /debug/cluster/profiles     — continuous-profiling index
func (c *Collector) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /debug/cluster/metrics", c.serveMetrics)
	mux.HandleFunc("GET /debug/cluster/trace/{id}", c.serveTrace)
	mux.HandleFunc("GET /debug/cluster/traces", c.serveTraces)
	mux.HandleFunc("GET /debug/cluster/instances", c.serveInstances)
	mux.HandleFunc("GET /debug/cluster/profiles", c.serveProfiles)
	return mux
}

func (c *Collector) serveMetrics(w http.ResponseWriter, r *http.Request) {
	agg := Aggregate(c.States())
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, agg)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writeClusterPrometheus(w, agg)
}

func (c *Collector) serveTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr := AssembleTrace(id, c.States())
	if tr == nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(map[string]string{
			"error": fmt.Sprintf("no process exported spans for trace %s (evicted from every ring, or never existed)", id),
		})
		return
	}
	writeJSON(w, tr)
}

func (c *Collector) serveTraces(w http.ResponseWriter, r *http.Request) {
	traces := KnownTraces(c.States())
	n := 50
	if v := r.URL.Query().Get("n"); v != "" {
		if parsed, err := strconv.Atoi(v); err == nil && parsed > 0 {
			n = parsed
		}
	}
	if len(traces) > n {
		traces = traces[:n]
	}
	writeJSON(w, traces)
}

func (c *Collector) serveInstances(w http.ResponseWriter, r *http.Request) {
	states := c.States()
	type instance struct {
		*InstanceState
		Spans   int `json:"spans"`
		Queries int `json:"queries"`
		Series  int `json:"series"`
	}
	out := make([]instance, 0, len(states))
	for _, st := range states {
		out = append(out, instance{st, len(st.Spans), len(st.Queries), st.Metrics.Series()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Identity.Instance < out[j].Identity.Instance })
	writeJSON(w, struct {
		TopologyGeneration int64      `json:"topology_generation"`
		Instances          []instance `json:"instances"`
	}{c.Generation(), out})
}

func (c *Collector) serveProfiles(w http.ResponseWriter, r *http.Request) {
	type profiles struct {
		Enabled bool          `json:"enabled"`
		Dir     string        `json:"dir,omitempty"`
		Files   []ProfileInfo `json:"files"`
	}
	out := profiles{Files: []ProfileInfo{}}
	if c.profiler != nil {
		out.Enabled = true
		out.Dir = c.profiler.dir
		if idx := c.profiler.index(); idx != nil {
			out.Files = idx
		}
	}
	writeJSON(w, out)
}

// writeJSON encodes v into a buffer before answering, so a value that
// cannot be encoded is a 500 with the error, not a 200 with a cut body.
func writeJSON(w http.ResponseWriter, v interface{}) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, "encoding reply: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.Bytes())
}

// writeClusterPrometheus renders the aggregate in the exposition
// format: rollup counters and histograms as unlabeled series, gauges
// as {aggregate="min"|"max"|"sum"} series, and every member's counters
// and gauges as {instance,role,shard}-labeled series. Per-instance
// histograms are JSON-only (the labeled bucket fan-out would dwarf
// everything else).
func writeClusterPrometheus(w io.Writer, agg ClusterMetrics) {
	instance := func(st *InstanceState, value string) telemetry.Sample {
		labels := []telemetry.Label{{Name: "instance", Value: st.Identity.Instance}, {Name: "role", Value: st.Identity.Role}}
		if st.Identity.Shard != "" {
			labels = append(labels, telemetry.Label{Name: "shard", Value: st.Identity.Shard})
		}
		return telemetry.Sample{Labels: labels, Value: value}
	}
	aggregate := func(name string, v float64) telemetry.Sample {
		return telemetry.Sample{Labels: []telemetry.Label{{Name: "aggregate", Value: name}}, Value: telemetry.FormatFloat(v)}
	}
	for _, n := range slices.Sorted(maps.Keys(agg.Cluster.Counters)) {
		samples := []telemetry.Sample{{Value: strconv.FormatInt(agg.Cluster.Counters[n], 10)}}
		for _, st := range agg.Instances {
			if v, ok := st.Metrics.Counters[n]; ok {
				samples = append(samples, instance(st, strconv.FormatInt(v, 10)))
			}
		}
		telemetry.WriteFamily(w, n, "counter", agg.Cluster.Help[n], samples...)
	}
	for _, n := range slices.Sorted(maps.Keys(agg.Cluster.Gauges)) {
		g := agg.Cluster.Gauges[n]
		samples := []telemetry.Sample{aggregate("min", g.Min), aggregate("max", g.Max), aggregate("sum", g.Sum)}
		for _, st := range agg.Instances {
			if v, ok := st.Metrics.Gauges[n]; ok {
				samples = append(samples, instance(st, telemetry.FormatFloat(v)))
			}
		}
		telemetry.WriteFamily(w, n, "gauge", agg.Cluster.Help[n], samples...)
	}
	for _, n := range slices.Sorted(maps.Keys(agg.Cluster.Histograms)) {
		telemetry.WriteFamily(w, n, "histogram", agg.Cluster.Help[n], telemetry.HistogramSamples(agg.Cluster.Histograms[n])...)
	}
}
