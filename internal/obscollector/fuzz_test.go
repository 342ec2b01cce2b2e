package obscollector

import (
	"encoding/json"
	"io"
	"slices"
	"testing"

	"repro/internal/telemetry"
)

// FuzzAggregate feeds two members' metric snapshots, as they arrive in
// /metrics?format=json, through the rollup and the cluster exposition:
// neither may panic, every histogram a member served is either rolled up
// or named skewed, never both, every counter is either rolled up or
// named overflowed, the rollup JSON-encodes, and every rolled-up
// histogram has the layout the exposition indexes (one count per bound
// plus +Inf, bounds strictly increasing).
func FuzzAggregate(f *testing.F) {
	good := `{"histograms":{"h":{"bounds":[1,2],"counts":[1,0,0],"sum":0.5,"count":1}}}`
	f.Add(good, good)
	f.Add(`{"histograms":{"h":{"bounds":[1,2],"counts":[1]}}}`, good)
	f.Add(good, `{"histograms":{"h":{"bounds":[2,1],"counts":[0,0,1],"count":1}}}`)
	f.Add(`{"counters":{"c":1},"gauges":{"g":2}}`, `{"histograms":{"h":{"bounds":[],"counts":[-1],"count":-1}}}`)
	f.Add(`{"counters":{"c":9223372036854775807},"gauges":{"g":1.5e308}}`, `{"counters":{"c":1},"gauges":{"g":1.5e308}}`)
	f.Fuzz(func(t *testing.T, a, b string) {
		states := map[string]*InstanceState{}
		for name, doc := range map[string]string{"a": a, "b": b} {
			var snap telemetry.Snapshot
			if json.Unmarshal([]byte(doc), &snap) != nil {
				return
			}
			states[name] = &InstanceState{Identity: telemetry.Identity{Instance: name, Role: "shard"}, Metrics: snap}
		}
		agg := Aggregate(states)
		writeClusterPrometheus(io.Discard, agg)
		for _, st := range states {
			for n := range st.Metrics.Histograms {
				_, rolled := agg.Cluster.Histograms[n]
				if rolled == slices.Contains(agg.Cluster.SkewedHistograms, n) {
					t.Fatalf("histogram %q: rolled up %v, skewed %v", n, rolled, !rolled)
				}
			}
		}
		for _, st := range states {
			for n := range st.Metrics.Counters {
				if _, rolled := agg.Cluster.Counters[n]; rolled == slices.Contains(agg.Cluster.Overflowed, n) {
					t.Fatalf("counter %q: rolled up %v, overflowed %v", n, rolled, !rolled)
				}
			}
		}
		if _, err := json.Marshal(agg); err != nil {
			t.Fatalf("the rollup does not encode: %v", err)
		}
		for n, h := range agg.Cluster.Histograms {
			if len(h.Counts) != len(h.Bounds)+1 {
				t.Fatalf("rolled-up %q has %d counts for %d bounds", n, len(h.Counts), len(h.Bounds))
			}
			for i := 1; i < len(h.Bounds); i++ {
				if !(h.Bounds[i] > h.Bounds[i-1]) {
					t.Fatalf("rolled-up %q has bounds %v", n, h.Bounds)
				}
			}
		}
	})
}
