package obscollector

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/shardmap"
	"repro/internal/telemetry"
)

func TestTargetsFromTopology(t *testing.T) {
	topo := &shardmap.Topology{
		Shards: []shardmap.Shard{
			{ID: "shard-00", Addr: "127.0.0.1:8091"},
			{ID: "shard-01", Addr: "http://127.0.0.1:8092"},
		},
		Databases: []shardmap.Database{
			{Name: "db-a", Replicas: []string{"127.0.0.1:9301", "127.0.0.1:9302"}},
			{Name: "db-b", Replicas: []string{"127.0.0.1:9302", "127.0.0.1:9303"}},
		},
	}
	targets := TargetsFromTopology(topo, "127.0.0.1:8090")
	// Router + 2 shards + 3 distinct replicas (9302 serves two databases
	// but is one process).
	if len(targets) != 6 {
		t.Fatalf("got %d targets, want 6: %+v", len(targets), targets)
	}
	if targets[0].Identity.Role != "router" || targets[0].BaseURL != "http://127.0.0.1:8090" {
		t.Errorf("router target = %+v", targets[0])
	}
	if targets[1].Identity.Shard != "shard-00" || targets[1].Identity.Role != "shard" {
		t.Errorf("shard target = %+v", targets[1])
	}
	if targets[2].BaseURL != "http://127.0.0.1:8092" {
		t.Errorf("already-schemed shard addr mangled: %q", targets[2].BaseURL)
	}
	roles := map[string]int{}
	for _, tg := range targets {
		roles[tg.Identity.Role]++
	}
	if roles["dbnode"] != 3 {
		t.Errorf("dbnode targets = %d, want 3 (replica dedup)", roles["dbnode"])
	}

	if got := TargetsFromTopology(topo, ""); len(got) != 5 {
		t.Errorf("without router: %d targets, want 5", len(got))
	}
}

func histSnap(bounds []float64, counts []int64, sum float64, count int64, ex ...telemetry.Exemplar) telemetry.HistogramSnapshot {
	return telemetry.HistogramSnapshot{Bounds: bounds, Counts: counts, Sum: sum, Count: count, Exemplars: ex}
}

func TestAggregateRollup(t *testing.T) {
	bounds := []float64{0.1, 1}
	states := map[string]*InstanceState{
		"a": {
			Identity: telemetry.Identity{Instance: "a", Role: "shard", Shard: "shard-00"},
			Metrics: telemetry.Snapshot{
				Counters: map[string]int64{"requests_total": 3, "only_a_total": 7},
				Gauges:   map[string]float64{"inflight": 2},
				Histograms: map[string]telemetry.HistogramSnapshot{
					"latency": histSnap(bounds, []int64{1, 2, 0}, 0.9, 3,
						telemetry.Exemplar{Value: 0.8, TraceID: "trace-a"}),
				},
				Help: map[string]string{"requests_total": "Requests served."},
			},
		},
		"b": {
			Identity: telemetry.Identity{Instance: "b", Role: "shard", Shard: "shard-01"},
			Metrics: telemetry.Snapshot{
				Counters: map[string]int64{"requests_total": 5},
				Gauges:   map[string]float64{"inflight": 7},
				Histograms: map[string]telemetry.HistogramSnapshot{
					"latency": histSnap(bounds, []int64{0, 1, 1}, 3.1, 2,
						telemetry.Exemplar{Value: 2.5, TraceID: "trace-b"}),
				},
			},
		},
	}
	agg := Aggregate(states)
	if got := agg.Cluster.Counters["requests_total"]; got != 8 {
		t.Errorf("requests_total rollup = %d, want 8", got)
	}
	if got := agg.Cluster.Counters["only_a_total"]; got != 7 {
		t.Errorf("only_a_total rollup = %d, want 7", got)
	}
	g := agg.Cluster.Gauges["inflight"]
	if g.Min != 2 || g.Max != 7 || g.Sum != 9 || g.Instances != 2 {
		t.Errorf("inflight rollup = %+v", g)
	}
	h := agg.Cluster.Histograms["latency"]
	if !reflect.DeepEqual(h.Counts, []int64{1, 3, 1}) || h.Count != 5 || h.Sum != 4.0 {
		t.Errorf("latency rollup = %+v", h)
	}
	// Exemplars pool across members, value-descending.
	if len(h.Exemplars) != 2 || h.Exemplars[0].TraceID != "trace-b" || h.Exemplars[1].TraceID != "trace-a" {
		t.Errorf("merged exemplars = %+v", h.Exemplars)
	}
	if agg.Cluster.Help["requests_total"] != "Requests served." {
		t.Errorf("help not propagated: %q", agg.Cluster.Help["requests_total"])
	}
	// The source snapshots must not have been mutated by the merge.
	if states["a"].Metrics.Histograms["latency"].Counts[1] != 2 {
		t.Error("Aggregate mutated a member's snapshot")
	}
	if len(agg.Instances) != 2 || agg.Instances[0].Identity.Instance != "a" {
		t.Errorf("instances = %+v", agg.Instances)
	}
}

func TestAggregateSkewedHistograms(t *testing.T) {
	states := map[string]*InstanceState{
		"a": {Metrics: telemetry.Snapshot{Histograms: map[string]telemetry.HistogramSnapshot{
			"skew": histSnap([]float64{0.1, 1}, []int64{1, 0, 0}, 0.05, 1),
		}}},
		"b": {Metrics: telemetry.Snapshot{Histograms: map[string]telemetry.HistogramSnapshot{
			"skew": histSnap([]float64{0.5, 2}, []int64{1, 0, 0}, 0.3, 1),
		}}},
	}
	agg := Aggregate(states)
	if _, ok := agg.Cluster.Histograms["skew"]; ok {
		t.Error("bounds-mismatched histogram was merged anyway")
	}
	if !reflect.DeepEqual(agg.Cluster.SkewedHistograms, []string{"skew"}) {
		t.Errorf("SkewedHistograms = %v", agg.Cluster.SkewedHistograms)
	}
}

// TestAggregateRejectsMalformedHistograms: a member's snapshot arrives
// over the network, so a histogram no registry could have written —
// too few counts for its bounds, bounds out of order, a negative count,
// a Count above the counts' sum — is kept out of the rollup like a
// layout mismatch, and the exposition renders without it.
func TestAggregateRejectsMalformedHistograms(t *testing.T) {
	good := `{"bounds":[1,2],"counts":[1,0,0],"sum":0.5,"count":1}`
	for _, bad := range []string{
		`{"bounds":[1,2],"counts":[1]}`,
		`{"bounds":[2,1],"counts":[1,0,0],"sum":0.5,"count":1}`,
		`{"bounds":[1,1],"counts":[1,0,0],"sum":0.5,"count":1}`,
		`{"bounds":[1,2],"counts":[2,-1,0],"sum":0.5,"count":1}`,
		`{"bounds":[1,2],"counts":[1,0,0],"sum":0.5,"count":2}`,
		`{"bounds":[1,2],"counts":[1,0,0],"sum":0.5,"count":-1}`,
	} {
		member := func(h string) *InstanceState {
			var snap telemetry.Snapshot
			doc := `{"counters":{"requests_total":1},"histograms":{"latency":` + h + `,"other":` + good + `}}`
			if err := json.Unmarshal([]byte(doc), &snap); err != nil {
				t.Fatal(err)
			}
			return &InstanceState{Identity: telemetry.Identity{Instance: "m", Role: "shard"}, Metrics: snap}
		}
		// The malformed member alone, and after a well-formed one.
		for _, states := range []map[string]*InstanceState{
			{"a": member(bad)},
			{"a": member(good), "b": member(bad)},
		} {
			agg := Aggregate(states)
			if _, ok := agg.Cluster.Histograms["latency"]; ok {
				t.Errorf("%s: malformed histogram rolled up", bad)
			}
			if !reflect.DeepEqual(agg.Cluster.SkewedHistograms, []string{"latency"}) {
				t.Errorf("%s: SkewedHistograms = %v, want [latency]", bad, agg.Cluster.SkewedHistograms)
			}
			var b strings.Builder
			writeClusterPrometheus(&b, agg)
			if !strings.Contains(b.String(), "other_count ") || strings.Contains(b.String(), "latency") {
				t.Errorf("%s: exposition:\n%s", bad, b.String())
			}
		}
	}
}

// TestAggregateRejectsOverflowingTotals: two well-formed members whose
// sums add past the largest float64 would roll up to a +Inf sum, which
// has no JSON encoding, and counts that add past the largest int64 wrap
// negative. Each such histogram is named skewed instead, and the JSON
// endpoint still answers with the whole document; a value that cannot
// be encoded is a 500, not a 200 with an empty body.
func TestAggregateRejectsOverflowingTotals(t *testing.T) {
	member := func() *InstanceState {
		return &InstanceState{Metrics: telemetry.Snapshot{Histograms: map[string]telemetry.HistogramSnapshot{
			"latency": histSnap([]float64{1, 2}, []int64{0, 0, 1}, 1.5e308, 1),
			"queue":   histSnap([]float64{1, 2}, []int64{0, 1 << 62, 0}, 1.5, 1<<62),
			"other":   histSnap([]float64{1, 2}, []int64{1, 0, 0}, 0.5, 1),
		}}}
	}
	agg := Aggregate(map[string]*InstanceState{"a": member(), "b": member()})
	for _, name := range []string{"latency", "queue"} {
		if h, ok := agg.Cluster.Histograms[name]; ok {
			t.Errorf("overflowing histogram %s rolled up: %+v", name, h)
		}
	}
	if !reflect.DeepEqual(agg.Cluster.SkewedHistograms, []string{"latency", "queue"}) {
		t.Errorf("SkewedHistograms = %v, want [latency queue]", agg.Cluster.SkewedHistograms)
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, agg)
	var got ClusterMetrics
	if err := json.Unmarshal(rec.Body.Bytes(), &got); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("code %d, decode error %v, body %q", rec.Code, err, rec.Body.String())
	}
	if got.Cluster.Histograms["other"].Sum != 1 {
		t.Errorf("other histogram = %+v", got.Cluster.Histograms["other"])
	}

	rec = httptest.NewRecorder()
	writeJSON(rec, map[string]float64{"sum": math.Inf(1)})
	if rec.Code != http.StatusInternalServerError || rec.Header().Get("Content-Type") == "application/json" {
		t.Errorf("unencodable value: code %d, content type %q, body %q",
			rec.Code, rec.Header().Get("Content-Type"), rec.Body.String())
	}
}

// TestAggregateLeavesOverflowingSeriesOut: two members each serving a
// gauge of 1.5e308 would roll up to a +Inf sum, which has no JSON
// encoding and turned the whole /debug/cluster/metrics?format=json into
// a 500, and counters that add past the largest int64 (or below the
// smallest) would wrap. Each such series is left out and named in
// "overflowed"; the rest of the rollup is served.
func TestAggregateLeavesOverflowingSeriesOut(t *testing.T) {
	member := func() *InstanceState {
		return &InstanceState{Metrics: telemetry.Snapshot{
			Counters: map[string]int64{"big": 1 << 62, "low": -1 << 62, "ok": 2},
			Gauges:   map[string]float64{"huge": 1.5e308, "fine": 1.5},
		}}
	}
	agg := Aggregate(map[string]*InstanceState{"a": member(), "b": member(), "c": member()})
	rec := httptest.NewRecorder()
	writeJSON(rec, agg)
	var got struct {
		Cluster struct {
			Counters   map[string]int64          `json:"counters"`
			Gauges     map[string]map[string]any `json:"gauges"`
			Overflowed []string                  `json:"overflowed"`
		} `json:"cluster"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("code %d, decode error %v, body %q", rec.Code, err, rec.Body.String())
	}
	c := got.Cluster
	if _, ok := c.Gauges["huge"]; ok || c.Gauges["fine"]["sum"] != 4.5 {
		t.Errorf("gauges = %v, want huge left out and fine summed to 4.5", c.Gauges)
	}
	if _, big := c.Counters["big"]; big || c.Counters["ok"] != 6 {
		t.Errorf("counters = %v, want big left out and ok summed to 6", c.Counters)
	}
	if _, low := c.Counters["low"]; low {
		t.Errorf("counters = %v, want low left out", c.Counters)
	}
	if want := []string{"big", "huge", "low"}; !reflect.DeepEqual(c.Overflowed, want) {
		t.Errorf("overflowed = %v, want %v", c.Overflowed, want)
	}
}

// TestAggregateKeepsLiveSnapshots: a registry snapshot taken while the
// histogram observes may read a Count that trails its buckets. That is
// how a healthy member looks under load, so every such snapshot — and
// a hand-written one whose Count trails by one — still rolls up.
func TestAggregateKeepsLiveSnapshots(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("latency", []float64{0.001, 0.01, 0.1})
	stop := make(chan struct{})
	done := make(chan struct{})
	defer func() { close(stop); <-done }()
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				h.Observe(float64(i%4) * 0.005)
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		snap := reg.Snapshot()
		agg := Aggregate(map[string]*InstanceState{
			"a": {Identity: telemetry.Identity{Instance: "a", Role: "shard"}, Metrics: snap},
		})
		if _, ok := agg.Cluster.Histograms["latency"]; !ok || len(agg.Cluster.SkewedHistograms) != 0 {
			t.Fatalf("live snapshot %+v not rolled up", snap.Histograms["latency"])
		}
	}

	var snap telemetry.Snapshot
	if err := json.Unmarshal([]byte(`{"histograms":{"latency":{"bounds":[1,2],"counts":[1,1,0],"sum":1.5,"count":1}}}`), &snap); err != nil {
		t.Fatal(err)
	}
	agg := Aggregate(map[string]*InstanceState{"a": {Metrics: snap}})
	if _, ok := agg.Cluster.Histograms["latency"]; !ok || len(agg.Cluster.SkewedHistograms) != 0 {
		t.Errorf("trailing Count rejected: skewed %v", agg.Cluster.SkewedHistograms)
	}
}

func TestExemplarMergeCap(t *testing.T) {
	var a, b []telemetry.Exemplar
	for i := 0; i < telemetry.ExemplarCap; i++ {
		a = append(a, telemetry.Exemplar{Value: float64(10 + i), TraceID: fmt.Sprintf("a%d", i)})
		b = append(b, telemetry.Exemplar{Value: float64(i), TraceID: fmt.Sprintf("b%d", i)})
	}
	out := mergeExemplars(a, b)
	if len(out) != telemetry.ExemplarCap {
		t.Fatalf("merged exemplars = %d, want cap %d", len(out), telemetry.ExemplarCap)
	}
	for i := 1; i < len(out); i++ {
		if out[i].Value > out[i-1].Value {
			t.Fatalf("exemplars not value-descending: %+v", out)
		}
	}
	if out[0].Value != float64(10+telemetry.ExemplarCap-1) {
		t.Errorf("largest exemplar lost: %+v", out[0])
	}
}

// traceEvents builds a three-process trace: router root → shard child →
// dbnode grandchild, plus a point event on the shard span and an
// orphan whose parent no process exported.
func traceStates(traceID string) map[string]*InstanceState {
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	ev := func(kind, name string, span, parent uint64, at time.Duration, dur float64) telemetry.ExportedEvent {
		return telemetry.ExportedEvent{Kind: kind, Name: name, Trace: traceID,
			Span: span, Parent: parent, Time: t0.Add(at), Duration: dur}
	}
	return map[string]*InstanceState{
		"router": {
			Identity: telemetry.Identity{Instance: "router", Role: "router"},
			Spans: []telemetry.ExportedEvent{
				ev("start", "router.search", 1, 0, 0, 0),
				ev("end", "router.search", 1, 0, 40*time.Millisecond, 0.04),
			},
			Queries: []*audit.QueryRecord{{TraceID: traceID, Query: "q"}},
		},
		"shard": {
			Identity: telemetry.Identity{Instance: "shard", Role: "shard", Shard: "shard-00"},
			Spans: []telemetry.ExportedEvent{
				ev("start", "search", 100, 1, 5*time.Millisecond, 0),
				ev("point", "hedge", 100, 0, 12*time.Millisecond, 0),
				ev("end", "search", 100, 1, 30*time.Millisecond, 0.025),
				// Orphan: parent 999 was never exported.
				ev("start", "stray", 200, 999, 6*time.Millisecond, 0),
			},
		},
		"dbnode": {
			Identity: telemetry.Identity{Instance: "dbnode", Role: "dbnode"},
			Spans: []telemetry.ExportedEvent{
				ev("start", "wire.serve", 300, 100, 8*time.Millisecond, 0),
				ev("end", "wire.serve", 300, 100, 20*time.Millisecond, 0.012),
			},
		},
	}
}

func TestAssembleTrace(t *testing.T) {
	states := traceStates("t1")
	tr := AssembleTrace("t1", states)
	if tr == nil {
		t.Fatal("AssembleTrace returned nil")
	}
	if tr.Spans != 4 {
		t.Errorf("spans = %d, want 4", tr.Spans)
	}
	if tr.Orphans != 1 {
		t.Errorf("orphans = %d, want 1", tr.Orphans)
	}
	if len(tr.Roots) != 2 {
		t.Fatalf("roots = %d, want 2 (true root + orphan)", len(tr.Roots))
	}
	if !reflect.DeepEqual(tr.Processes, []string{"dbnode", "router", "shard"}) {
		t.Errorf("processes = %v", tr.Processes)
	}
	root := tr.Roots[0]
	if root.Name != "router.search" || !root.Ended || root.Orphan {
		t.Fatalf("root = %+v", root)
	}
	if len(root.Children) != 1 || root.Children[0].Name != "search" {
		t.Fatalf("root children = %+v", root.Children)
	}
	child := root.Children[0]
	if child.Identity.Shard != "shard-00" {
		t.Errorf("child identity = %+v", child.Identity)
	}
	if len(child.Events) != 1 || child.Events[0].Name != "hedge" {
		t.Errorf("child point events = %+v", child.Events)
	}
	if len(child.Children) != 1 || child.Children[0].Name != "wire.serve" || child.Children[0].Identity.Role != "dbnode" {
		t.Fatalf("grandchild = %+v", child.Children)
	}
	if !tr.Roots[1].Orphan || tr.Roots[1].Name != "stray" {
		t.Errorf("orphan root = %+v", tr.Roots[1])
	}
	if len(tr.Queries) != 1 || tr.Queries[0].TraceID != "t1" {
		t.Errorf("queries = %+v", tr.Queries)
	}

	if AssembleTrace("no-such-trace", states) != nil {
		t.Error("unknown trace should assemble to nil")
	}
}

func TestAssembleTraceEndWithoutStart(t *testing.T) {
	states := map[string]*InstanceState{
		"p": {
			Identity: telemetry.Identity{Instance: "p", Role: "shard"},
			Spans: []telemetry.ExportedEvent{{
				Kind: "end", Name: "search", Trace: "t2", Span: 5,
				Time: time.Date(2026, 8, 8, 12, 0, 1, 0, time.UTC), Duration: 0.5,
			}},
		},
	}
	tr := AssembleTrace("t2", states)
	if tr == nil || tr.Spans != 1 {
		t.Fatalf("trace = %+v", tr)
	}
	s := tr.Roots[0]
	if !s.Ended || s.DurationSeconds != 0.5 {
		t.Errorf("synthesized span = %+v", s)
	}
	// Start is back-derived from end time minus duration.
	if want := time.Date(2026, 8, 8, 12, 0, 0, 500e6, time.UTC); !s.Start.Equal(want) {
		t.Errorf("synthesized start = %v, want %v", s.Start, want)
	}
}

func TestKnownTraces(t *testing.T) {
	states := traceStates("t1")
	later := traceStates("t9")
	// Shift t9's events later and merge both fleets' spans into one
	// state set under distinct instances.
	merged := map[string]*InstanceState{}
	for k, v := range states {
		merged[k] = v
	}
	for k, v := range later {
		for i := range v.Spans {
			v.Spans[i].Time = v.Spans[i].Time.Add(time.Hour)
		}
		merged[k+"-9"] = v
	}
	traces := KnownTraces(merged)
	if len(traces) != 2 {
		t.Fatalf("traces = %+v", traces)
	}
	if traces[0].TraceID != "t9" || traces[1].TraceID != "t1" {
		t.Errorf("traces not newest-first: %+v", traces)
	}
	if traces[1].Spans != 4 || traces[1].Processes != 3 {
		t.Errorf("t1 summary = %+v", traces[1])
	}
}

// fakeMember is an httptest fleet member serving a metrics snapshot and
// a span export.
func fakeMember(t *testing.T, snap telemetry.Snapshot, spans telemetry.SpanExport, fail *bool) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if fail != nil && *fail {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(snap)
	})
	mux.HandleFunc("/debug/export/spans", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(spans)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestScrapeOnceKeepsStaleStateOnFailure(t *testing.T) {
	fail := false
	snap := telemetry.Snapshot{Counters: map[string]int64{"requests_total": 11}}
	spans := telemetry.SpanExport{Version: telemetry.SpanExportVersion,
		Events: []telemetry.ExportedEvent{{Kind: "start", Name: "s", Trace: "t", Span: 1}}}
	srv := fakeMember(t, snap, spans, &fail)

	reg := telemetry.NewRegistry()
	c, err := New([]Target{{Identity: telemetry.Identity{Instance: "m1", Role: "shard"}, BaseURL: srv.URL}},
		Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	c.ScrapeOnce(context.Background())
	st := c.States()["m1"]
	if st == nil || st.Err != "" {
		t.Fatalf("first scrape = %+v", st)
	}
	if st.Metrics.Counters["requests_total"] != 11 || len(st.Spans) != 1 {
		t.Fatalf("scraped state = %+v", st)
	}

	fail = true
	c.ScrapeOnce(context.Background())
	st = c.States()["m1"]
	if st.Err == "" {
		t.Fatal("failed scrape did not record an error")
	}
	// Stale beats absent: the previous payload survives under the error.
	if st.Metrics.Counters["requests_total"] != 11 || len(st.Spans) != 1 {
		t.Errorf("failed scrape dropped the stale payload: %+v", st)
	}
	if got := reg.Snapshot().Counters["collector_scrape_errors_total"]; got != 1 {
		t.Errorf("collector_scrape_errors_total = %d, want 1", got)
	}
}

func TestSetTargetsSwapsScrapeSet(t *testing.T) {
	snap := telemetry.Snapshot{Counters: map[string]int64{"requests_total": 1}}
	old := fakeMember(t, snap, telemetry.SpanExport{}, nil)
	fresh := fakeMember(t, snap, telemetry.SpanExport{}, nil)

	c, err := New([]Target{{Identity: telemetry.Identity{Instance: "old", Role: "dbnode"}, BaseURL: old.URL}},
		Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.ScrapeOnce(context.Background())
	if c.States()["old"] == nil {
		t.Fatal("initial target not scraped")
	}
	if c.Generation() != 0 {
		t.Fatalf("Generation = %d before any SetTargets, want 0", c.Generation())
	}

	c.SetTargets([]Target{{Identity: telemetry.Identity{Instance: "new", Role: "dbnode"}, BaseURL: fresh.URL}}, 2)
	if c.Generation() != 2 {
		t.Fatalf("Generation = %d, want 2", c.Generation())
	}
	// The departed member's state is dropped immediately...
	if c.States()["old"] != nil {
		t.Fatal("removed target's state survived the swap")
	}
	// ...and the next sweep scrapes only the new set.
	c.ScrapeOnce(context.Background())
	states := c.States()
	if states["old"] != nil {
		t.Fatal("removed target resurrected by a later sweep")
	}
	if st := states["new"]; st == nil || st.Err != "" {
		t.Fatalf("swapped-in target state = %+v, want a clean scrape", st)
	}
	if got := c.Targets(); len(got) != 1 || got[0].Identity.Instance != "new" {
		t.Fatalf("Targets = %+v, want only the swapped-in member", got)
	}
}

func TestScrapeRejectsVersionMismatch(t *testing.T) {
	snap := telemetry.Snapshot{Counters: map[string]int64{"x_total": 1}}
	spans := telemetry.SpanExport{Version: telemetry.SpanExportVersion + 1,
		Events: []telemetry.ExportedEvent{{Kind: "start", Name: "s", Trace: "t", Span: 1}}}
	srv := fakeMember(t, snap, spans, nil)
	c, err := New([]Target{{Identity: telemetry.Identity{Instance: "m1"}, BaseURL: srv.URL}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.ScrapeOnce(context.Background())
	st := c.States()["m1"]
	if st.Err != "" {
		t.Fatalf("metrics scrape should still succeed: %+v", st)
	}
	if len(st.Spans) != 0 {
		t.Error("spans from a future export version were accepted")
	}
}

func TestProfileIndexAndPrune(t *testing.T) {
	dir := t.TempDir()
	p := &profiler{dir: dir, keep: 2}
	// Instance names keep their dashes after sanitize; the index must
	// still split stamp/instance/kind correctly.
	files := []string{
		"20260808T120000-127.0.0.1_8091-cpu.pprof",
		"20260808T120100-127.0.0.1_8091-cpu.pprof",
		"20260808T120200-shard-00-cpu.pprof",
		"20260808T120000-shard-00-heap.pprof",
		"not-a-profile.txt",
	}
	for _, f := range files {
		if err := os.WriteFile(filepath.Join(dir, f), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	idx := p.index()
	if len(idx) != 4 {
		t.Fatalf("index = %+v", idx)
	}
	// Newest first.
	if idx[0].File != "20260808T120200-shard-00-cpu.pprof" {
		t.Errorf("index[0] = %+v", idx[0])
	}
	if idx[0].Instance != "shard-00" || idx[0].Kind != "cpu" {
		t.Errorf("dashed instance parsed wrong: %+v", idx[0])
	}
	if want := time.Date(2026, 8, 8, 12, 2, 0, 0, time.UTC); !idx[0].Time.Equal(want) {
		t.Errorf("stamp parsed wrong: %v", idx[0].Time)
	}

	p.prune()
	idx = p.index()
	kinds := map[string]int{}
	for _, pi := range idx {
		kinds[pi.Kind]++
	}
	if kinds["cpu"] != 2 || kinds["heap"] != 1 {
		t.Errorf("after prune: %+v", idx)
	}
	for _, pi := range idx {
		if pi.File == "20260808T120000-127.0.0.1_8091-cpu.pprof" {
			t.Error("prune kept the oldest cpu profile")
		}
	}
}

// rollupStates is a router and a shard whose labels need no escaping,
// with help text that does.
func rollupStates() map[string]*InstanceState {
	bounds := []float64{0.005, 0.1, 1, 25}
	return map[string]*InstanceState{
		"127.0.0.1:8090": {
			Identity: telemetry.Identity{Instance: "127.0.0.1:8090", Role: "router"},
			Metrics: telemetry.Snapshot{
				Counters:   map[string]int64{"requests_total": 3, "big_total": 1234567890123},
				Gauges:     map[string]float64{"inflight": 2, "ratio": 0.125},
				Histograms: map[string]telemetry.HistogramSnapshot{"latency": histSnap(bounds, []int64{1, 2, 0, 4, 1}, 30.25, 8)},
				Help:       map[string]string{"requests_total": `Requests \ served.` + "\nSecond line.", "latency": "Latency, seconds."},
			},
		},
		"127.0.0.1:8091": {
			Identity: telemetry.Identity{Instance: "127.0.0.1:8091", Role: "shard", Shard: "shard-00"},
			Metrics: telemetry.Snapshot{
				Counters:   map[string]int64{"requests_total": 5, "only_shard_total": 7},
				Gauges:     map[string]float64{"inflight": 7.5e-9, "ratio": 1e21},
				Histograms: map[string]telemetry.HistogramSnapshot{"latency": histSnap(bounds, []int64{0, 1, 1, 0, 0}, 0.6, 2)},
				Help:       map[string]string{"inflight": "In flight."},
			},
		},
	}
}

// TestClusterPrometheusGolden pins /debug/cluster/metrics byte for byte
// for labels that need no escaping.
func TestClusterPrometheusGolden(t *testing.T) {
	var b strings.Builder
	writeClusterPrometheus(&b, Aggregate(rollupStates()))
	want := `# TYPE big_total counter
big_total 1234567890123
big_total{instance="127.0.0.1:8090",role="router"} 1234567890123
# TYPE only_shard_total counter
only_shard_total 7
only_shard_total{instance="127.0.0.1:8091",role="shard",shard="shard-00"} 7
# HELP requests_total Requests \\ served.\nSecond line.
# TYPE requests_total counter
requests_total 8
requests_total{instance="127.0.0.1:8090",role="router"} 3
requests_total{instance="127.0.0.1:8091",role="shard",shard="shard-00"} 5
# HELP inflight In flight.
# TYPE inflight gauge
inflight{aggregate="min"} 7.5e-09
inflight{aggregate="max"} 2
inflight{aggregate="sum"} 2.0000000075
inflight{instance="127.0.0.1:8090",role="router"} 2
inflight{instance="127.0.0.1:8091",role="shard",shard="shard-00"} 7.5e-09
# TYPE ratio gauge
ratio{aggregate="min"} 0.125
ratio{aggregate="max"} 1e+21
ratio{aggregate="sum"} 1e+21
ratio{instance="127.0.0.1:8090",role="router"} 0.125
ratio{instance="127.0.0.1:8091",role="shard",shard="shard-00"} 1e+21
# HELP latency Latency, seconds.
# TYPE latency histogram
latency_bucket{le="0.005"} 1
latency_bucket{le="0.1"} 4
latency_bucket{le="1"} 5
latency_bucket{le="25"} 9
latency_bucket{le="+Inf"} 10
latency_sum 30.85
latency_count 10
`
	if got := b.String(); got != want {
		t.Errorf("cluster exposition:\n%s\nwant:\n%s", got, want)
	}
}

// TestClusterPrometheusEscapesLabels: member labels are escaped the way
// the text format defines — backslash, double quote and newline, and
// nothing else. A Go-quoted label would render the tab and the control
// byte as the letters \t and \x01, which name a different shard.
func TestClusterPrometheusEscapesLabels(t *testing.T) {
	states := rollupStates()
	states["127.0.0.1:8090"].Identity.Instance = `a"b\c`
	states["127.0.0.1:8091"].Identity.Shard = "s\t1\x01"
	states["127.0.0.1:8091"].Identity.Role = "sh\nard"
	var b strings.Builder
	writeClusterPrometheus(&b, Aggregate(states))
	out := b.String()
	for _, want := range []string{
		`requests_total{instance="a\"b\\c",role="router"} 3`,
		"requests_total{instance=\"127.0.0.1:8091\",role=\"sh\\nard\",shard=\"s\t1\x01\"} 5",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition lacks %q:\n%s", want, out)
		}
	}
}

// TestAssembleTraceJSONGolden pins the /debug/cluster/trace/{id}
// document for a trace with no cycle: its fields, their order and the
// attributes carried (start, end and point attributes).
func TestAssembleTraceJSONGolden(t *testing.T) {
	states := traceStates("t1")
	states["shard"].Spans[0].Attrs = map[string]interface{}{"db": "x", "k": 2.0}
	states["shard"].Spans[1].Attrs = map[string]interface{}{"hedge": true}
	states["shard"].Spans[2].Attrs = map[string]interface{}{"selected": 3.0}
	raw, err := json.Marshal(AssembleTrace("t1", states))
	if err != nil {
		t.Fatal(err)
	}
	want := `{"trace_id":"t1","spans":4,"orphans":1,"roots":[` +
		`{"name":"router.search","identity":{"instance":"router","role":"router"},"span":1,"start":"2026-08-08T12:00:00Z","duration_seconds":0.04,"ended":true,"children":[` +
		`{"name":"search","identity":{"instance":"shard","role":"shard","shard":"shard-00"},"span":100,"parent":1,"start":"2026-08-08T12:00:00.005Z","duration_seconds":0.025,"ended":true,"attrs":{"db":"x","k":2},"end_attrs":{"selected":3},"events":[{"name":"hedge","time":"2026-08-08T12:00:00.012Z","attrs":{"hedge":true}}],"children":[` +
		`{"name":"wire.serve","identity":{"instance":"dbnode","role":"dbnode"},"span":300,"parent":100,"start":"2026-08-08T12:00:00.008Z","duration_seconds":0.012,"ended":true}]}]},` +
		`{"name":"stray","identity":{"instance":"shard","role":"shard","shard":"shard-00"},"span":200,"parent":999,"start":"2026-08-08T12:00:00.006Z","ended":false,"orphan":true}],` +
		`"processes":["dbnode","router","shard"],` +
		`"queries":[{"id":0,"trace_id":"t1","time":"0001-01-01T00:00:00Z","query":"q","max_dbs":0,"per_db":0,"merged":0,"elapsed_seconds":0}]}`
	if string(raw) != want {
		t.Errorf("assembled trace:\n%s\nwant:\n%s", raw, want)
	}
}

// TestAssembleTraceParentCycle: spans whose parents form a cycle (2→3,
// 3→2) or point at themselves are reachable from no true root. Each
// must still appear exactly once, under an orphan root, so that Spans
// and Orphans describe what Roots shows.
func TestAssembleTraceParentCycle(t *testing.T) {
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	start := func(span, parent uint64, ms int) telemetry.ExportedEvent {
		return telemetry.ExportedEvent{Kind: "start", Name: fmt.Sprint("s", span), Trace: "tc",
			Span: span, Parent: parent, Time: t0.Add(time.Duration(ms) * time.Millisecond)}
	}
	states := map[string]*InstanceState{"p": {
		Identity: telemetry.Identity{Instance: "p", Role: "shard"},
		Spans:    []telemetry.ExportedEvent{start(1, 0, 0), start(2, 3, 1), start(3, 2, 2), start(4, 4, 3)},
	}}
	tr := AssembleTrace("tc", states)
	seen := map[uint64]int{}
	var walk func(ns []*telemetry.SpanNode)
	walk = func(ns []*telemetry.SpanNode) {
		for _, n := range ns {
			if seen[n.Span]++; seen[n.Span] > 1 {
				t.Fatalf("span %d reached twice", n.Span)
			}
			walk(n.Children)
		}
	}
	walk(tr.Roots)
	if len(seen) != 4 || tr.Spans != 4 {
		t.Errorf("roots reach spans %v of %d, want all 4", seen, tr.Spans)
	}
	orphans := 0
	for _, r := range tr.Roots {
		if r.Parent != 0 {
			orphans++
			if !r.Orphan {
				t.Errorf("root %d has parent %d but is not marked orphan", r.Span, r.Parent)
			}
		}
	}
	if orphans == 0 || tr.Orphans != orphans {
		t.Errorf("Orphans = %d, roots with a parent = %d; want equal and non-zero", tr.Orphans, orphans)
	}
}

// TestProfileOnceCapturesAndIndexes turns the sampler on against one
// member: a capture step writes one CPU and one heap profile, and
// /debug/cluster/profiles lists both.
func TestProfileOnceCapturesAndIndexes(t *testing.T) {
	var cpuQuery string
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/profile", func(w http.ResponseWriter, r *http.Request) {
		cpuQuery = r.URL.RawQuery
		w.Write([]byte("cpu profile"))
	})
	mux.HandleFunc("/debug/pprof/heap", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("heap profile"))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	dir := filepath.Join(t.TempDir(), "profiles")
	reg := telemetry.NewRegistry()
	c, err := New([]Target{{Identity: telemetry.Identity{Instance: "127.0.0.1:9001", Role: "dbnode"}, BaseURL: srv.URL}},
		Options{Metrics: reg, ProfileDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c.ProfileOnce(context.Background())
	if cpuQuery != fmt.Sprintf("seconds=%d", cpuSeconds) {
		t.Errorf("CPU profile requested with %q, want seconds=%d", cpuQuery, cpuSeconds)
	}
	if got := reg.Snapshot().Counters["collector_profiles_total"]; got != 2 {
		t.Errorf("collector_profiles_total = %d, want 2", got)
	}

	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/cluster/profiles", nil))
	var idx struct {
		Enabled bool          `json:"enabled"`
		Dir     string        `json:"dir"`
		Files   []ProfileInfo `json:"files"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &idx); err != nil {
		t.Fatal(err)
	}
	if !idx.Enabled || idx.Dir != dir || len(idx.Files) != 2 {
		t.Fatalf("profiles index = %+v, want enabled over %s with 2 files", idx, dir)
	}
	kinds := map[string]string{}
	for _, f := range idx.Files {
		if f.Instance != "127.0.0.1_9001" {
			t.Errorf("profile %s names instance %q", f.File, f.Instance)
		}
		raw, err := os.ReadFile(filepath.Join(dir, f.File))
		if err != nil {
			t.Fatal(err)
		}
		kinds[f.Kind] = string(raw)
	}
	if kinds["cpu"] != "cpu profile" || kinds["heap"] != "heap profile" {
		t.Errorf("captured profiles = %q, want one cpu and one heap file with the member's bytes", kinds)
	}
}
