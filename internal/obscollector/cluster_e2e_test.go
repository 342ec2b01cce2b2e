package obscollector_test

// The collector end-to-end test: a live 2-shard cluster (router,
// shard metasearchers, dbnode wire servers — every "process" with its
// own registry, tracer, and span ring, exactly as the commands wire
// them) is scraped by a Collector, and the scraped state must satisfy
// the observability plane's contract:
//
//  1. /debug/cluster/metrics rollups equal the sum of the per-instance
//     scrapes (counters and merged histograms);
//  2. /debug/cluster/trace/{id} reassembles a hedged, retried query's
//     spans from every process into one rooted tree with no orphans;
//  3. a gateway-latency exemplar in the aggregated snapshot carries a
//     trace ID that resolves to such a tree.
//
// Run with -race: the fleet serves concurrent hedged fan-outs while
// the collector scrapes over HTTP.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/audit"
	"repro/internal/experiments"
	"repro/internal/gateway"
	"repro/internal/index"
	"repro/internal/obscollector"
	"repro/internal/resilience"
	"repro/internal/router"
	"repro/internal/shardmap"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

type e2eDB struct {
	name     string
	category string
	docs     [][]string
}

func e2eTestbed(t *testing.T, n int) ([]e2eDB, []string) {
	t.Helper()
	w, err := experiments.BuildWorld(experiments.Web, experiments.TestScale())
	if err != nil {
		t.Fatal(err)
	}
	lexicon := experiments.SanitizeAll(w.Lexicon)
	var dbs []e2eDB
	for _, db := range w.Bed.Databases[:n] {
		docs := make([][]string, db.Index.NumDocs())
		for id := range docs {
			docs[id] = experiments.SanitizeAll(db.Index.Doc(index.DocID(id)))
		}
		dbs = append(dbs, e2eDB{name: db.Name, category: w.Bed.Tree.Node(db.Category).Name, docs: docs})
	}
	return dbs, lexicon
}

func e2eOptions(lexicon []string, ring *telemetry.RingCapture) repro.Options {
	return repro.Options{
		SampleSize:    60,
		SeedLexicon:   lexicon,
		Seed:          1,
		KeepStopwords: true,
		NoStemming:    true,
		Observer:      ring,
		Cache:         repro.CacheConfig{Disable: true},
		// Hedge (nearly) every node call so the assembled trace includes
		// hedged duplicates.
		Resilience: repro.ResilienceOptions{HedgeAfter: time.Microsecond},
	}
}

// failFirstAttempts, while armed, answers every first wire attempt
// (request ID "r<seq>.0") with a transient 503 and serves retries
// untouched. A single-shot fault is the wrong tool under a 1µs hedge:
// the hedge twin usually wins and cancels the attempt that drew the
// 503 before it retries. Failing each twin's first attempt means
// whichever twin answers has retried.
type failFirstAttempts struct {
	next     http.Handler
	armed    atomic.Bool
	injected atomic.Int64
}

func (f *failFirstAttempts) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.armed.Load() && strings.HasSuffix(r.Header.Get(telemetry.HeaderRequestID), ".0") {
		f.injected.Add(1)
		wire.WriteError(w, http.StatusServiceUnavailable, wire.CodeUnavailable, "injected transient failure (armed)")
		return
	}
	f.next.ServeHTTP(w, r)
}

// member serves one process's debug surface next to its payload routes,
// the way cmd/metasearch and cmd/dbnode assemble their muxes.
func member(t *testing.T, id telemetry.Identity, reg *telemetry.Registry, ring *telemetry.RingCapture, auditLog *audit.Log, payload map[string]http.Handler) (*httptest.Server, obscollector.Target) {
	t.Helper()
	mux := http.NewServeMux()
	for path, h := range payload {
		mux.Handle(path, h)
	}
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/export/spans", telemetry.ExportSpansHandler(id, ring))
	mux.Handle("/debug/export/queries", auditLog.ExportHandler(id))
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, obscollector.Target{Identity: id, BaseURL: srv.URL}
}

func TestCollectorClusterE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a full testbed and cluster")
	}
	dbs, lexicon := e2eTestbed(t, 4)

	// Offline summary build, shared by every shard.
	builder := repro.New(e2eOptions(lexicon, nil))
	for _, d := range dbs {
		if err := builder.AddDatabase(repro.NewLocalDatabaseFromTerms(d.name, d.docs), d.category); err != nil {
			t.Fatal(err)
		}
	}
	if err := builder.BuildSummaries(); err != nil {
		t.Fatal(err)
	}
	stateFile := filepath.Join(t.TempDir(), "state.json")
	if err := builder.SaveFile(stateFile); err != nil {
		t.Fatal(err)
	}

	var targets []obscollector.Target

	// One dbnode process per database; the first one can be armed to
	// fail first attempts with a transient 503, forcing the calling
	// shard's replica set into a retry.
	var armed *failFirstAttempts
	replicaAddrs := map[string][]string{}
	for i, d := range dbs {
		reg := telemetry.NewRegistry()
		ring := telemetry.NewRingCapture(0)
		id := telemetry.Identity{Instance: "dbnode-" + d.name, Role: "dbnode"}
		var payload http.Handler = wire.NewServer(
			repro.NewLocalDatabaseFromTerms(d.name, d.docs),
			wire.ServerOptions{Category: d.category, Metrics: reg, Tracer: telemetry.NewTracer(ring)})
		if i == 0 {
			armed = &failFirstAttempts{next: payload}
			payload = armed
		}
		srv, target := member(t, id, reg, ring, nil, map[string]http.Handler{"/v1/": payload})
		replicaAddrs[d.name] = []string{strings.TrimPrefix(srv.URL, "http://")}
		targets = append(targets, target)
	}

	topo := &shardmap.Topology{
		Version: shardmap.TopologyVersion,
		Shards: []shardmap.Shard{
			{ID: "shard-00", Addr: "pending:0"},
			{ID: "shard-01", Addr: "pending:0"},
		},
	}
	for _, d := range dbs {
		topo.Databases = append(topo.Databases, shardmap.Database{
			Name: d.name, Category: d.category, Replicas: replicaAddrs[d.name]})
	}

	// Boot the shards: each a full metasearcher over its topology slice,
	// tracing into its own ring, fronted by its own gateway.
	for i := range topo.Shards {
		shID := topo.Shards[i].ID
		assigns, err := topo.ShardAssignments(shID)
		if err != nil {
			t.Fatal(err)
		}
		if len(assigns) == 0 {
			t.Fatalf("shard %s owns no databases", shID)
		}
		ring := telemetry.NewRingCapture(0)
		sm := repro.New(e2eOptions(lexicon, ring))
		for _, a := range assigns {
			rdb, err := repro.DialReplicatedDatabase(context.Background(), a.Replicas, repro.ReplicatedDatabaseOptions{
				Preferred: a.Preferred,
				Breakers:  sm.Breakers(),
				Metrics:   sm.Metrics(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := sm.AddDatabase(rdb, rdb.Category()); err != nil {
				t.Fatal(err)
			}
		}
		if err := sm.LoadFile(stateFile); err != nil {
			t.Fatal(err)
		}
		id := telemetry.Identity{Instance: shID, Role: "shard", Shard: shID}
		gw := gateway.For(sm.Search, gateway.Options{ShardID: shID, Metrics: sm.Metrics()})
		srv, target := member(t, id, sm.Metrics(), ring, sm.Audit(), map[string]http.Handler{
			gateway.PathSearch:  gw,
			gateway.PathHealthz: gw,
		})
		topo.Shards[i].Addr = strings.TrimPrefix(srv.URL, "http://")
		targets = append(targets, target)
	}

	// Boot the router in front of them.
	routerReg := telemetry.NewRegistry()
	routerRing := telemetry.NewRingCapture(0)
	breakers := resilience.NewSet(resilience.BreakerOptions{}, routerReg)
	rt, err := router.New(topo, router.Options{
		Metrics:  routerReg,
		Tracer:   telemetry.NewTracer(routerRing),
		Breakers: breakers,
	})
	if err != nil {
		t.Fatal(err)
	}
	routerID := telemetry.Identity{Instance: "router", Role: "router"}
	routerGW := gateway.For(rt.Search, gateway.Options{Metrics: routerReg, ShardHealth: rt.ShardHealth})
	routerSrv, routerTarget := member(t, routerID, routerReg, routerRing, nil, map[string]http.Handler{
		gateway.PathSearch:  routerGW,
		gateway.PathHealthz: routerGW,
	})
	targets = append(targets, routerTarget)

	// Drive queries through the router's gateway. The last one runs with
	// the first dbnode armed, so its trace includes a retried wire call.
	ask := func(q string) repro.SearchResponse {
		t.Helper()
		resp, err := http.Get(routerSrv.URL + gateway.PathSearch + "?q=" +
			strings.ReplaceAll(q, " ", "+") + "&k=3&perdb=5")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("search %q: HTTP %d", q, resp.StatusCode)
		}
		var reply repro.SearchResponse
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			t.Fatal(err)
		}
		if reply.TraceID == "" {
			t.Fatalf("search %q: no trace id in reply", q)
		}
		return reply
	}
	for _, d := range dbs {
		ask(d.docs[0][0] + " " + d.docs[0][1])
	}
	armed.armed.Store(true)
	retried := ask(dbs[0].docs[0][0] + " " + dbs[0].docs[0][1])
	armed.armed.Store(false)
	if armed.injected.Load() == 0 {
		t.Fatal("armed failure was never injected; the retry path is not exercised")
	}

	// Scrape the fleet and serve the assembled view the way -collect
	// does.
	c, err := obscollector.New(targets, obscollector.Options{Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	c.ScrapeOnce(context.Background())
	collectorSrv := httptest.NewServer(c.Handler())
	defer collectorSrv.Close()

	getJSON := func(path string, dst interface{}) int {
		t.Helper()
		resp, err := http.Get(collectorSrv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode
	}

	var agg obscollector.ClusterMetrics
	if code := getJSON("/debug/cluster/metrics?format=json", &agg); code != http.StatusOK {
		t.Fatalf("cluster metrics: HTTP %d", code)
	}
	for _, st := range agg.Instances {
		if st.Err != "" {
			t.Fatalf("scrape of %s failed: %s", st.Identity.Instance, st.Err)
		}
	}

	// (1) Rollups equal the sum of per-instance scrapes.
	for _, counter := range []string{"gateway_requests_total", "wire_requests_total"} {
		var sum int64
		for _, st := range agg.Instances {
			sum += st.Metrics.Counters[counter]
		}
		if sum == 0 {
			t.Errorf("%s: no instance reported a nonzero value", counter)
		}
		if got := agg.Cluster.Counters[counter]; got != sum {
			t.Errorf("%s rollup = %d, want per-instance sum %d", counter, got, sum)
		}
	}
	var latCount, latInstances int64
	for _, st := range agg.Instances {
		if h, ok := st.Metrics.Histograms["gateway_latency"]; ok && h.Count > 0 {
			latCount += h.Count
			latInstances++
		}
	}
	if latInstances < 2 {
		t.Fatalf("gateway_latency observed on %d instances, want router + shards", latInstances)
	}
	merged := agg.Cluster.Histograms["gateway_latency"]
	if merged.Count != latCount {
		t.Errorf("gateway_latency rollup count = %d, want %d", merged.Count, latCount)
	}
	var bucketSum int64
	for _, n := range merged.Counts {
		bucketSum += n
	}
	if bucketSum != latCount {
		t.Errorf("gateway_latency rollup buckets sum to %d, want %d", bucketSum, latCount)
	}
	if agg.Cluster.Counters["search_hedges_total"] == 0 {
		t.Error("no hedge recorded although HedgeAfter is 1µs")
	}
	if agg.Cluster.Counters["wire_client_retries_total"] == 0 {
		t.Error("no wire retry recorded although a 503 was injected")
	}

	// (2) The retried query's spans reassemble into one rooted tree
	// spanning router, shard, and dbnode, with no orphans.
	assertAssembled := func(traceID, label string) *obscollector.AssembledTrace {
		t.Helper()
		var tr obscollector.AssembledTrace
		if code := getJSON("/debug/cluster/trace/"+traceID, &tr); code != http.StatusOK {
			t.Fatalf("%s: trace %s: HTTP %d", label, traceID, code)
		}
		if len(tr.Roots) != 1 {
			t.Fatalf("%s: trace %s has %d roots, want 1", label, traceID, len(tr.Roots))
		}
		if tr.Orphans != 0 {
			t.Errorf("%s: trace %s has %d orphan spans", label, traceID, tr.Orphans)
		}
		if len(tr.Processes) < 3 {
			t.Errorf("%s: trace %s spans %d processes (%v), want >= 3",
				label, traceID, len(tr.Processes), tr.Processes)
		}
		roles := map[string]bool{}
		var walk func(spans []*obscollector.TraceSpan)
		walk = func(spans []*obscollector.TraceSpan) {
			for _, s := range spans {
				roles[s.Identity.Role] = true
				walk(s.Children)
			}
		}
		walk(tr.Roots)
		for _, want := range []string{"router", "shard", "dbnode"} {
			if !roles[want] {
				t.Errorf("%s: trace %s has no span from a %s process", label, traceID, want)
			}
		}
		return &tr
	}
	tr := assertAssembled(retried.TraceID, "retried query")
	if len(tr.Queries) == 0 {
		t.Error("retried query's trace carries no audit records")
	}
	// The tree shows the retry itself: some wire call's attempt 0
	// followed by its attempt 1 (request IDs r<seq>.0 then r<seq>.1).
	attempts := map[string]bool{}
	var collect func(spans []*obscollector.TraceSpan)
	collect = func(spans []*obscollector.TraceSpan) {
		for _, s := range spans {
			for _, e := range s.Events {
				if id, ok := e.Attrs["request_id"].(string); ok && e.Name == "wire.attempt" {
					attempts[id] = true
				}
			}
			collect(s.Children)
		}
	}
	collect(tr.Roots)
	sawRetry := false
	for id := range attempts {
		if base, ok := strings.CutSuffix(id, ".1"); ok && attempts[base+".0"] {
			sawRetry = true
		}
	}
	if !sawRetry {
		t.Errorf("retried query's trace shows no r<seq>.0 then r<seq>.1 wire call: %v", attempts)
	}

	// (3) A latency exemplar in the aggregated snapshot resolves to the
	// same kind of fully assembled cross-process trace.
	if len(merged.Exemplars) == 0 {
		t.Fatal("merged gateway_latency carries no exemplars")
	}
	for i, ex := range merged.Exemplars {
		if ex.TraceID == "" {
			t.Fatalf("exemplar %d has no trace id: %+v", i, ex)
		}
	}
	assertAssembled(merged.Exemplars[0].TraceID, "exemplar")

	// The traces index knows the retried query's trace.
	var known []obscollector.TraceSummary
	getJSON("/debug/cluster/traces", &known)
	found := false
	for _, k := range known {
		if k.TraceID == retried.TraceID {
			found = true
			if k.Processes < 3 {
				t.Errorf("trace index reports %d processes for %s", k.Processes, k.TraceID)
			}
		}
	}
	if !found {
		t.Errorf("trace %s missing from /debug/cluster/traces", retried.TraceID)
	}

	// An unknown trace 404s with a JSON error.
	var errBody map[string]string
	if code := getJSON("/debug/cluster/trace/ffffffffffffffff", &errBody); code != http.StatusNotFound {
		t.Errorf("unknown trace: HTTP %d, want 404", code)
	}
}
