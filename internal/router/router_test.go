package router

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro"
	"repro/internal/clock"
	"repro/internal/gateway"
	"repro/internal/resilience"
	"repro/internal/shardmap"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// fakeShard serves a canned repro.SearchResponse (or a canned failure)
// at /v1/search, and healthy /v1/healthz.
type fakeShard struct {
	t     *testing.T
	reply repro.SearchResponse
	// status != 0 forces an error response with that code.
	status atomic.Int64
	calls  atomic.Int64
	srv    *httptest.Server
}

func newFakeShard(t *testing.T, reply repro.SearchResponse) *fakeShard {
	f := &fakeShard{t: t, reply: reply}
	mux := http.NewServeMux()
	mux.HandleFunc(gateway.PathHealthz, func(w http.ResponseWriter, r *http.Request) {
		if f.status.Load() != 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	})
	mux.HandleFunc(gateway.PathSearch, func(w http.ResponseWriter, r *http.Request) {
		f.calls.Add(1)
		if code := int(f.status.Load()); code != 0 {
			if code == http.StatusTooManyRequests {
				w.Header().Set("Retry-After", "1")
			}
			wire.WriteError(w, code, wire.CodeUnavailable, "shard unhappy")
			return
		}
		json.NewEncoder(w).Encode(f.reply)
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeShard) addr() string { return strings.TrimPrefix(f.srv.URL, "http://") }

func testTopology(shards ...*fakeShard) *shardmap.Topology {
	topo := &shardmap.Topology{Version: shardmap.TopologyVersion}
	for i, f := range shards {
		topo.Shards = append(topo.Shards, shardmap.Shard{
			ID:   "shard-" + string(rune('a'+i)),
			Addr: f.addr(),
		})
	}
	// One database per shard keeps Validate happy; the router itself
	// never consults the assignment.
	for i := range shards {
		topo.Databases = append(topo.Databases, shardmap.Database{
			Name:     "db-" + string(rune('a'+i)) + ".example",
			Replicas: []string{"127.0.0.1:1"},
		})
	}
	return topo
}

func reply(results ...gateway.Result) repro.SearchResponse {
	return repro.SearchResponse{
		TraceID: "trace-1",
		Query:   "q",
		Terms:   []string{"q"},
		Scorer:  "cori",
		Selections: []gateway.Selection{
			{Database: "db-a.example", Score: 0.9, Shrinkage: true},
			{Database: "db-b.example", Score: 0.5},
		},
		Results: results,
	}
}

func TestMergeOrderAndTieBreaks(t *testing.T) {
	// Shard b's results interleave with shard a's; ties on score must
	// break by database name then doc id, regardless of arrival shard.
	a := newFakeShard(t, reply(
		gateway.Result{Database: "db-a.example", DocID: 2, Score: 0.9},
		gateway.Result{Database: "db-a.example", DocID: 7, Score: 0.45},
	))
	b := newFakeShard(t, reply(
		gateway.Result{Database: "db-b.example", DocID: 1, Score: 0.9},
		gateway.Result{Database: "db-b.example", DocID: 3, Score: 0.45},
		gateway.Result{Database: "db-a.example", DocID: 1, Score: 0.45},
	))
	rt, err := New(testTopology(a, b), Options{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := rt.Search(context.Background(), repro.SearchRequest{Query: "q", MaxDBs: 3, PerDB: 10})
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		db string
		id int
	}{
		{"db-a.example", 2}, // 0.9, db-a < db-b
		{"db-b.example", 1}, // 0.9
		{"db-a.example", 1}, // 0.45, doc 1 < doc 7
		{"db-a.example", 7},
		{"db-b.example", 3},
	}
	if len(resp.Results) != len(want) {
		t.Fatalf("got %d results, want %d: %+v", len(resp.Results), len(want), resp.Results)
	}
	for i, w := range want {
		if resp.Results[i].Database != w.db || resp.Results[i].DocID != w.id {
			t.Errorf("results[%d] = %s/%d, want %s/%d",
				i, resp.Results[i].Database, resp.Results[i].DocID, w.db, w.id)
		}
	}
	// Provenance comes from the first shard in sorted-ID order.
	if resp.Scorer != "cori" || len(resp.Selections) != 2 || resp.Selections[0].Database != "db-a.example" {
		t.Errorf("provenance not adopted from first shard: %+v", resp)
	}
	if len(resp.Terms) != 1 || resp.Terms[0] != "q" {
		t.Errorf("terms = %v, want [q]", resp.Terms)
	}
}

func TestMergeDedupesReplicatedResults(t *testing.T) {
	// Both shards own db-a (replication 2): its hits arrive twice with
	// identical scores and must merge to one copy each.
	shared := []gateway.Result{
		{Database: "db-a.example", DocID: 1, Score: 0.8},
		{Database: "db-a.example", DocID: 2, Score: 0.4},
	}
	a := newFakeShard(t, reply(shared...))
	b := newFakeShard(t, reply(append([]gateway.Result{
		{Database: "db-b.example", DocID: 9, Score: 0.6},
	}, shared...)...))
	reg := telemetry.NewRegistry()
	rt, err := New(testTopology(a, b), Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := rt.Search(context.Background(), repro.SearchRequest{Query: "q", MaxDBs: 3, PerDB: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3 after dedup: %+v", len(resp.Results), resp.Results)
	}
	if reg.Counter("router_dedup_dropped_total").Value() != 2 {
		t.Errorf("dedup_dropped = %d, want 2", reg.Counter("router_dedup_dropped_total").Value())
	}
}

func TestPartialShardFailureKeepsServing(t *testing.T) {
	a := newFakeShard(t, reply(gateway.Result{Database: "db-a.example", DocID: 1, Score: 0.7}))
	b := newFakeShard(t, reply(gateway.Result{Database: "db-b.example", DocID: 2, Score: 0.5}))
	b.status.Store(http.StatusInternalServerError)
	reg := telemetry.NewRegistry()
	rt, err := New(testTopology(a, b), Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := rt.Search(context.Background(), repro.SearchRequest{Query: "q", MaxDBs: 3, PerDB: 10})
	if err != nil {
		t.Fatalf("partial failure must not fail the query: %v", err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Database != "db-a.example" {
		t.Fatalf("expected only shard a's results, got %+v", resp.Results)
	}
	if reg.Counter("router_shard_errors_total").Value() != 1 {
		t.Errorf("shard_errors = %d, want 1", reg.Counter("router_shard_errors_total").Value())
	}
}

func TestAllShardsFailingErrors(t *testing.T) {
	a := newFakeShard(t, reply())
	b := newFakeShard(t, reply())
	a.status.Store(http.StatusInternalServerError)
	b.status.Store(http.StatusInternalServerError)
	rt, err := New(testTopology(a, b), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Search(context.Background(), repro.SearchRequest{Query: "q", MaxDBs: 3, PerDB: 10}); err == nil {
		t.Fatal("expected an error when every shard fails")
	}
}

func TestBreakerShortCircuitsFailingShard(t *testing.T) {
	a := newFakeShard(t, reply(gateway.Result{Database: "db-a.example", DocID: 1, Score: 0.7}))
	b := newFakeShard(t, reply())
	b.status.Store(http.StatusInternalServerError)
	reg := telemetry.NewRegistry()
	breakers := resilience.NewSet(resilience.BreakerOptions{Clock: clock.NewFake()}, reg)
	rt, err := New(testTopology(a, b), Options{Metrics: reg, Breakers: breakers})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := rt.Search(context.Background(), repro.SearchRequest{Query: "q", MaxDBs: 3, PerDB: 10}); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if st := breakers.Get("shard-b").State(); st != resilience.Open {
		t.Fatalf("shard-b breaker = %v, want Open", st)
	}
	before := b.calls.Load()
	if _, err := rt.Search(context.Background(), repro.SearchRequest{Query: "q", MaxDBs: 3, PerDB: 10}); err != nil {
		t.Fatal(err)
	}
	if b.calls.Load() != before {
		t.Error("open breaker did not short-circuit the failing shard")
	}
	if reg.Counter("router_shard_skipped_total").Value() == 0 {
		t.Error("router_shard_skipped_total did not count the short-circuit")
	}
}

func TestShedDoesNotTripBreaker(t *testing.T) {
	a := newFakeShard(t, reply(gateway.Result{Database: "db-a.example", DocID: 1, Score: 0.7}))
	b := newFakeShard(t, reply())
	b.status.Store(http.StatusTooManyRequests)
	reg := telemetry.NewRegistry()
	breakers := resilience.NewSet(resilience.BreakerOptions{Clock: clock.NewFake()}, reg)
	rt, err := New(testTopology(a, b), Options{Metrics: reg, Breakers: breakers})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := rt.Search(context.Background(), repro.SearchRequest{Query: "q", MaxDBs: 3, PerDB: 10}); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if st := breakers.Get("shard-b").State(); st != resilience.Closed {
		t.Fatalf("sheds tripped shard-b's breaker (state %v); they are backpressure, not failure", st)
	}
}

func TestProbeTargetsRecoverShard(t *testing.T) {
	a := newFakeShard(t, reply())
	rt, err := New(testTopology(a), Options{})
	if err != nil {
		t.Fatal(err)
	}
	targets := rt.ProbeTargets()
	if len(targets) != 1 || targets[0].Name != "shard-a" {
		t.Fatalf("targets = %+v", targets)
	}
	if err := targets[0].Ping(context.Background()); err != nil {
		t.Errorf("healthy shard ping failed: %v", err)
	}
	a.status.Store(http.StatusServiceUnavailable)
	if err := targets[0].Ping(context.Background()); err == nil {
		t.Error("draining shard ping succeeded")
	}
}

func TestCacheFlagsAreConjunctions(t *testing.T) {
	hit := reply(gateway.Result{Database: "db-a.example", DocID: 1, Score: 0.7})
	hit.CacheHit = true
	cold := reply(gateway.Result{Database: "db-b.example", DocID: 2, Score: 0.5})
	a := newFakeShard(t, hit)
	b := newFakeShard(t, cold)
	rt, err := New(testTopology(a, b), Options{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := rt.Search(context.Background(), repro.SearchRequest{Query: "q", MaxDBs: 3, PerDB: 10})
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHit {
		t.Error("CacheHit true although one shard fanned out")
	}
}
