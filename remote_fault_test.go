package repro

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/resilience"
	"repro/internal/wire"
)

// TestPipelineSurvivesFlakyNodes drives the full pipeline through nodes
// that reject 25% of all requests with injected 503s. The build and the
// search must both succeed (the replica set's retries plus the samplers'
// tolerance absorb the faults), and the client retry telemetry must
// reconcile exactly with the injected-fault ground truth: every
// injected failure is a failed attempt the client either retried
// (wire_client_retries_total) or gave up on (wire_request_errors_total).
func TestPipelineSurvivesFlakyNodes(t *testing.T) {
	shards, lexicon := testbedShards(t, 3)
	query := strings.Join([]string{shards[0].docs[0][0], shards[0].docs[0][1]}, " ")

	opts := testbedOptions(lexicon)
	// This test repeats the same query across a node death and asserts
	// the fan-out degrades; the result cache would answer from memory.
	opts.Cache.Disable = true
	m := New(opts)
	reg := m.Metrics()
	var flakies []*wire.Flaky
	var servers []*httptest.Server
	for i, s := range shards {
		flaky := wire.NewFlaky(
			wire.NewServer(NewLocalDatabaseFromTerms(s.name, s.docs),
				wire.ServerOptions{Category: s.category, Metrics: reg}),
			wire.FlakyOptions{FailureRate: 0.25, Seed: int64(1000 + i)})
		srv := httptest.NewServer(flaky)
		t.Cleanup(srv.Close)
		flakies = append(flakies, flaky)
		servers = append(servers, srv)
		rdb, err := DialReplicatedDatabase(context.Background(), []string{srv.URL}, ReplicatedDatabaseOptions{
			Metrics: reg,
			clock:   clock.NewInstant(), // retries without backoff waits
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddDatabase(rdb, rdb.Category()); err != nil {
			t.Fatal(err)
		}
	}

	if err := m.BuildSummaries(); err != nil {
		t.Fatalf("build over flaky nodes: %v", err)
	}
	results, err := m.Search(context.Background(), SearchRequest{Query: query, MaxDBs: 3, PerDB: 5})
	if err != nil {
		t.Fatalf("search over flaky nodes: %v", err)
	}
	if len(results.Results) == 0 {
		t.Fatal("search over flaky nodes returned no results")
	}

	// Reconcile client telemetry against the injected ground truth.
	var injected int64
	for _, f := range flakies {
		injected += f.Injected()
	}
	retries := reg.Counter("wire_client_retries_total").Value()
	errors := reg.Counter("wire_request_errors_total").Value()
	if injected == 0 {
		t.Fatal("fault injection never fired; the test is not exercising retries")
	}
	if retries+errors != injected {
		t.Errorf("retry accounting does not reconcile: %d injected != %d retries + %d terminal errors",
			injected, retries, errors)
	}
	if retries == 0 {
		t.Error("wire_client_retries_total is zero despite injected faults")
	}
	if lat := reg.Histogram("wire_request_latency", nil).Count(); lat == 0 {
		t.Error("wire_request_latency recorded no observations")
	}

	// The wire series must be visible on the exposition endpoint.
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, series := range []string{
		"wire_requests_total",
		"wire_client_retries_total",
		"wire_request_errors_total",
		"wire_request_latency",
		"wire_server_requests_total",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics is missing %s", series)
		}
	}

	// Kill one node outright: Search must degrade to the remaining two,
	// counting the dead database as unavailable rather than failing.
	unavailableBefore := reg.Counter("search_db_unavailable_total").Value()
	servers[0].Close()
	results, err = m.Search(context.Background(), SearchRequest{Query: query, MaxDBs: 3, PerDB: 5})
	if err != nil {
		t.Fatalf("search with a dead node: %v", err)
	}
	for _, r := range results.Results {
		if r.Database == shards[0].name {
			t.Fatalf("dead node %s contributed result %+v", shards[0].name, r)
		}
	}
	if got := reg.Counter("search_db_unavailable_total").Value(); got <= unavailableBefore {
		t.Errorf("search_db_unavailable_total did not grow past %d when a node died", unavailableBefore)
	}
}

// TestSearchNamesWhyNoDatabaseAnswered: when every selected database has
// a live handle but none answers, Search says how many were unavailable
// and how many short-circuited — not that the process has no handles.
func TestSearchNamesWhyNoDatabaseAnswered(t *testing.T) {
	shards, lexicon := testbedShards(t, 3)
	query := strings.Join([]string{shards[0].docs[0][0], shards[0].docs[0][1]}, " ")
	opts := testbedOptions(lexicon)
	opts.Cache.Disable = true
	m := New(opts)
	var servers []*httptest.Server
	for _, s := range shards {
		srv := httptest.NewServer(wire.NewServer(NewLocalDatabaseFromTerms(s.name, s.docs),
			wire.ServerOptions{Category: s.category}))
		t.Cleanup(srv.Close)
		servers = append(servers, srv)
		rdb, err := DialReplicatedDatabase(context.Background(), []string{srv.URL}, ReplicatedDatabaseOptions{
			clock: clock.NewInstant(), // retries without backoff waits
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddDatabase(rdb, rdb.Category()); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.BuildSummaries(); err != nil {
		t.Fatal(err)
	}
	resp, err := m.Search(context.Background(), SearchRequest{Query: query, MaxDBs: 3, PerDB: 5})
	if err != nil {
		t.Fatal(err)
	}
	selected := len(resp.Selections)

	for _, srv := range servers {
		srv.Close()
	}
	_, err = m.Search(context.Background(), SearchRequest{Query: query, MaxDBs: 3, PerDB: 5})
	want := fmt.Sprintf("none of the %d selected databases answered: %d unavailable, 0 short-circuited", selected, selected)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("every selected node down: err = %v, want %q", err, want)
	}

	for _, s := range shards {
		b := m.Breakers().Get(s.name)
		for b.State() != resilience.Open {
			b.Allow()
			b.Record(false)
		}
	}
	_, err = m.Search(context.Background(), SearchRequest{Query: query, MaxDBs: 3, PerDB: 5})
	want = fmt.Sprintf("none of the %d selected databases answered: 0 unavailable, %d short-circuited", selected, selected)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("every selected breaker open: err = %v, want %q", err, want)
	}
}
