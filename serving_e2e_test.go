package repro_test

import (
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	repro "repro"
	"repro/internal/gateway"
)

// topicDocs builds deterministic topical documents (the example_test
// pattern; the in-package helpers are out of reach of package
// repro_test).
func topicDocs(rng *rand.Rand, parts []string, n int) []string {
	docs := make([]string, n)
	for i := range docs {
		var sb strings.Builder
		for j := 0; j < 4; j++ {
			sb.WriteString(parts[rng.Intn(len(parts))])
			sb.WriteString(". ")
		}
		docs[i] = sb.String()
	}
	return docs
}

// buildServingStack assembles a small metasearcher behind an HTTP
// gateway.
func buildServingStack(t *testing.T) (*repro.Metasearcher, *httptest.Server) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	heart := []string{
		"blood pressure and hypertension management",
		"coronary artery disease treatment",
		"cardiac valve surgery outcomes",
	}
	soccer := []string{
		"the striker scored a late goal",
		"penalty decisions by the referee",
		"league championship standings",
	}
	m := repro.New(repro.Options{SampleSize: 30, Seed: 3})
	if err := m.Train("Heart", topicDocs(rng, heart, 20)); err != nil {
		t.Fatal(err)
	}
	if err := m.Train("Soccer", topicDocs(rng, soccer, 20)); err != nil {
		t.Fatal(err)
	}
	if err := m.AddDatabase(repro.NewLocalDatabaseFromTerms("cardio.example", analyzed(topicDocs(rng, heart, 80))), "Heart"); err != nil {
		t.Fatal(err)
	}
	if err := m.AddDatabase(repro.NewLocalDatabaseFromTerms("futbol.example", analyzed(topicDocs(rng, soccer, 80))), ""); err != nil {
		t.Fatal(err)
	}
	if err := m.BuildSummaries(); err != nil {
		t.Fatal(err)
	}

	gw := gateway.For(m.Search, gateway.Options{
		DefaultMaxDBs: 2,
		DefaultPerDB:  3,
		Metrics:       m.Metrics(),
	})
	mux := http.NewServeMux()
	mux.Handle(gateway.PathSearch, gw)
	mux.Handle(gateway.PathHealthz, gw)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return m, srv
}

// TestServingLoadE2E drives the full serving path — concurrent HTTP
// clients, gateway, caches, selection, fan-out — and checks that the
// gateway's request accounting describes exactly the requests that were
// sent.
func TestServingLoadE2E(t *testing.T) {
	m, srv := buildServingStack(t)

	queries := []string{
		"blood pressure",
		"coronary artery disease",
		"late goal",
		"penalty referee",
		"league standings",
	}
	const clients, perClient = 6, 15
	const sent = clients * perClient
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				q := url.Values{"q": {queries[(c+i)%len(queries)]}, "k": {"2"}, "perdb": {"3"}}
				resp, err := http.Get(srv.URL + gateway.PathSearch + "?" + q.Encode())
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("search %q: %s", q.Get("q"), resp.Status)
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	snap := m.Metrics().Snapshot()
	// Five queries asked ninety times repeat heavily: the cache must show.
	if snap.Counters["result_cache_hits_total"] == 0 {
		t.Fatal("no result-cache hits although every query repeats")
	}
	// The gateway's own accounting agrees with the client's.
	if got := snap.Counters["gateway_requests_total"]; got != sent {
		t.Fatalf("gateway saw %d requests, client issued %d", got, sent)
	}
	if got := snap.Histograms["gateway_latency"].Count; got != sent {
		t.Fatalf("gateway_latency has %d observations, want %d", got, sent)
	}
	if got := snap.Histograms["gateway_error_latency"].Count; got != 0 {
		t.Fatalf("gateway_error_latency has %d observations on a clean run", got)
	}
	if infl := snap.Gauges["gateway_requests_inflight"]; infl != 0 {
		t.Fatalf("inflight gauge %v after drain", infl)
	}
}

// TestServingSLOSeesFailures injects failures through the gateway (bad
// deadline → 504s) and checks the availability burn rate, computed from
// /metrics the way README "Measuring and SLOs" states it, moves.
func TestServingSLOSeesFailures(t *testing.T) {
	m, srv := buildServingStack(t)

	// A deadline too short for a cold query forces timeouts.
	for i := 0; i < 4; i++ {
		resp, err := http.Get(srv.URL + gateway.PathSearch + "?q=blood+pressure+" + string(rune('a'+i)) + "&timeout=1ns")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("1ns deadline answered %s, want 504", resp.Status)
		}
	}
	resp, err := http.Get(srv.URL + gateway.PathSearch + "?q=blood+pressure")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	snap := m.Metrics().Snapshot()
	good := snap.Histograms["gateway_latency"].Count
	bad := snap.Histograms["gateway_error_latency"].Count
	if good != 1 || bad != 4 {
		t.Fatalf("gateway_latency/gateway_error_latency counts = %d/%d, want 1/4", good, bad)
	}
	const budget = 1 - 0.999
	if burn := float64(bad) / float64(good+bad) / budget; burn <= 1 {
		t.Fatalf("burn rate %v after 4/5 requests failed", burn)
	}
}
