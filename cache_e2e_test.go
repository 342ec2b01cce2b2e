package repro

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingDB wraps a database, counting — and optionally delaying or
// gating — Query calls once armed. Arming happens after BuildSummaries,
// so sampling traffic is not counted: only the search fan-out is.
type countingDB struct {
	SearchableDatabase
	armed   atomic.Bool
	queries atomic.Int64
	delay   time.Duration
	block   chan struct{}
}

func (d *countingDB) Query(terms []string, limit int) (int, []int) {
	if d.armed.Load() {
		d.queries.Add(1)
		if d.delay > 0 {
			time.Sleep(d.delay)
		}
		if d.block != nil {
			<-d.block
		}
	}
	return d.SearchableDatabase.Query(terms, limit)
}

func totalQueries(dbs []*countingDB) int64 {
	var n int64
	for _, d := range dbs {
		n += d.queries.Load()
	}
	return n
}

// buildCountingMetasearcher is buildTestMetasearcher with every
// database wrapped in a countingDB, hedging off (a hedge would double
// a gated node's Query count).
func buildCountingMetasearcher(t *testing.T, opts Options) (*Metasearcher, []*countingDB) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	if opts.SampleSize == 0 {
		opts.SampleSize = 30
	}
	opts.Resilience.HedgeAfter = -1
	m := New(opts)
	for _, topic := range topicOrder {
		if err := m.Train(topic, topicDocs(rng, topic, 20)); err != nil {
			t.Fatal(err)
		}
	}
	var dbs []*countingDB
	add := func(name, topic, cat string, n int) {
		t.Helper()
		d := &countingDB{SearchableDatabase: NewLocalDatabaseFromTerms(name, analyzed(m, topicDocs(rng, topic, n)))}
		if err := m.AddDatabase(d, cat); err != nil {
			t.Fatal(err)
		}
		dbs = append(dbs, d)
	}
	add("cardio", "Heart", "Heart", 80)
	add("onco", "Cancer", "Cancer", 90)
	add("futbol", "Soccer", "Soccer", 70)
	if err := m.BuildSummaries(); err != nil {
		t.Fatal(err)
	}
	return m, dbs
}

func arm(dbs []*countingDB) {
	for _, d := range dbs {
		d.armed.Store(true)
	}
}

// TestRepeatedQueryServedFromCache is the gateway acceptance core: the
// second identical query is answered entirely from the result cache —
// identical results, no upstream fan-out, CacheHit on both the response
// and the audit record.
func TestRepeatedQueryServedFromCache(t *testing.T) {
	m, dbs := buildCountingMetasearcher(t, Options{Seed: 5})
	reg := m.Metrics()
	arm(dbs)
	const query = "blood pressure hypertension"

	r1, err := m.Search(context.Background(), SearchRequest{Query: query, MaxDBs: 2, PerDB: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHit || r1.Collapsed {
		t.Errorf("first query reported a cache hit: %+v", r1)
	}
	if len(r1.Results) == 0 {
		t.Fatal("first query returned no results")
	}
	cold := totalQueries(dbs)
	if cold == 0 {
		t.Fatal("no upstream queries counted on the cold path")
	}

	r2, err := m.Search(context.Background(), SearchRequest{Query: query, MaxDBs: 2, PerDB: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit {
		t.Error("second identical query was not a result-cache hit")
	}
	if !reflect.DeepEqual(r1.Results, r2.Results) {
		t.Errorf("cached results differ:\ncold: %+v\n hit: %+v", r1.Results, r2.Results)
	}
	if !reflect.DeepEqual(r1.Selections, r2.Selections) {
		t.Errorf("cached selections differ")
	}
	if got := totalQueries(dbs); got != cold {
		t.Errorf("cache hit still queried upstream: %d calls, want %d", got, cold)
	}
	if got := reg.Counter("result_cache_hits_total").Value(); got != 1 {
		t.Errorf("result_cache_hits_total = %d, want 1", got)
	}

	// The hit's audit record carries the cache flag and no node calls —
	// the fan-out evidence lives in the record that populated the cache.
	rec := m.Audit().Last()
	if rec == nil || !rec.CacheHit {
		t.Fatalf("audit record of the hit = %+v, want CacheHit", rec)
	}
	if len(rec.Nodes) != 0 {
		t.Errorf("cache-hit audit record has %d node calls, want 0", len(rec.Nodes))
	}
	if rec.Merged != len(r2.Results) {
		t.Errorf("cache-hit audit record merged = %d, want %d", rec.Merged, len(r2.Results))
	}
}

// TestSelectionCacheSharedAcrossPerDB: changing perDB misses the result
// tier (different retrieval depth) but still reuses the cached
// selection decision.
func TestSelectionCacheSharedAcrossPerDB(t *testing.T) {
	m, dbs := buildCountingMetasearcher(t, Options{Seed: 5})
	reg := m.Metrics()
	arm(dbs)
	const query = "tumor chemotherapy radiation"

	r1, err := m.Search(context.Background(), SearchRequest{Query: query, MaxDBs: 2, PerDB: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r1.SelectionCacheHit {
		t.Error("cold query claimed a selection-cache hit")
	}
	cold := totalQueries(dbs)

	r2, err := m.Search(context.Background(), SearchRequest{Query: query, MaxDBs: 2, PerDB: 7})
	if err != nil {
		t.Fatal(err)
	}
	if r2.CacheHit {
		t.Error("different perDB must miss the result tier")
	}
	if !r2.SelectionCacheHit {
		t.Error("selection decision was not reused across perDB")
	}
	if got := totalQueries(dbs); got <= cold {
		t.Error("result-tier miss did not fan out")
	}
	if got := reg.Counter("selection_cache_hits_total").Value(); got != 1 {
		t.Errorf("selection_cache_hits_total = %d, want 1", got)
	}
	if !reflect.DeepEqual(r1.Selections, r2.Selections) {
		t.Errorf("selections differ across perDB:\n%+v\n%+v", r1.Selections, r2.Selections)
	}
}

// TestConcurrentIdenticalQueriesCollapse: N identical concurrent
// queries produce exactly one upstream fan-out (singleflight), and all
// N receive identical results. The gated backend blocks the one real
// fan-out until every other request has provably joined it (the
// collapse counter increments at join time), so the test is
// deterministic.
func TestConcurrentIdenticalQueriesCollapse(t *testing.T) {
	m, dbs := buildCountingMetasearcher(t, Options{Seed: 5})
	reg := m.Metrics()
	block := make(chan struct{})
	for _, d := range dbs {
		d.block = block
	}
	arm(dbs)
	const query = "goal penalty striker"
	const n = 6

	var wg sync.WaitGroup
	resps := make([]*SearchResponse, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = m.Search(context.Background(), SearchRequest{Query: query, MaxDBs: 2, PerDB: 5})
		}(i)
	}

	// Wait until the n-1 waiters have collapsed onto the in-flight load,
	// then let the gated fan-out finish.
	deadline := time.Now().Add(10 * time.Second)
	for reg.Counter("result_cache_collapsed_total").Value() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests collapsed",
				reg.Counter("result_cache_collapsed_total").Value(), n-1)
		}
		runtime.Gosched()
	}
	close(block)
	wg.Wait()

	owners := 0
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if len(resps[i].Results) == 0 {
			t.Fatalf("request %d returned no results", i)
		}
		if !reflect.DeepEqual(resps[i].Results, resps[0].Results) {
			t.Errorf("request %d results differ from request 0", i)
		}
		if !resps[i].CacheHit && !resps[i].Collapsed {
			owners++
		}
	}
	if owners != 1 {
		t.Errorf("%d requests claim to have fanned out, want exactly 1", owners)
	}

	// Exactly one fan-out reached the backends: every selected database
	// was queried once, no more.
	if got, want := totalQueries(dbs), int64(len(resps[0].Selections)); got != want {
		t.Errorf("upstream queries = %d, want %d (one per selected database)", got, want)
	}
}

// TestLoadInvalidatesCache: restoring summaries (Load) bumps the cache
// generation, so cached selections and results from the previous
// summary state are never served afterwards.
func TestLoadInvalidatesCache(t *testing.T) {
	m, dbs := buildCountingMetasearcher(t, Options{Seed: 5})
	reg := m.Metrics()
	var buf bytes.Buffer
	if err := m.save(&buf); err != nil {
		t.Fatal(err)
	}
	arm(dbs)
	const query = "blood pressure hypertension"

	r1, err := m.Search(context.Background(), SearchRequest{Query: query, MaxDBs: 2, PerDB: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r2, err := m.Search(context.Background(), SearchRequest{Query: query, MaxDBs: 2, PerDB: 5}); err != nil || !r2.CacheHit {
		t.Fatalf("warm-up hit failed: resp %+v err %v", r2, err)
	}
	cold := totalQueries(dbs)

	// Load keeps the registered databases' live handles, so the same
	// wrapped backends serve the re-queried fan-out.
	if err := m.load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}

	r3, err := m.Search(context.Background(), SearchRequest{Query: query, MaxDBs: 2, PerDB: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r3.CacheHit || r3.Collapsed || r3.SelectionCacheHit {
		t.Errorf("query after Load was served from cache: %+v", r3)
	}
	if got := totalQueries(dbs); got <= cold {
		t.Error("query after Load did not re-fan-out")
	}
	// Same summaries were reloaded, so the re-computed answer matches.
	if !reflect.DeepEqual(r1.Results, r3.Results) {
		t.Errorf("results changed across Load of identical summaries:\n%+v\n%+v", r1.Results, r3.Results)
	}
	// Save and Load each bump the generation of both tiers.
	for _, name := range []string{"selection_cache_invalidations_total", "result_cache_invalidations_total"} {
		if got := reg.Counter(name).Value(); got < 2 {
			t.Errorf("%s = %d, want >= 2 (Save + Load)", name, got)
		}
	}
}

// TestCacheHitLatency enforces the performance contract: a result-cache
// hit must cost well under a tenth of the cold path (here the backends
// take ~100ms, so a hit has four orders of magnitude of headroom).
func TestCacheHitLatency(t *testing.T) {
	m, dbs := buildCountingMetasearcher(t, Options{Seed: 5})
	for _, d := range dbs {
		d.delay = 100 * time.Millisecond
	}
	arm(dbs)
	const query = "stadium trophy tournament"

	start := time.Now()
	if _, err := m.Search(context.Background(), SearchRequest{Query: query, MaxDBs: 2, PerDB: 5}); err != nil {
		t.Fatal(err)
	}
	cold := time.Since(start)
	if cold < 100*time.Millisecond {
		t.Fatalf("cold path took %v despite a 100ms backend delay", cold)
	}

	start = time.Now()
	r, err := m.Search(context.Background(), SearchRequest{Query: query, MaxDBs: 2, PerDB: 5})
	warm := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !r.CacheHit {
		t.Fatal("second query was not a cache hit")
	}
	if warm > cold/10 {
		t.Errorf("cache hit took %v, want < 10%% of the %v cold path", warm, cold)
	}
}

// TestSelectCached: the plain Select API also flows through the
// selection cache, and a disabled cache (CacheConfig.Disable) behaves
// exactly as before — every call recomputes.
func TestSelectCached(t *testing.T) {
	m := buildTestMetasearcher(t, Options{Seed: 5})
	reg := m.Metrics()
	s1, err := m.Select("blood pressure hypertension", 2)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := m.Select("blood pressure hypertension", 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("cached selection differs: %+v vs %+v", s1, s2)
	}
	if got := reg.Counter("selection_cache_hits_total").Value(); got != 1 {
		t.Errorf("selection_cache_hits_total = %d, want 1", got)
	}

	off := buildTestMetasearcher(t, Options{Seed: 5, Cache: CacheConfig{Disable: true}})
	if _, err := off.Select("blood pressure hypertension", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := off.Select("blood pressure hypertension", 2); err != nil {
		t.Fatal(err)
	}
	if got := off.Metrics().Counter("selection_cache_hits_total").Value(); got != 0 {
		t.Errorf("disabled cache recorded %d hits", got)
	}
}
