package repro

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/replica"
	"repro/internal/resilience"
	"repro/internal/shardmap"
	"repro/internal/wire"
)

// switchable is an http.Handler whose behavior can be swapped at
// runtime, so a test can build summaries against healthy nodes and then
// flip individual nodes into failure modes without restarting servers
// (a restart would change the address and reset the connection).
type switchable struct {
	h atomic.Pointer[http.Handler]
}

func newSwitchable(h http.Handler) *switchable {
	s := &switchable{}
	s.Set(h)
	return s
}

func (s *switchable) Set(h http.Handler) { s.h.Store(&h) }

func (s *switchable) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

// chaosNode is one remote database under test control.
type chaosNode struct {
	shard   testShard
	healthy http.Handler
	sw      *switchable
	srv     *httptest.Server
}

// dialChaosNodes starts n switchable (initially healthy) wire servers
// over the first n testbed shards and registers them with m.
func dialChaosNodes(t *testing.T, m *Metasearcher, shards []testShard, opts replica.Options) []*chaosNode {
	t.Helper()
	nodes := make([]*chaosNode, len(shards))
	for i, s := range shards {
		healthy := wire.NewServer(NewLocalDatabaseFromTerms(s.name, s.docs),
			wire.ServerOptions{Category: s.category, Metrics: m.Metrics()})
		sw := newSwitchable(healthy)
		srv := httptest.NewServer(sw)
		t.Cleanup(srv.Close)
		rdb, err := replica.Dial(context.Background(), []string{srv.URL}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddDatabase(rdb, rdb.Category()); err != nil {
			t.Fatal(err)
		}
		nodes[i] = &chaosNode{shard: s, healthy: healthy, sw: sw, srv: srv}
	}
	return nodes
}

// nodeCall extracts one database's NodeCall from a query record.
func nodeCall(t *testing.T, rec *audit.QueryRecord, db string) audit.NodeCall {
	t.Helper()
	if rec == nil {
		t.Fatal("no audit record")
	}
	for _, c := range rec.Nodes {
		if c.Database == db {
			return c
		}
	}
	t.Fatalf("audit record has no node call for %s (selected: %v)", db, rec.Selected)
	return audit.NodeCall{}
}

// TestSearchSurvivesChaos is the resilience end-to-end: four remote
// nodes, summaries built while all are healthy, then one node is made
// to hang every request and another to fail every request. The first
// search must still merge the two healthy nodes' results well inside
// the deadline budget, hedging the hung node's call; the failures of
// the searches that follow trip the bad nodes' breakers, so the next
// search short-circuits them without touching the network, and
// /debug/breakers reports the same states the audit trail does.
func TestSearchSurvivesChaos(t *testing.T) {
	shards, lexicon := testbedShards(t, 4)

	const budget = 3 * time.Second
	opts := testbedOptions(lexicon)
	opts.Resilience = ResilienceOptions{
		DeadlineBudget: budget,
		HedgeAfter:     30 * time.Millisecond,
	}
	// The same query runs before and after the chaos is injected; the
	// point is the second fan-out, so the result cache is off.
	opts.Cache.Disable = true
	m := New(opts)
	reg := m.Metrics()
	nodes := dialChaosNodes(t, m, shards, replica.Options{
		Metrics: reg,
		Client:  replica.ClientOptions{Timeout: 150 * time.Millisecond},
		Clock:   clock.NewInstant(), // retries without backoff waits
	})
	if err := m.BuildSummaries(); err != nil {
		t.Fatal(err)
	}

	// Chaos: node 1 hangs every request (slower than any client
	// timeout), node 2 rejects every request with a transient 503.
	hung, erroring := nodes[1], nodes[2]
	hung.sw.Set(wire.NewFlaky(hung.healthy, wire.FlakyOptions{HangEvery: 1, HangFor: 2 * time.Second}))
	erroring.sw.Set(wire.NewFlaky(erroring.healthy, wire.FlakyOptions{FailureRate: 1, Seed: 7}))

	// Query with a word every shard's documents contain (the testbed's
	// general vocabulary), so selection fans out over all four nodes
	// and both healthy nodes have documents to contribute.
	query := sharedWord(t, shards)

	start := time.Now()
	results, err := m.Search(context.Background(), SearchRequest{Query: query, MaxDBs: 4, PerDB: 5})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("search with a hung and an erroring node: %v", err)
	}
	if len(results.Results) == 0 {
		t.Fatal("search returned no results despite two healthy nodes")
	}
	if elapsed >= budget {
		t.Errorf("search took %v, budget is %v: the hung node stalled the fan-out", elapsed, budget)
	}
	for _, r := range results.Results {
		if r.Database == hung.shard.name || r.Database == erroring.shard.name {
			t.Errorf("failed node %s contributed result %+v", r.Database, r)
		}
	}

	rec := m.Audit().Last()
	hungCall := nodeCall(t, rec, hung.shard.name)
	if !hungCall.Hedged {
		t.Errorf("hung node's call was not hedged: %+v", hungCall)
	}
	if !hungCall.Unavailable || hungCall.Error == "" {
		t.Errorf("hung node's call not audited as a failure: %+v", hungCall)
	}
	errCall := nodeCall(t, rec, erroring.shard.name)
	if !errCall.Unavailable || errCall.Error == "" {
		t.Errorf("erroring node's call not audited as a failure: %+v", errCall)
	}
	if errCall.Attempts != erroring.flakyInjected() {
		t.Errorf("erroring node: %d audited attempts, %d injected faults",
			errCall.Attempts, erroring.flakyInjected())
	}
	if got := reg.Counter("search_hedges_total").Value(); got == 0 {
		t.Error("search_hedges_total is zero despite a hung node")
	}

	// Each search records one failure per bad node; a few more trip
	// both breakers, well inside the cooldown.
	for i := 1; m.Breakers().Get(hung.shard.name).State() != resilience.Open ||
		m.Breakers().Get(erroring.shard.name).State() != resilience.Open; i++ {
		if i > 5 {
			t.Fatalf("bad nodes' breakers still %v/%v after %d failing searches",
				m.Breakers().Get(hung.shard.name).State(), m.Breakers().Get(erroring.shard.name).State(), i)
		}
		if _, err := m.Search(context.Background(), SearchRequest{Query: query, MaxDBs: 4, PerDB: 5}); err != nil {
			t.Fatalf("search %d with failing nodes: %v", i+1, err)
		}
	}
	// The next search must short-circuit them without touching the
	// network.
	hungRequests := hung.flakyRequests()
	shortCircuitsBefore := reg.Counter("search_breaker_open_total").Value()
	start = time.Now()
	results, err = m.Search(context.Background(), SearchRequest{Query: query, MaxDBs: 4, PerDB: 5})
	elapsed = time.Since(start)
	if err != nil {
		t.Fatalf("search with open breakers: %v", err)
	}
	if len(results.Results) == 0 {
		t.Fatal("second search returned no results")
	}
	if elapsed >= budget {
		t.Errorf("short-circuited search took %v, budget is %v", elapsed, budget)
	}
	if got := hung.flakyRequests(); got != hungRequests {
		t.Errorf("open breaker still sent %d requests to the hung node", got-hungRequests)
	}
	if got := reg.Counter("search_breaker_open_total").Value(); got < shortCircuitsBefore+2 {
		t.Errorf("search_breaker_open_total = %d, want at least %d (both bad nodes short-circuited)",
			got, shortCircuitsBefore+2)
	}
	rec = m.Audit().Last()
	for _, bad := range []*chaosNode{hung, erroring} {
		call := nodeCall(t, rec, bad.shard.name)
		if !call.BreakerOpen || call.BreakerState != "open" {
			t.Errorf("%s: call not audited as breaker-open: %+v", bad.shard.name, call)
		}
		if call.Unavailable {
			t.Errorf("%s: short-circuited call also marked Unavailable: %+v", bad.shard.name, call)
		}
	}

	// /debug/breakers must tell the same story as the audit trail.
	rw := httptest.NewRecorder()
	m.Breakers().Handler().ServeHTTP(rw, httptest.NewRequest("GET", "/debug/breakers", nil))
	var page struct {
		Breakers []resilience.BreakerSnapshot `json:"breakers"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &page); err != nil {
		t.Fatalf("/debug/breakers is not JSON: %v", err)
	}
	states := make(map[string]string, len(page.Breakers))
	for _, b := range page.Breakers {
		states[b.Database] = b.State
	}
	for i, n := range nodes {
		want := "closed"
		if n == hung || n == erroring {
			want = "open"
		}
		if states[n.shard.name] != want {
			t.Errorf("/debug/breakers: node %d (%s) state %q, want %q",
				i, n.shard.name, states[n.shard.name], want)
		}
	}
}

// flakyInjected returns the node's injected-503 count (zero while the
// healthy handler is installed).
func (n *chaosNode) flakyInjected() int64 {
	if f, ok := (*n.sw.h.Load()).(*wire.Flaky); ok {
		return f.Injected()
	}
	return 0
}

// flakyRequests returns how many requests reached the node's fault
// injector.
func (n *chaosNode) flakyRequests() int64 {
	if f, ok := (*n.sw.h.Load()).(*wire.Flaky); ok {
		return f.Requests()
	}
	return 0
}

// sharedWord returns a word from the first shard's first document that
// every shard's corpus contains — a query certain to score (and match
// documents in) every node.
func sharedWord(t *testing.T, shards []testShard) string {
	t.Helper()
	contains := func(s testShard, w string) bool {
		for _, d := range s.docs {
			for _, dw := range d {
				if dw == w {
					return true
				}
			}
		}
		return false
	}
	for _, w := range shards[0].docs[0] {
		everywhere := true
		for _, s := range shards[1:] {
			if !contains(s, w) {
				everywhere = false
				break
			}
		}
		if everywhere {
			return w
		}
	}
	t.Fatal("no word of the first document appears in every shard")
	return ""
}

// TestAutoHedgeFollowsNodeCallLatency pins the auto-tuned hedge
// threshold (HedgeAfter: 0): it is the nearest-rank p95 of the fan-out's
// own recent remote node calls, floored at hedgeFloor, and a configured
// HedgeAfter overrides it either way. The fan-out measures the calls it
// hedges itself, so a metasearcher whose remote handles were dialled
// without its registry (replica.Options{}) adapts all the same.
func TestAutoHedgeFollowsNodeCallLatency(t *testing.T) {
	m := New(Options{})
	if got := m.hedgeThreshold(); got != hedgeFloor {
		t.Errorf("threshold with no calls seen = %v, want the floor %v", got, hedgeFloor)
	}
	for i := 1; i <= 100; i++ {
		m.nodeLatency.observe(time.Duration(i) * time.Millisecond)
	}
	if got := m.nodeLatency.p95(); got != 95*time.Millisecond {
		t.Errorf("p95 of 1..100ms = %v, want 95ms (nearest rank)", got)
	}
	if got := m.hedgeThreshold(); got != hedgeFloor {
		t.Errorf("threshold with p95 under the floor = %v, want %v", got, hedgeFloor)
	}
	for i := 1; i <= 100; i++ {
		m.nodeLatency.observe(time.Duration(i) * 10 * time.Millisecond)
	}
	// 200 values held: rank 190 is the 90th of the slower hundred.
	if got := m.hedgeThreshold(); got != 900*time.Millisecond {
		t.Errorf("threshold with p95 above the floor = %v, want 900ms", got)
	}
	m.opts.Resilience.HedgeAfter = 40 * time.Millisecond
	if got := m.hedgeThreshold(); got != 40*time.Millisecond {
		t.Errorf("threshold with HedgeAfter 40ms = %v", got)
	}
	m.opts.Resilience.HedgeAfter = -1
	if got := m.hedgeThreshold(); got != 0 {
		t.Errorf("threshold with hedging disabled = %v, want 0", got)
	}
	m.opts.Resilience.HedgeAfter = 0
	// The ring forgets: a full ring of fast calls evicts the slow ones.
	for i := 0; i < latencyRingSize; i++ {
		m.nodeLatency.observe(time.Millisecond)
	}
	if got := m.hedgeThreshold(); got != hedgeFloor {
		t.Errorf("threshold after %d fast calls = %v, want the floor again", latencyRingSize, got)
	}

	// End to end: one remote node slower than the floor, its handle
	// dialled with no registry at all.
	const slow = hedgeFloor + 50*time.Millisecond
	shards, lexicon := testbedShards(t, 1)
	opts := testbedOptions(lexicon)
	opts.Cache.Disable = true
	m = New(opts)
	nodes := dialChaosNodes(t, m, shards, replica.Options{})
	if err := m.BuildSummaries(); err != nil {
		t.Fatal(err)
	}
	if got := m.hedgeThreshold(); got != hedgeFloor {
		t.Errorf("threshold after a build but no search = %v, want the floor: sampling traffic must not tune query hedging", got)
	}
	nodes[0].sw.Set(wire.NewFlaky(nodes[0].healthy, wire.FlakyOptions{Latency: slow}))
	if _, err := m.Search(context.Background(), SearchRequest{Query: sharedWord(t, shards), MaxDBs: 1, PerDB: 3}); err != nil {
		t.Fatal(err)
	}
	if got := m.hedgeThreshold(); got < slow {
		t.Errorf("threshold after a %v node call = %v, want at least that", slow, got)
	}
}

// TestHealthProbesCloseTrippedBreaker verifies that a probe schedule
// closes an open breaker as soon as its node answers /v1/health again,
// without any live query traffic: once the cooldown has passed on the
// metasearcher's clock, the next sweep's probe is the trial that
// closes it.
func TestHealthProbesCloseTrippedBreaker(t *testing.T) {
	shards, lexicon := testbedShards(t, 1)
	opts := testbedOptions(lexicon)
	clk := clock.NewFake()
	opts.clock = clk
	m := New(opts)
	dialChaosNodes(t, m, shards, replica.Options{Metrics: m.Metrics()})

	// Trip the node's breaker by hand.
	b := m.Breakers().Get(shards[0].name)
	for i := 0; b.State() != resilience.Open; i++ {
		if i == 10 {
			t.Fatalf("breaker still %v after %d recorded failures", b.State(), i)
		}
		b.Allow()
		b.Record(false)
	}

	stop := clock.Every(clk, time.Second, m.Probe)
	defer stop()
	clk.BlockUntil(1) // the schedule waits for its first sweep
	clk.Advance(resilience.BreakerCooldown)
	clk.BlockUntil(1) // that sweep is done and the next one waits
	if b.State() != resilience.Closed {
		t.Fatalf("breaker %v after a probe of the healthy node, want closed", b.State())
	}
	if got := m.Metrics().Counter("health_probes_total").Value(); got != 1 {
		t.Errorf("health_probes_total = %d, want 1", got)
	}
}

// TestReplicaBreakersRecordLastProbe: a health sweep over a database's
// replicas leaves each probe's outcome and time, on the metasearcher's
// clock, on that replica key's breaker, and /debug/breakers shows it.
func TestReplicaBreakersRecordLastProbe(t *testing.T) {
	shards, lexicon := testbedShards(t, 1)
	s := shards[0]
	opts := testbedOptions(lexicon)
	clk := clock.NewFake()
	opts.clock = clk
	m := New(opts)
	if err := m.AddDatabase(NewLocalDatabaseFromTerms(s.name, s.docs), s.category); err != nil {
		t.Fatal(err)
	}
	if err := m.BuildSummaries(); err != nil {
		t.Fatal(err)
	}
	live := httptest.NewServer(wire.NewServer(NewLocalDatabaseFromTerms(s.name, s.docs), wire.ServerOptions{Category: s.category}))
	t.Cleanup(live.Close)
	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close()
	addrs := []string{strings.TrimPrefix(live.URL, "http://"), strings.TrimPrefix(gone.URL, "http://")}
	if _, err := m.ApplyReplicaAssignments([]shardmap.Assignment{{Database: s.name, Category: s.category, Replicas: addrs}}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Minute)
	m.Probe(context.Background())

	rec := httptest.NewRecorder()
	m.Breakers().Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/breakers", nil))
	var body struct {
		Breakers []resilience.BreakerSnapshot `json:"breakers"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	served := make(map[string]resilience.BreakerSnapshot)
	for _, b := range body.Breakers {
		served[b.Database] = b
	}
	for i, addr := range addrs {
		b, ok := served[s.name+"@"+addr]
		switch {
		case !ok:
			t.Errorf("/debug/breakers has no breaker for replica %s", addr)
		case i == 0 && b.LastProbe != "ok", i == 1 && (b.LastProbe == "" || b.LastProbe == "ok"):
			t.Errorf("replica %s: last probe %q, want %s", addr, b.LastProbe, []string{"ok", "its error"}[i])
		case !b.LastProbeAt.Equal(clk.Now()):
			t.Errorf("replica %s: last probe at %v, want the metasearcher's clock %v", addr, b.LastProbeAt, clk.Now())
		}
	}
}

// TestPartialFailureMergeDeterminism pins down the degraded-mode
// contract: when one contributing node dies mid-flight, the merged
// ranking must equal the healthy ranking with exactly that node's
// results removed — same order, same scores — and the audit record's
// transport accounting must reconcile against the injected faults.
func TestPartialFailureMergeDeterminism(t *testing.T) {
	shards, lexicon := testbedShards(t, 3)
	opts := testbedOptions(lexicon)
	// Hedging off: this test wants exact attempt accounting, so every
	// failure must reach the node (two searches stay under the breakers'
	// minimum sample count, so none is short-circuited). The result cache
	// is off for the same reason — every Search must fan out.
	opts.Resilience = ResilienceOptions{HedgeAfter: -1}
	opts.Cache.Disable = true
	m := New(opts)
	nodes := dialChaosNodes(t, m, shards, replica.Options{
		Metrics: m.Metrics(),
		Client:  replica.ClientOptions{Timeout: time.Second},
		Clock:   clock.NewInstant(),
	})
	if err := m.BuildSummaries(); err != nil {
		t.Fatal(err)
	}

	query := strings.Join([]string{shards[0].docs[0][0], shards[0].docs[0][1]}, " ")
	full, err := m.Search(context.Background(), SearchRequest{Query: query, MaxDBs: 3, PerDB: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Results) == 0 {
		t.Fatal("healthy search returned no results")
	}

	// Break the node that contributed the top hit, so the survivor
	// ranking provably differs from the full one.
	var victim *chaosNode
	for _, n := range nodes {
		if n.shard.name == full.Results[0].Database {
			victim = n
		}
	}
	flaky := wire.NewFlaky(victim.healthy, wire.FlakyOptions{FailureRate: 1, Seed: 11})
	victim.sw.Set(flaky)

	degraded, err := m.Search(context.Background(), SearchRequest{Query: query, MaxDBs: 3, PerDB: 5})
	if err != nil {
		t.Fatalf("search with a failing node: %v", err)
	}
	var want []Result
	for _, r := range full.Results {
		if r.Database != victim.shard.name {
			want = append(want, r)
		}
	}
	if !reflect.DeepEqual(degraded.Results, want) {
		t.Errorf("degraded ranking is not the healthy ranking minus the dead node:\n got: %+v\nwant: %+v",
			degraded.Results, want)
	}

	// Every injected fault is an attempt the audit record accounts for:
	// with retries exhausted and no hedge, attempts == injected 503s.
	call := nodeCall(t, m.Audit().Last(), victim.shard.name)
	if !call.Unavailable || call.Error == "" {
		t.Errorf("victim's call not audited as a failure: %+v", call)
	}
	if call.Attempts != flaky.Injected() {
		t.Errorf("victim: %d audited attempts, %d injected faults", call.Attempts, flaky.Injected())
	}
	if call.Retries != call.Attempts-1 {
		t.Errorf("victim: %d retries for %d attempts", call.Retries, call.Attempts)
	}
}

// TestClientHangupsDoNotTripBreaker: a caller that gives up mid-fan-out
// (a /v1/search/stream client hanging up cancels every fan-out worker)
// says nothing about the node it was waiting on. Five searches are
// cancelled while a slow but healthy node holds their query; with the
// default breaker (three samples, half of them failures, trip it) its
// breaker must stay closed with no failure on record, and the node must
// serve the next search. The fan-out's own deadline budget running out
// on a node is the opposite case — a failure — and is pinned by
// TestSearchSurvivesChaos.
func TestClientHangupsDoNotTripBreaker(t *testing.T) {
	shards, lexicon := testbedShards(t, 2)
	opts := testbedOptions(lexicon)
	opts.Resilience.HedgeAfter = -1
	opts.Cache.Disable = true
	m := New(opts)
	nodes := dialChaosNodes(t, m, shards, replica.Options{Metrics: m.Metrics()})
	if err := m.BuildSummaries(); err != nil {
		t.Fatal(err)
	}
	slow := nodes[1]
	entered := make(chan struct{})
	release := make(chan struct{}) // the slow node answers only once this closes
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock() // a failed test must not leave handlers holding the server open
	slow.sw.Set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == wire.PathQuery {
			entered <- struct{}{}
			<-release
		}
		slow.healthy.ServeHTTP(w, r)
	}))
	query := sharedWord(t, shards)

	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() {
			_, err := m.Search(ctx, SearchRequest{Query: query, MaxDBs: 2, PerDB: 5})
			errc <- err
		}()
		select {
		case <-entered: // the slow node holds this search's query
		case err := <-errc:
			cancel()
			t.Fatalf("search %d finished (err %v) without calling the healthy node; its breaker is %s after %d hang-ups",
				i, err, m.Breakers().Get(slow.shard.name).State(), i)
		}
		cancel()
		if err := <-errc; err != context.Canceled {
			t.Fatalf("cancelled search %d: err = %v, want context.Canceled", i, err)
		}
	}
	b := m.Breakers().Get(slow.shard.name)
	if snap := b.Snapshot(); snap.State != "closed" || snap.Failures != 0 {
		t.Fatalf("after 5 client hang-ups the healthy node's breaker is %s with %d failures on record, want closed with none",
			snap.State, snap.Failures)
	}

	unblock()
	slow.sw.Set(slow.healthy)
	if _, err := m.Search(context.Background(), SearchRequest{Query: query, MaxDBs: 2, PerDB: 5}); err != nil {
		t.Fatal(err)
	}
	if call := nodeCall(t, m.Audit().Last(), slow.shard.name); call.BreakerOpen || call.Unavailable || call.Results == 0 {
		t.Errorf("the healthy node did not serve the search after the hang-ups: %+v", call)
	}
}

// TestRequestDeadlineTripsHungNodeBreaker is the other side of the
// verdict rule, in the shipped serving configuration: `metasearch -serve
// -deadline D` gives every request the deadline D and the fan-out the
// budget D, so the request's own deadline is the one that fires on a
// hung node. That is still a deadline running out on a node that did not
// answer — a failure, not a hang-up: after three such searches (the
// default breaker) the hung node is short-circuited and the searches
// that follow answer at once from the healthy node.
func TestRequestDeadlineTripsHungNodeBreaker(t *testing.T) {
	shards, lexicon := testbedShards(t, 2)
	const deadline = 200 * time.Millisecond
	opts := testbedOptions(lexicon)
	opts.Resilience = ResilienceOptions{
		DeadlineBudget: deadline,
		HedgeAfter:     -1,
	}
	opts.clock = clock.NewFake()
	opts.Cache.Disable = true
	m := New(opts)
	nodes := dialChaosNodes(t, m, shards, replica.Options{Metrics: m.Metrics()})
	if err := m.BuildSummaries(); err != nil {
		t.Fatal(err)
	}
	hung := nodes[1]
	release := make(chan struct{})
	defer close(release) // handlers must not hold the server open past the test
	hung.sw.Set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	query := sharedWord(t, shards)
	search := func() (*SearchResponse, error) {
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		defer cancel()
		return m.Search(ctx, SearchRequest{Query: query, MaxDBs: 2, PerDB: 5})
	}

	b := m.Breakers().Get(hung.shard.name)
	for i := 0; i < 3; i++ {
		if state := b.State(); state != resilience.Closed {
			t.Fatalf("breaker is %s after %d searches, want closed until the third", state, i)
		}
		if _, err := search(); err != context.DeadlineExceeded {
			t.Fatalf("search %d against the hung node: err = %v, want context.DeadlineExceeded", i, err)
		}
	}
	if snap := b.Snapshot(); snap.State != "open" {
		t.Fatalf("after 3 searches timed out on the hung node its breaker is %s (%d samples, %d failures), want open",
			snap.State, snap.Samples, snap.Failures)
	}
	for i := 3; i < 5; i++ {
		start := time.Now()
		resp, err := search()
		if err != nil {
			t.Fatalf("search %d with the hung node short-circuited: %v", i, err)
		}
		if len(resp.Results) == 0 {
			t.Fatalf("search %d with the hung node short-circuited: no results", i)
		}
		if elapsed := time.Since(start); elapsed >= deadline {
			t.Errorf("search %d took %v: the hung node still cost the whole deadline", i, elapsed)
		}
		if call := nodeCall(t, m.Audit().Last(), hung.shard.name); !call.BreakerOpen {
			t.Errorf("search %d: hung node's call not short-circuited: %+v", i, call)
		}
	}
}

// answeringTransport serves every replica of database "db" in process:
// /v1/query answers one match, every other path the node's identity.
type answeringTransport struct{ hosts []string }

func (tr *answeringTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	if req.URL.Path == wire.PathQuery {
		json.NewEncoder(rec).Encode(wire.QueryResponse{Matches: 1, IDs: []int{0}})
	} else {
		json.NewEncoder(rec).Encode(wire.InfoResponse{Name: "db", Protocol: wire.Version})
	}
	return rec.Result(), nil
}

// TestHedgedNodeCallDepositsOnce: a fan-out call to a replicated
// database with a hedge armed runs through two nested attempt loops
// (fan-out, replica set) and deposits into the retry budget once, for
// its one successful wire call.
func TestHedgedNodeCallDepositsOnce(t *testing.T) {
	m := New(Options{})
	tr := &answeringTransport{hosts: []string{"a:1", "b:1"}}
	d, err := replica.Dial(context.Background(), tr.hosts, replica.Options{
		Breakers: m.Breakers(),
		Client:   replica.ClientOptions{Budget: m.RetryBudget(), Transport: tr},
	})
	if err != nil {
		t.Fatal(err)
	}
	m.RetryBudget().TrySpend() // room below the cap for a deposit to show
	before := m.RetryBudget().Tokens()
	span := m.tracer.Span("search")
	defer span.End()
	if o := m.searchNode(context.Background(), span, d, "db", []string{"x"}, 1, time.Hour); !o.ok {
		t.Fatalf("node call failed: %+v", o.call)
	}
	if got := m.RetryBudget().Tokens() - before; got < 0.2-1e-9 || got > 0.2+1e-9 {
		t.Fatalf("one successful node call moved the budget by %v tokens, want one deposit (0.2)", got)
	}
}
