package repro

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/resilience"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// A one-replica set's attempt sequence: soloRetries retries of a
// transient failure after a jittered backoff, a shed retried after its
// Retry-After, nothing else retried, and every attempt numbered
// r<seq>.<attempt>.

// unitDB is the three-document database these tests serve.
func unitDB() *LocalDatabase {
	return NewLocalDatabaseFromTerms("unit", [][]string{
		{"heart", "blood", "pressure"},
		{"heart", "attack"},
		{"soccer", "goal"},
	})
}

// onQuery serves /v1/query through h, which may pass it on to the unit
// node (next), and every other path — the dial's /v1/info — from the
// node directly, so the dial is not what a test measures.
func onQuery(h func(w http.ResponseWriter, r *http.Request, next http.Handler)) http.Handler {
	next := wire.NewServer(unitDB(), wire.ServerOptions{})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != wire.PathQuery {
			next.ServeHTTP(w, r)
			return
		}
		h(w, r, next)
	})
}

// dialSolo dials the node at addr as a one-replica set whose wire series
// land in reg and whose backoff runs on clk (nil: an instant clock, so
// retries happen at once, whatever the schedule says).
func dialSolo(addr string, reg *telemetry.Registry, clk clock.Clock) (*ReplicatedDatabase, error) {
	if clk == nil {
		clk = clock.NewInstant()
	}
	return DialReplicatedDatabase(context.Background(), []string{addr}, ReplicatedDatabaseOptions{
		Metrics: reg,
		Client:  RemoteDatabaseOptions{Timeout: 2 * time.Second},
		clock:   clk,
	})
}

func mustDialSolo(t *testing.T, addr string, reg *telemetry.Registry, clk clock.Clock) *ReplicatedDatabase {
	t.Helper()
	d, err := dialSolo(addr, reg, clk)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSoloReplicaRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(onQuery(func(w http.ResponseWriter, r *http.Request, next http.Handler) {
		if calls.Add(1) <= 2 {
			wire.WriteError(w, http.StatusServiceUnavailable, wire.CodeUnavailable, "warming up")
			return
		}
		next.ServeHTTP(w, r)
	}))
	defer srv.Close()

	reg := telemetry.NewRegistry()
	d := mustDialSolo(t, srv.URL, reg, nil)
	matches, _, err := d.QueryContext(context.Background(), []string{"heart"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if matches != 2 {
		t.Errorf("matches = %d", matches)
	}
	if got := reg.Counter("wire_client_retries_total").Value(); got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
	if got := reg.Counter("wire_request_errors_total").Value(); got != 0 {
		t.Errorf("request errors = %d, want 0", got)
	}
}

func TestSoloReplicaRetryExhaustion(t *testing.T) {
	srv := httptest.NewServer(onQuery(func(w http.ResponseWriter, r *http.Request, _ http.Handler) {
		wire.WriteError(w, http.StatusServiceUnavailable, wire.CodeUnavailable, "down")
	}))
	defer srv.Close()
	reg := telemetry.NewRegistry()
	d := mustDialSolo(t, srv.URL, reg, nil)
	_, _, err := d.QueryContext(context.Background(), []string{"x"}, 1)
	var pe *wire.ProtocolError
	if !errors.As(err, &pe) || pe.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v", err)
	}
	if got := reg.Counter("wire_client_retries_total").Value(); got != soloRetries {
		t.Errorf("retries = %d, want %d", got, soloRetries)
	}
	if got := reg.Counter("wire_request_errors_total").Value(); got != 1 {
		t.Errorf("request errors = %d, want 1", got)
	}
}

func TestSoloReplicaDoesNotRetryPermanentErrors(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(onQuery(func(w http.ResponseWriter, r *http.Request, _ http.Handler) {
		calls.Add(1)
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "no")
	}))
	defer srv.Close()
	d := mustDialSolo(t, srv.URL, nil, nil)
	if _, _, err := d.QueryContext(context.Background(), []string{"x"}, 1); err == nil {
		t.Fatal("expected error")
	}
	if calls.Load() != 1 {
		t.Errorf("attempts = %d, want 1 (no retry on 400)", calls.Load())
	}
}

func TestSoloReplicaRetriesConnectionRefused(t *testing.T) {
	// A node that is down entirely: dial fails, every attempt retried,
	// the call ultimately errors.
	reg := telemetry.NewRegistry()
	if _, err := dialSolo("127.0.0.1:1", reg, nil); err == nil { // reserved port: connection refused
		t.Fatal("expected dial error")
	}
	if got := reg.Counter("wire_client_retries_total").Value(); got != soloRetries {
		t.Errorf("retries = %d, want %d", got, soloRetries)
	}
}

// TestSoloReplicaCancellationStopsRetrying cancels a call while it
// sleeps between retries: the sleep ends at once with the cancellation,
// and no further attempt is made.
func TestSoloReplicaCancellationStopsRetrying(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(onQuery(func(w http.ResponseWriter, r *http.Request, _ http.Handler) {
		calls.Add(1)
		wire.WriteError(w, http.StatusServiceUnavailable, wire.CodeUnavailable, "down")
	}))
	defer srv.Close()
	clk := clock.NewFake()
	d := mustDialSolo(t, srv.URL, nil, clk)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := d.QueryContext(ctx, []string{"x"}, 1)
		done <- err
	}()
	clk.BlockUntil(1) // the first attempt failed; the set sleeps before its retry
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("node saw %d attempts, want 1 (the cancelled backoff must not retry)", got)
	}
}

func TestSoloReplicaFlakyReconciliation(t *testing.T) {
	// Every injected failure must show up in client telemetry as either
	// a retry or a terminal request error: injected == retries + errors.
	reg := telemetry.NewRegistry()
	node := wire.NewServer(unitDB(), wire.ServerOptions{})
	flaky := wire.NewFlaky(node, wire.FlakyOptions{
		FailureRate: 0.4,
		Seed:        7,
	})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == wire.PathInfo {
			node.ServeHTTP(w, r) // the dial is not what is measured
			return
		}
		flaky.ServeHTTP(w, r)
	}))
	defer srv.Close()
	d := mustDialSolo(t, srv.URL, reg, nil)
	ctx := context.Background()

	for i := 0; i < 60; i++ {
		d.QueryContext(ctx, []string{"heart"}, 5) // errors allowed; telemetry must balance
		d.FetchContext(ctx, i%3)
	}
	retries := reg.Counter("wire_client_retries_total").Value()
	errs := reg.Counter("wire_request_errors_total").Value()
	if flaky.Injected() == 0 {
		t.Fatal("flaky injected nothing")
	}
	if retries+errs != flaky.Injected() {
		t.Errorf("retries(%d) + errors(%d) != injected(%d)", retries, errs, flaky.Injected())
	}
}

func TestSoloReplicaCallStatsAttributeRetriesPerCall(t *testing.T) {
	fail := wire.FailOnce(wire.NewServer(unitDB(), wire.ServerOptions{}))
	srv := httptest.NewServer(fail)
	defer srv.Close()
	d := mustDialSolo(t, srv.URL, nil, nil)

	ctx, stats := wire.WithCallStats(context.Background())
	fail.Arm()
	if _, _, err := d.QueryContext(ctx, []string{"heart"}, 1); err != nil {
		t.Fatal(err)
	}
	if stats.Attempts() != 2 || stats.Retries() != 1 {
		t.Errorf("stats = %d attempts / %d retries, want 2/1", stats.Attempts(), stats.Retries())
	}

	// A fresh stats context starts clean — per-call, not per-client.
	ctx2, stats2 := wire.WithCallStats(context.Background())
	if _, _, err := d.QueryContext(ctx2, []string{"heart"}, 1); err != nil {
		t.Fatal(err)
	}
	if stats2.Attempts() != 1 || stats2.Retries() != 0 {
		t.Errorf("stats2 = %d attempts / %d retries, want 1/0", stats2.Attempts(), stats2.Retries())
	}
	// Nil stats accessors are safe (no stats attached).
	var nilStats *wire.CallStats
	if nilStats.Attempts() != 0 || nilStats.Retries() != 0 {
		t.Error("nil CallStats accessors must return 0")
	}
}

func TestSoloReplicaRetryAttemptsShareSeqWithDistinctRequestIDs(t *testing.T) {
	fail := wire.FailOnce(wire.NewServer(unitDB(), wire.ServerOptions{}))
	srv := httptest.NewServer(fail)
	defer srv.Close()

	cap := &telemetry.Capture{}
	tracer := telemetry.NewTracer(cap)
	span := tracer.Span("caller")
	ctx := telemetry.ContextWithSpan(context.Background(), span)

	d := mustDialSolo(t, srv.URL, nil, nil)
	fail.Arm()
	if _, _, err := d.QueryContext(ctx, []string{"heart"}, 1); err != nil {
		t.Fatal(err)
	}
	span.End()

	node := cap.Find("caller")
	if node == nil || len(node.Events) != 2 {
		t.Fatalf("want 2 wire.attempt events, got %+v", node)
	}
	requestID := func(e telemetry.Event) string {
		for _, a := range e.Attrs {
			if a.Key == "request_id" {
				s, _ := a.Value.(string)
				return s
			}
		}
		return ""
	}
	id0, id1 := requestID(node.Events[0]), requestID(node.Events[1])
	base0 := strings.TrimSuffix(id0, ".0")
	base1 := strings.TrimSuffix(id1, ".1")
	if base0 == id0 || base1 == id1 || base0 != base1 {
		t.Errorf("attempt ids = %q, %q: want same r<seq> with .0/.1 suffixes", id0, id1)
	}
}

// slowQueryDB blocks Query until gate closes, so a test can hold a node's
// inflight slot open deterministically; entered receives once a query
// holds the slot.
type slowQueryDB struct {
	*LocalDatabase
	gate    <-chan struct{}
	entered chan struct{}
}

func (g *slowQueryDB) Query(terms []string, limit int) (int, []int) {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.gate
	return g.LocalDatabase.Query(terms, limit)
}

// TestSoloReplicaHonorsRetryAfterOnShedRetries: a shed's Retry-After
// replaces the backoff, capped at BackoffMax. The node asks for 7 s;
// moving the set's backoff clock on by the cap per retry must see the
// call through, so a peer cannot stall the caller past its own backoff
// ceiling.
func TestSoloReplicaHonorsRetryAfterOnShedRetries(t *testing.T) {
	reg := telemetry.NewRegistry()
	release := make(chan struct{})
	db := &slowQueryDB{LocalDatabase: unitDB(), gate: release, entered: make(chan struct{}, 1)}
	node := wire.NewNode(db, wire.ServerOptions{MaxInflight: 1, RetryAfter: 7, Metrics: reg})
	srv := httptest.NewServer(node)
	defer srv.Close()
	clk := clock.NewFake()
	d := mustDialSolo(t, srv.URL, reg, clk) // before the slot fills: /v1/info passes the gate too

	blockedErr := make(chan error, 1)
	c1 := wire.NewClient(srv.URL, wire.ClientOptions{Timeout: 5 * time.Second, Metrics: reg})
	go func() {
		_, _, err := c1.Query(context.Background(), wire.Attempt{Seq: wire.NextSeq()}, []string{"heart"}, 10)
		blockedErr <- err
	}()
	<-db.entered

	ctx, stats := wire.WithCallStats(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := d.QueryContext(ctx, []string{"heart"}, 10)
		done <- err
	}()
	start := clk.Now()
	for i := 0; i < soloRetries; i++ {
		clk.BlockUntil(1)
		clk.Advance(resilience.BackoffMax)
	}
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("call still sleeping after %d retries of %v: Retry-After was not capped", soloRetries, resilience.BackoffMax)
	}
	var pe *wire.ProtocolError
	if !errors.As(err, &pe) || !pe.Shed() {
		t.Fatalf("err = %v, want shed after exhausting retries", err)
	}
	if pe.RetryAfter != resilience.BackoffMax {
		t.Fatalf("RetryAfter = %v, want the cap %v", pe.RetryAfter, resilience.BackoffMax)
	}
	if got, want := clk.Now().Sub(start), soloRetries*resilience.BackoffMax; got != want {
		t.Fatalf("backoff clock moved %v, want %v", got, want)
	}
	if stats.Attempts() != soloRetries+1 || stats.Retries() != soloRetries || stats.Sheds() != soloRetries+1 {
		t.Fatalf("stats = attempts %d retries %d sheds %d, want %d/%d/%d",
			stats.Attempts(), stats.Retries(), stats.Sheds(), soloRetries+1, soloRetries, soloRetries+1)
	}

	close(release)
	<-blockedErr
}

// TestSoloReplicaRetriesHungAttempt: an attempt that hangs ends at the
// client's per-attempt timeout and is retried like any transient
// failure, so the call still answers.
func TestSoloReplicaRetriesHungAttempt(t *testing.T) {
	node := wire.NewServer(unitDB(), wire.ServerOptions{})
	flaky := wire.NewFlaky(node, wire.FlakyOptions{
		HangEvery: 2,                      // every second query hangs
		HangFor:   300 * time.Millisecond, // outlives the attempt timeout, not the test
		Seed:      1,
	})
	srv := httptest.NewServer(onQuery(func(w http.ResponseWriter, r *http.Request, _ http.Handler) {
		flaky.ServeHTTP(w, r)
	}))
	defer srv.Close()
	reg := telemetry.NewRegistry()
	d, err := DialReplicatedDatabase(context.Background(), []string{srv.URL}, ReplicatedDatabaseOptions{
		Metrics: reg,
		Client:  RemoteDatabaseOptions{Timeout: 100 * time.Millisecond},
		clock:   clock.NewInstant(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The first call is served; the second hangs once, then is served.
	for i := 0; i < 2; i++ {
		if matches, _, err := d.QueryContext(context.Background(), []string{"heart"}, 1); err != nil || matches != 2 {
			t.Fatalf("call %d: matches %d, err %v", i, matches, err)
		}
	}
	if flaky.Hangs() != 1 {
		t.Errorf("hangs = %d, want 1", flaky.Hangs())
	}
	if got := reg.Counter("wire_client_retries_total").Value(); got < 1 {
		t.Errorf("retries = %d, want at least 1 (the hung attempt's)", got)
	}
	if got := reg.Counter("wire_request_errors_total").Value(); got != 0 {
		t.Errorf("request errors = %d, want 0", got)
	}
}

// TestSoloReplicaIdentityMismatchIsNotRetried: a lazily added replica
// that claims another database's name fails its call at once; asking
// again will not change its answer, so no retry is made or paid for.
func TestSoloReplicaIdentityMismatchIsNotRetried(t *testing.T) {
	var infos, queries atomic.Int64
	node := wire.NewServer(unitDB(), wire.ServerOptions{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case wire.PathInfo:
			infos.Add(1)
		case wire.PathQuery:
			queries.Add(1)
		}
		node.ServeHTTP(w, r)
	}))
	defer srv.Close()
	budget := resilience.NewBudget(resilience.BudgetOptions{})
	tokens := budget.Tokens()
	d, err := NewReplicatedDatabase("other", "", 3, []string{srv.URL}, ReplicatedDatabaseOptions{
		Client: RemoteDatabaseOptions{Timeout: 2 * time.Second, Budget: budget},
		clock:  clock.NewInstant(),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = d.QueryContext(context.Background(), []string{"heart"}, 1)
	if err == nil || !strings.Contains(err.Error(), `is "unit", want replica of "other"`) {
		t.Fatalf("err = %v, want the identity mismatch", err)
	}
	if infos.Load() != 1 || queries.Load() != 0 {
		t.Errorf("node saw %d info / %d query requests, want 1/0", infos.Load(), queries.Load())
	}
	if got := budget.Tokens(); got != tokens {
		t.Errorf("budget holds %v tokens, want %v (a mismatch is not retried)", got, tokens)
	}
}

// TestDialRetriesASheddingReplica: dialing needs every replica, so each
// is dialed as a lone replica would be — a replica that sheds its first
// /v1/info is asked again after its Retry-After, and the dial succeeds.
func TestDialRetriesASheddingReplica(t *testing.T) {
	a := httptest.NewServer(wire.NewServer(unitDB(), wire.ServerOptions{}))
	defer a.Close()
	var infos atomic.Int64
	node := wire.NewServer(unitDB(), wire.ServerOptions{})
	b := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == wire.PathInfo && infos.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			wire.WriteError(w, http.StatusTooManyRequests, wire.CodeOverloaded, "busy")
			return
		}
		node.ServeHTTP(w, r)
	}))
	defer b.Close()
	d, err := DialReplicatedDatabase(context.Background(), []string{a.URL, b.URL}, ReplicatedDatabaseOptions{
		Client: RemoteDatabaseOptions{Timeout: 2 * time.Second},
		clock:  clock.NewInstant(),
	})
	if err != nil {
		t.Fatalf("dial failed on one shed: %v", err)
	}
	if n := len(d.ReplicaAddrs()); n != 2 || infos.Load() != 2 {
		t.Errorf("%d replicas, b saw %d /v1/info requests; want 2 and 2 (the shed and its retry)", n, infos.Load())
	}
}
