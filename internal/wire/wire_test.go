package wire

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
	"repro/internal/telemetry"
)

// fakeDB is a minimal Backend: term → matching doc ids, ranked by id.
type fakeDB struct {
	name string
	docs [][]string
}

func (f *fakeDB) Name() string { return f.name }
func (f *fakeDB) NumDocs() int { return len(f.docs) }
func (f *fakeDB) Fetch(id int) []string {
	return f.docs[id]
}

func (f *fakeDB) Query(terms []string, limit int) (int, []int) {
	var ids []int
	for id, doc := range f.docs {
		match := true
		for _, t := range terms {
			found := false
			for _, w := range doc {
				if w == t {
					found = true
					break
				}
			}
			if !found {
				match = false
				break
			}
		}
		if match {
			ids = append(ids, id)
		}
	}
	matches := len(ids)
	if limit < len(ids) {
		ids = ids[:limit]
	}
	return matches, ids
}

func testDB() *fakeDB {
	return &fakeDB{name: "unit", docs: [][]string{
		{"heart", "blood", "pressure"},
		{"heart", "attack"},
		{"soccer", "goal"},
	}}
}

// fastOpts runs the client's backoff on an instant clock: retries
// happen at once, whatever the schedule says.
func fastOpts(reg *telemetry.Registry) ClientOptions {
	return ClientOptions{
		Timeout: 2 * time.Second,
		Clock:   clock.NewInstant(),
		Metrics: reg,
	}
}

func TestServerClientRoundTrip(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := httptest.NewServer(NewServer(testDB(), ServerOptions{Category: "Health", Metrics: reg}))
	defer srv.Close()
	c := NewClient(srv.URL, fastOpts(reg))
	ctx := context.Background()

	info, err := c.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "unit" || info.Protocol != Version || info.NumDocs != 3 || info.Category != "Health" {
		t.Errorf("info = %+v", info)
	}

	matches, ids, err := c.Query(ctx, []string{"heart"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if matches != 2 || len(ids) != 1 || ids[0] != 0 {
		t.Errorf("query = %d matches, ids %v", matches, ids)
	}

	terms, err := c.Doc(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(terms, " ") != "soccer goal" {
		t.Errorf("doc 2 = %v", terms)
	}
	if reg.Counter("wire_server_requests_total").Value() != 3 {
		t.Errorf("server requests = %d", reg.Counter("wire_server_requests_total").Value())
	}
	if got := reg.Histogram("wire_request_latency", nil).Count(); got != 3 {
		t.Errorf("latency observations = %d", got)
	}
}

func TestServerErrorEnvelopes(t *testing.T) {
	srv := httptest.NewServer(NewServer(testDB(), ServerOptions{}))
	defer srv.Close()
	c := NewClient(srv.URL, fastOpts(nil))
	ctx := context.Background()

	// Unknown document id → not_found, not retried.
	_, err := c.Doc(ctx, 99)
	var pe *ProtocolError
	if !errors.As(err, &pe) || pe.Code != CodeNotFound || pe.Status != http.StatusNotFound {
		t.Fatalf("Doc(99) err = %v", err)
	}
	if pe.Transient() {
		t.Error("not_found classified transient")
	}

	// Empty query → bad_request.
	_, _, err = c.Query(ctx, nil, 5)
	if !errors.As(err, &pe) || pe.Code != CodeBadRequest {
		t.Fatalf("empty query err = %v", err)
	}
}

func TestClientRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int64
	inner := NewServer(testDB(), ServerOptions{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			WriteError(w, http.StatusServiceUnavailable, CodeUnavailable, "warming up")
			return
		}
		inner.ServeHTTP(w, r)
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	reg := telemetry.NewRegistry()
	c := NewClient(srv.URL, fastOpts(reg))
	matches, _, err := c.Query(context.Background(), []string{"heart"}, 10)
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

func TestClientRetryExhaustion(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, http.StatusServiceUnavailable, CodeUnavailable, "down")
	}))
	defer srv.Close()
	reg := telemetry.NewRegistry()
	c := NewClient(srv.URL, fastOpts(reg))
	_, _, err := c.Query(context.Background(), []string{"x"}, 1)
	var pe *ProtocolError
	if !errors.As(err, &pe) || pe.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v", err)
	}
	if got := reg.Counter("wire_client_retries_total").Value(); got != maxRetries {
		t.Errorf("retries = %d, want %d", got, maxRetries)
	}
	if got := reg.Counter("wire_request_errors_total").Value(); got != 1 {
		t.Errorf("request errors = %d, want 1", got)
	}
}

func TestClientDoesNotRetryPermanentErrors(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		WriteError(w, http.StatusBadRequest, CodeBadRequest, "no")
	}))
	defer srv.Close()
	c := NewClient(srv.URL, fastOpts(nil))
	if _, _, err := c.Query(context.Background(), []string{"x"}, 1); err == nil {
		t.Fatal("expected error")
	}
	if calls.Load() != 1 {
		t.Errorf("attempts = %d, want 1 (no retry on 400)", calls.Load())
	}
}

func TestClientRetriesConnectionRefused(t *testing.T) {
	// A node that is down entirely: dial fails, every attempt retried,
	// the call ultimately errors.
	reg := telemetry.NewRegistry()
	c := NewClient("127.0.0.1:1", fastOpts(reg)) // reserved port: connection refused
	if _, err := c.Info(context.Background()); err == nil {
		t.Fatal("expected dial error")
	}
	if got := reg.Counter("wire_client_retries_total").Value(); got != maxRetries {
		t.Errorf("retries = %d, want %d", got, maxRetries)
	}
}

// TestClientCancellationStopsRetrying cancels a call while it sleeps
// between retries: the sleep ends at once with the cancellation, and no
// further attempt is made.
func TestClientCancellationStopsRetrying(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		WriteError(w, http.StatusServiceUnavailable, CodeUnavailable, "down")
	}))
	defer srv.Close()
	clk := clock.NewFake()
	c := NewClient(srv.URL, ClientOptions{Clock: clk})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Query(ctx, []string{"x"}, 1)
		done <- err
	}()
	clk.BlockUntil(1) // the first attempt failed; the client sleeps before its retry
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("node saw %d attempts, want 1 (the cancelled backoff must not retry)", got)
	}
}

func TestDocCacheLRU(t *testing.T) {
	reg := telemetry.NewRegistry()
	var fetches atomic.Int64
	inner := NewServer(testDB(), ServerOptions{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, PathDocPrefix) {
			fetches.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	opts := fastOpts(reg)
	opts.CacheSize = 2
	c := NewClient(srv.URL, opts)
	ctx := context.Background()

	for _, id := range []int{0, 1, 0, 1} { // 2 misses, then 2 hits
		if _, err := c.Doc(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if fetches.Load() != 2 {
		t.Errorf("server fetches = %d, want 2", fetches.Load())
	}
	if hits := reg.Counter("wire_doc_cache_hits_total").Value(); hits != 2 {
		t.Errorf("cache hits = %d, want 2", hits)
	}
	// Touch a third doc: capacity 2 evicts the LRU entry (doc 0 and 1
	// were both touched after doc 0's fetch, so doc 0 is evicted).
	if _, err := c.Doc(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if c.CachedDocs() != 2 {
		t.Errorf("cached docs = %d, want 2", c.CachedDocs())
	}
	if _, err := c.Doc(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if fetches.Load() != 4 {
		t.Errorf("server fetches = %d, want 4 (doc 0 evicted and refetched)", fetches.Load())
	}
}

// TestDisabledDocCacheKeepsSchema pins that the exposition schema does
// not vary with configuration: a client with caching off registers the
// same wire_doc_cache_* series as one with it on, and counts nothing.
func TestDisabledDocCacheKeepsSchema(t *testing.T) {
	srv := httptest.NewServer(NewServer(testDB(), ServerOptions{}))
	defer srv.Close()
	on, off := telemetry.NewRegistry(), telemetry.NewRegistry()
	NewClient(srv.URL, fastOpts(on))
	opts := fastOpts(off)
	opts.CacheSize = -1
	c := NewClient(srv.URL, opts)
	for i := 0; i < 2; i++ {
		if _, err := c.Doc(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.CachedDocs(); n != 0 {
		t.Errorf("disabled cache holds %d documents", n)
	}
	want, got := on.Snapshot(), off.Snapshot()
	for name := range want.Help {
		if _, ok := got.Help[name]; !ok {
			t.Errorf("series %s missing with the doc cache disabled", name)
		}
	}
	for name, v := range got.Counters {
		if strings.HasPrefix(name, "wire_doc_cache_") && v != 0 {
			t.Errorf("disabled cache counted %s = %d", name, v)
		}
	}
}

func TestFlakyReconciliation(t *testing.T) {
	// Every injected failure must show up in client telemetry as either
	// a retry or a terminal request error: injected == retries + errors.
	reg := telemetry.NewRegistry()
	flaky := NewFlaky(NewServer(testDB(), ServerOptions{}), FlakyOptions{
		FailureRate: 0.4,
		Seed:        7,
	})
	srv := httptest.NewServer(flaky)
	defer srv.Close()
	c := NewClient(srv.URL, fastOpts(reg))
	ctx := context.Background()

	for i := 0; i < 60; i++ {
		c.Query(ctx, []string{"heart"}, 5) // errors allowed; telemetry must balance
		c.Doc(ctx, i%3)
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

func TestFlakyHangTimesOutAndRecovers(t *testing.T) {
	flaky := NewFlaky(NewServer(testDB(), ServerOptions{}), FlakyOptions{
		HangEvery: 2,                      // every second request hangs
		HangFor:   300 * time.Millisecond, // outlives the client timeout, not the test
		Seed:      1,
	})
	srv := httptest.NewServer(flaky)
	defer srv.Close()
	reg := telemetry.NewRegistry()
	opts := fastOpts(reg)
	opts.Timeout = 100 * time.Millisecond
	c := NewClient(srv.URL, opts)

	// First request serves; second hangs, times out, and the retry (an
	// odd request) succeeds.
	for i := 0; i < 2; i++ {
		if _, _, err := c.Query(context.Background(), []string{"heart"}, 1); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if flaky.Hangs() == 0 {
		t.Error("no hang injected")
	}
	if reg.Counter("wire_client_retries_total").Value() == 0 {
		t.Error("hang did not produce a retry")
	}
}
