package wire

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
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

func fastOpts(reg *telemetry.Registry) ClientOptions {
	return ClientOptions{Timeout: 2 * time.Second, Metrics: reg}
}

// newCall numbers a logical call of a single exchange.
func newCall() Attempt { return Attempt{Seq: NextSeq()} }

func TestServerClientRoundTrip(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := httptest.NewServer(NewServer(testDB(), ServerOptions{Category: "Health", Metrics: reg}))
	defer srv.Close()
	c := NewClient(srv.URL, fastOpts(reg))
	ctx := context.Background()

	info, err := c.Info(ctx, newCall())
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "unit" || info.Protocol != Version || info.NumDocs != 3 || info.Category != "Health" {
		t.Errorf("info = %+v", info)
	}

	matches, ids, err := c.Query(ctx, newCall(), []string{"heart"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if matches != 2 || len(ids) != 1 || ids[0] != 0 {
		t.Errorf("query = %d matches, ids %v", matches, ids)
	}

	terms, err := c.Doc(ctx, newCall(), 2)
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
	_, err := c.Doc(ctx, newCall(), 99)
	var pe *ProtocolError
	if !errors.As(err, &pe) || pe.Code != CodeNotFound || pe.Status != http.StatusNotFound {
		t.Fatalf("Doc(99) err = %v", err)
	}
	if pe.Transient() {
		t.Error("not_found classified transient")
	}

	// Empty query → bad_request.
	_, _, err = c.Query(ctx, newCall(), nil, 5)
	if !errors.As(err, &pe) || pe.Code != CodeBadRequest {
		t.Fatalf("empty query err = %v", err)
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
		if _, err := c.Doc(ctx, newCall(), id); err != nil {
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
	if _, err := c.Doc(ctx, newCall(), 2); err != nil {
		t.Fatal(err)
	}
	if c.CachedDocs() != 2 {
		t.Errorf("cached docs = %d, want 2", c.CachedDocs())
	}
	if _, err := c.Doc(ctx, newCall(), 0); err != nil {
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
		if _, err := c.Doc(context.Background(), newCall(), 0); err != nil {
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

// TestFlakyHangTimesOutAndRecovers: a hung exchange ends at the
// client's per-attempt timeout as a deadline failure (which the attempt
// loop above retries), and the node's next request is served.
func TestFlakyHangTimesOutAndRecovers(t *testing.T) {
	flaky := chaos.Wrap(NewServer(testDB(), ServerOptions{}), chaos.Options{Faults: chaos.Faults{
		HangEvery: 2,                      // every second request hangs
		HangFor:   300 * time.Millisecond, // outlives the client timeout, not the test
	}, Seed: 1})
	srv := httptest.NewServer(flaky)
	defer srv.Close()
	reg := telemetry.NewRegistry()
	opts := fastOpts(reg)
	opts.Timeout = 100 * time.Millisecond
	c := NewClient(srv.URL, opts)

	// First request serves; second hangs and times out; third serves.
	for i, wantErr := range []bool{false, true, false} {
		_, _, err := c.Query(context.Background(), newCall(), []string{"heart"}, 1)
		if (err != nil) != wantErr {
			t.Fatalf("query %d: err = %v, want error %v", i, err, wantErr)
		}
		if wantErr && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("hung query: err = %v, want the attempt's deadline", err)
		}
	}
	if got := flaky.Stats().Hangs; got != 1 {
		t.Errorf("hangs = %d, want 1", got)
	}
	if got := reg.Counter("wire_request_errors_total").Value(); got != 0 {
		t.Errorf("request errors = %d before CallFailed, want 0 (the attempt loop counts them)", got)
	}
	c.CallFailed()
	if got := reg.Counter("wire_request_errors_total").Value(); got != 1 {
		t.Errorf("request errors = %d, want 1 (the timed-out call)", got)
	}
}

// TestQueryReplyChecked: a /v1/query reply no honest node sends — more
// ids than the limit or than the match count, or a negative match
// count — fails the exchange with an error the attempt loop does not
// retry; a reply at the bounds is accepted.
func TestQueryReplyChecked(t *testing.T) {
	const limit = 2
	for _, tc := range []struct {
		name  string
		reply QueryResponse
		ok    bool
	}{
		{"at the bounds", QueryResponse{Matches: 2, IDs: []int{0, 1}}, true},
		{"limit+1 ids", QueryResponse{Matches: 5, IDs: []int{0, 1, 2}}, false},
		{"more ids than matches", QueryResponse{Matches: 1, IDs: []int{0, 1}}, false},
		{"negative matches", QueryResponse{Matches: -1}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				json.NewEncoder(w).Encode(tc.reply)
			}))
			defer srv.Close()
			c := NewClient(srv.URL, fastOpts(telemetry.NewRegistry()))
			matches, ids, err := c.Query(context.Background(), newCall(), []string{"heart"}, limit)
			if tc.ok {
				if err != nil || matches != tc.reply.Matches || len(ids) != len(tc.reply.IDs) {
					t.Fatalf("got %d matches, ids %v, err %v; want the reply", matches, ids, err)
				}
				return
			}
			var tr interface{ Transient() bool }
			if !errors.As(err, &tr) || tr.Transient() {
				t.Fatalf("got %d matches, ids %v, err %v; want a failure that is not retried", matches, ids, err)
			}
			if matches != 0 || ids != nil {
				t.Errorf("a refused reply leaked %d matches, ids %v", matches, ids)
			}
		})
	}
}

// TestAttemptNumbersTheExchange: an exchange the attempt loop numbers
// carries its r<seq>.<attempt> request ID, counts as a retry past the
// first, and leaves the call's failure for the loop to count.
func TestAttemptNumbersTheExchange(t *testing.T) {
	var ids []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ids = append(ids, r.Header.Get(telemetry.HeaderRequestID))
		WriteError(w, http.StatusServiceUnavailable, CodeUnavailable, "down")
	}))
	defer srv.Close()
	reg := telemetry.NewRegistry()
	c := NewClient(srv.URL, fastOpts(reg))
	for n := 0; n < 2; n++ {
		if _, _, err := c.Query(context.Background(), Attempt{Seq: 42, N: n}, []string{"x"}, 1); err == nil {
			t.Fatal("expected error")
		}
	}
	if len(ids) != 2 || ids[0] != "r42.0" || ids[1] != "r42.1" {
		t.Errorf("request ids = %q, want r42.0 then r42.1", ids)
	}
	for name, want := range map[string]int64{
		"wire_requests_total":        1,
		"wire_client_attempts_total": 2,
		"wire_client_retries_total":  1,
		"wire_request_errors_total":  0,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	c.CallFailed()
	if got := reg.Counter("wire_request_errors_total").Value(); got != 1 {
		t.Errorf("wire_request_errors_total = %d after CallFailed, want 1", got)
	}
}
