package gateway

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/audit"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// fakeSearcher records the calls it receives and answers from a canned
// response (or an injected hook); its search method is the SearchFunc
// under test. A stream request's events hear a canned narration (or an
// injected one) first.
type fakeSearcher struct {
	mu     sync.Mutex
	calls  []searchCall
	hook   func(ctx context.Context, query string, maxDBs, perDB int) (*repro.SearchResponse, error)
	events func(obs repro.SearchEvents)
}

type searchCall struct {
	query        string
	maxDBs       int
	perDB        int
	hadDeadline  bool
	deadlineLeft time.Duration
}

func (f *fakeSearcher) search(ctx context.Context, req repro.SearchRequest) (*repro.SearchResponse, error) {
	if obs := req.Events; obs != nil {
		if f.events != nil {
			f.events(obs)
		} else {
			obs.Selection([]repro.Selection{{Database: "db-a", Score: 2, Shrinkage: true}}, []string{"whale"}, "cori")
			obs.NodeResult(repro.NodeEvent{NodeOutcome: audit.NodeOutcome{Database: "db-a", Results: 1}, Completed: 1, Total: 1})
			obs.MergeUpdate([]repro.Result{{Database: "db-a", DocID: 3, Score: 0.5}})
		}
	}
	query, maxDBs, perDB := req.Query, req.MaxDBs, req.PerDB
	c := searchCall{query: query, maxDBs: maxDBs, perDB: perDB}
	if dl, ok := ctx.Deadline(); ok {
		c.hadDeadline = true
		c.deadlineLeft = time.Until(dl)
	}
	f.mu.Lock()
	f.calls = append(f.calls, c)
	f.mu.Unlock()
	if f.hook != nil {
		return f.hook(ctx, query, maxDBs, perDB)
	}
	return &repro.SearchResponse{
		TraceID:        "trace-1",
		Query:          query,
		Terms:          []string{"whale"},
		Scorer:         "cori",
		Selections:     []repro.Selection{{Database: "db-a", Score: 2, Shrinkage: true}},
		Results:        []repro.Result{{Database: "db-a", DocID: 3, Score: 0.5}},
		CacheHit:       true,
		ElapsedSeconds: 0.005,
	}, nil
}

func (f *fakeSearcher) lastCall(t *testing.T) searchCall {
	t.Helper()
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.calls) == 0 {
		t.Fatal("searcher was never called")
	}
	return f.calls[len(f.calls)-1]
}

func decodeReply(t *testing.T, rec *httptest.ResponseRecorder) repro.SearchResponse {
	t.Helper()
	var reply repro.SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
		t.Fatalf("decoding reply: %v\nbody: %s", err, rec.Body.String())
	}
	return reply
}

func decodeError(t *testing.T, rec *httptest.ResponseRecorder) wire.ErrorEnvelope {
	t.Helper()
	var env wire.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("decoding error envelope: %v\nbody: %s", err, rec.Body.String())
	}
	return env
}

func TestSearchGet(t *testing.T) {
	s := &fakeSearcher{}
	g := For(s.search, Options{})
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/search?q=white+whale&k=2&perdb=7", nil))

	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	call := s.lastCall(t)
	if call.query != "white whale" || call.maxDBs != 2 || call.perDB != 7 {
		t.Errorf("searcher got %+v, want query=%q k=2 perdb=7", call, "white whale")
	}
	reply := decodeReply(t, rec)
	if reply.TraceID != "trace-1" || !reply.CacheHit || reply.Scorer != "cori" {
		t.Errorf("reply = %+v", reply)
	}
	if len(reply.Results) != 1 || reply.Results[0].Database != "db-a" || reply.Results[0].DocID != 3 {
		t.Errorf("results = %+v", reply.Results)
	}
	if len(reply.Selections) != 1 || !reply.Selections[0].Shrinkage {
		t.Errorf("selections = %+v", reply.Selections)
	}
	if got := rec.Header().Get("X-Trace-Id"); got != "trace-1" {
		t.Errorf("X-Trace-Id = %q", got)
	}
}

func TestSearchPost(t *testing.T) {
	s := &fakeSearcher{}
	g := For(s.search, Options{})
	body := `{"query": "moby dick", "k": 4, "per_db": 2}`
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/search", strings.NewReader(body)))

	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	call := s.lastCall(t)
	if call.query != "moby dick" || call.maxDBs != 4 || call.perDB != 2 {
		t.Errorf("searcher got %+v", call)
	}
}

func TestSearchDefaults(t *testing.T) {
	s := &fakeSearcher{}
	g := For(s.search, Options{DefaultMaxDBs: 5, DefaultPerDB: 9})
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/search?q=x", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	call := s.lastCall(t)
	if call.maxDBs != 5 || call.perDB != 9 {
		t.Errorf("defaults not applied: %+v", call)
	}
	if call.hadDeadline {
		t.Error("request carried a deadline despite none configured")
	}
}

// badRequests are requests the gateway must refuse with a 400
// bad_request envelope (naming names, when set) without searching; they
// also seed FuzzSearchRequest.
var badRequests = []struct {
	name   string
	method string
	target string
	body   string
	names  string
}{
	{"missing query", "GET", "/v1/search", "", ""},
	{"bad k", "GET", "/v1/search?q=x&k=two", "", ""},
	{"zero k", "GET", "/v1/search?q=x&k=0", "", ""},
	{"negative perdb", "GET", "/v1/search?q=x&perdb=-1", "", ""},
	{"bad timeout", "GET", "/v1/search?q=x&timeout=fast", "", ""},
	{"negative timeout", "GET", "/v1/search?q=x&timeout=-1s", "", ""},
	{"malformed json", "POST", "/v1/search", "{", ""},
	{"blank query", "POST", "/v1/search", `{"query": "   "}`, ""},
	{"unknown body field", "POST", "/v1/search", `{"query":"x","timout":"1s"}`, "timout"},
	{"negative body k", "POST", "/v1/search", `{"query":"x","k":-1}`, "k must be positive"},
	{"data after the body", "POST", "/v1/search", `{"query":"x"} {"timeout":"1s"}`, "after the JSON object"},
	{"query parameter on a POST", "POST", "/v1/search?timeout=1s", `{"query":"x"}`, "timeout"},
	{"stream without a query", "GET", "/v1/search/stream?format=ndjson", "", ""},
}

func TestSearchBadRequests(t *testing.T) {
	for _, tc := range badRequests {
		t.Run(tc.name, func(t *testing.T) {
			s := &fakeSearcher{}
			g := For(s.search, Options{})
			rec := httptest.NewRecorder()
			g.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.target, strings.NewReader(tc.body)))
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400; body %s", rec.Code, rec.Body.String())
			}
			env := decodeError(t, rec)
			if env.Error.Code != wire.CodeBadRequest {
				t.Errorf("error code = %q", env.Error.Code)
			}
			if !strings.Contains(env.Error.Message, tc.names) {
				t.Errorf("error %q does not name %q", env.Error.Message, tc.names)
			}
			if len(s.calls) != 0 {
				t.Error("searcher was called for an invalid request")
			}
		})
	}
}

func TestTimeoutParam(t *testing.T) {
	s := &fakeSearcher{}
	g := For(s.search, Options{MaxDeadline: time.Minute})
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/search?q=x&timeout=250ms", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	call := s.lastCall(t)
	if !call.hadDeadline || call.deadlineLeft > 250*time.Millisecond {
		t.Errorf("deadline not applied from timeout param: %+v", call)
	}
}

func TestTimeoutCappedByMaxDeadline(t *testing.T) {
	s := &fakeSearcher{}
	g := For(s.search, Options{MaxDeadline: 100 * time.Millisecond})
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/search?q=x&timeout=1h", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	call := s.lastCall(t)
	if !call.hadDeadline || call.deadlineLeft > 100*time.Millisecond {
		t.Errorf("MaxDeadline did not cap the client timeout: %+v", call)
	}
}

func TestDefaultDeadline(t *testing.T) {
	s := &fakeSearcher{}
	g := For(s.search, Options{DefaultDeadline: 200 * time.Millisecond})
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/search?q=x", nil))
	if call := s.lastCall(t); !call.hadDeadline || call.deadlineLeft > 200*time.Millisecond {
		t.Errorf("default deadline not applied: %+v", call)
	}
}

func TestDeadlineExceededIs504(t *testing.T) {
	s := &fakeSearcher{hook: func(ctx context.Context, _ string, _, _ int) (*repro.SearchResponse, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}}
	g := For(s.search, Options{DefaultDeadline: 10 * time.Millisecond})
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/search?q=x", nil))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", rec.Code, rec.Body.String())
	}
	if env := decodeError(t, rec); env.Error.Code != CodeDeadline {
		t.Errorf("error code = %q, want %q", env.Error.Code, CodeDeadline)
	}
}

func TestSearchErrorIs503(t *testing.T) {
	s := &fakeSearcher{hook: func(context.Context, string, int, int) (*repro.SearchResponse, error) {
		return nil, errNoNodes
	}}
	g := For(s.search, Options{})
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/search?q=x", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	if env := decodeError(t, rec); env.Error.Code != wire.CodeUnavailable {
		t.Errorf("error code = %q", env.Error.Code)
	}
}

var errNoNodes = &noNodesError{}

type noNodesError struct{}

func (*noNodesError) Error() string { return "no live database connections" }

func TestAdmissionGate(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	s := &fakeSearcher{hook: func(ctx context.Context, q string, _, _ int) (*repro.SearchResponse, error) {
		entered <- struct{}{}
		<-release
		return &repro.SearchResponse{Query: q}, nil
	}}
	reg := telemetry.NewRegistry()
	g := For(s.search, Options{MaxInflight: 1, RetryAfter: 3, Metrics: reg})

	done := make(chan *httptest.ResponseRecorder)
	go func() {
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/search?q=slow", nil))
		done <- rec
	}()
	<-entered // the slow request owns the only slot

	// Second request is shed...
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/search?q=shed", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "3" {
		t.Errorf("Retry-After = %q, want 3", got)
	}
	if env := decodeError(t, rec); env.Error.Code != wire.CodeOverloaded {
		t.Errorf("error code = %q", env.Error.Code)
	}
	if got := reg.Counter("gateway_shed_total").Value(); got != 1 {
		t.Errorf("gateway_shed_total = %d, want 1", got)
	}

	// ...but healthz sees through the gate.
	rec = httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("healthz under load = %d, want 200", rec.Code)
	}
	var health wire.HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Inflight != 1 || health.MaxInflight != 1 {
		t.Errorf("health = %+v, want inflight=1 max=1", health)
	}

	close(release)
	if slow := <-done; slow.Code != http.StatusOK {
		t.Errorf("slow request = %d, want 200", slow.Code)
	}
}

// TestRequestAccounting pins the success/error latency split: 2xx
// responses record into gateway_latency, sheds and errors into
// gateway_error_latency only, and the inflight gauge returns to zero.
func TestRequestAccounting(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := &fakeSearcher{}
	g := For(s.search, Options{Metrics: reg})

	// One success, one 400, one 503.
	g.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/search?q=x", nil))
	g.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/search?q=", nil))
	s.hook = func(context.Context, string, int, int) (*repro.SearchResponse, error) {
		return nil, errNoNodes
	}
	g.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/search?q=x", nil))

	snap := reg.Snapshot()
	if got := snap.Histograms["gateway_latency"].Count; got != 1 {
		t.Errorf("gateway_latency count = %d, want 1 (successes only)", got)
	}
	if got := snap.Histograms["gateway_error_latency"].Count; got != 2 {
		t.Errorf("gateway_error_latency count = %d, want 2 (the 400 and the 503)", got)
	}
	if got := snap.Gauges["gateway_requests_inflight"]; got != 0 {
		t.Errorf("gateway_requests_inflight = %v, want 0 after requests finish", got)
	}
}

// TestShedRecordsErrorLatencyAndSLO drives a shed through the gate and
// checks it lands in the error histogram and in gateway_shed_total — the
// series an availability SLO is computed from (README "Measuring and
// SLOs") — while the success histogram stays clean.
func TestShedRecordsErrorLatencyAndSLO(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	s := &fakeSearcher{hook: func(ctx context.Context, q string, _, _ int) (*repro.SearchResponse, error) {
		entered <- struct{}{}
		<-release
		return &repro.SearchResponse{Query: q}, nil
	}}
	reg := telemetry.NewRegistry()
	g := For(s.search, Options{MaxInflight: 1, Metrics: reg})

	done := make(chan struct{})
	go func() {
		g.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/search?q=slow", nil))
		close(done)
	}()
	<-entered
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/search?q=shed", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	if rec.Header().Get("X-Trace-Id") == "" {
		t.Error("shed response carries no X-Trace-Id")
	}
	traced := httptest.NewRequest("GET", "/v1/search?q=shed", nil)
	traced.Header.Set(telemetry.HeaderTraceID, "cafe0000cafe0000")
	rec2 := httptest.NewRecorder()
	g.ServeHTTP(rec2, traced)
	if rec2.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec2.Code)
	}
	if got := rec2.Header().Get("X-Trace-Id"); got != "cafe0000cafe0000" {
		t.Errorf("shed of a traced request answered trace %q, want the propagated one", got)
	}
	close(release)
	<-done

	snap := reg.Snapshot()
	if got := snap.Histograms["gateway_error_latency"].Count; got != 2 {
		t.Errorf("gateway_error_latency count = %d, want 2 (the sheds)", got)
	}
	if got := snap.Histograms["gateway_latency"].Count; got != 1 {
		t.Errorf("gateway_latency count = %d, want 1 (the slow success)", got)
	}

	if got, total := snap.Counters["gateway_shed_total"], snap.Counters["gateway_requests_total"]; got != 2 || total != 3 {
		t.Errorf("gateway_shed_total = %d of %d requests, want 2 of 3", got, total)
	}
}

// TestReplyCarriesStages checks the per-stage decomposition reaches the
// JSON reply.
func TestReplyCarriesStages(t *testing.T) {
	s := &fakeSearcher{hook: func(ctx context.Context, q string, _, _ int) (*repro.SearchResponse, error) {
		return &repro.SearchResponse{
			Query:  q,
			Stages: repro.SearchStages{Cache: 0.001, Selection: 0.002, Fanout: 0.003, Merge: 0.004},
		}, nil
	}}
	g := For(s.search, Options{})
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/search?q=x", nil))
	if !strings.Contains(rec.Body.String(), `"stages_seconds":`) {
		t.Fatalf("reply has no stages_seconds: %s", rec.Body.String())
	}
	reply := decodeReply(t, rec)
	want := StageSeconds{Cache: 0.001, Selection: 0.002, Fanout: 0.003, Merge: 0.004}
	if reply.Stages != want {
		t.Errorf("stages = %+v, want %+v", reply.Stages, want)
	}
}

func TestHealthzReportsTopology(t *testing.T) {
	g := For((&fakeSearcher{}).search, Options{
		Topology: func() *wire.TopologyStatus {
			return &wire.TopologyStatus{Generation: 7, LastSwapUnixMs: 1234}
		},
	})
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/healthz", nil))
	var up wire.HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &up); err != nil {
		t.Fatal(err)
	}
	if up.Topology == nil || up.Topology.Generation != 7 || up.Topology.LastSwapUnixMs != 1234 {
		t.Errorf("healthz topology = %+v, want generation 7 at 1234", up.Topology)
	}
}

func TestHealthzDraining(t *testing.T) {
	g := For((&fakeSearcher{}).search, Options{ShardID: "shard-00"})
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", rec.Code)
	}
	var up wire.HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &up); err != nil {
		t.Fatal(err)
	}
	if up.Version == "" {
		t.Error("healthz advertises no build version")
	}
	if up.ShardID != "shard-00" {
		t.Errorf("healthz shard_id = %q, want shard-00", up.ShardID)
	}

	g.SetDraining(true)
	rec = httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", rec.Code)
	}
	var health wire.HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if !health.Draining || health.Status != "draining" {
		t.Errorf("health = %+v", health)
	}
}

func TestUnknownPathIs404(t *testing.T) {
	g := For((&fakeSearcher{}).search, Options{})
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("GET", "/v2/search?q=x", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("status = %d, want 404", rec.Code)
	}
}

// Every gateway error path must stamp X-Trace-Id (echoing the caller's
// propagated id when the request arrived traced), so failed requests
// are as traceable as served ones — not just the 429 shed path.
func TestErrorResponsesCarryTraceID(t *testing.T) {
	boom := &fakeSearcher{hook: func(context.Context, string, int, int) (*repro.SearchResponse, error) {
		return nil, context.DeadlineExceeded
	}}
	cases := []struct {
		name       string
		gateway    *Gateway
		req        *http.Request
		wantStatus int
	}{
		{
			name:       "bad request",
			gateway:    For((&fakeSearcher{}).search, Options{}),
			req:        httptest.NewRequest("GET", "/v1/search", nil), // no query
			wantStatus: http.StatusBadRequest,
		},
		{
			name:       "deadline exceeded",
			gateway:    For(boom.search, Options{}),
			req:        httptest.NewRequest("GET", "/v1/search?q=x", nil),
			wantStatus: http.StatusGatewayTimeout,
		},
		{
			name: "searcher failure",
			gateway: For((&fakeSearcher{hook: func(context.Context, string, int, int) (*repro.SearchResponse, error) {
				return nil, context.Canceled
			}}).search, Options{}),
			req:        httptest.NewRequest("GET", "/v1/search?q=x", nil),
			wantStatus: http.StatusServiceUnavailable,
		},
		{
			name: "panic to 500",
			gateway: For((&fakeSearcher{hook: func(context.Context, string, int, int) (*repro.SearchResponse, error) {
				panic("kaboom")
			}}).search, Options{}),
			req:        httptest.NewRequest("GET", "/v1/search?q=x", nil),
			wantStatus: http.StatusInternalServerError,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			tc.gateway.ServeHTTP(rec, tc.req)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d", rec.Code, tc.wantStatus)
			}
			if rec.Header().Get("X-Trace-Id") == "" {
				t.Errorf("%s response carries no X-Trace-Id", tc.name)
			}
		})
		t.Run(tc.name+" echoes caller trace", func(t *testing.T) {
			req := tc.req.Clone(tc.req.Context())
			req.Header.Set(telemetry.HeaderTraceID, "caller-trace")
			rec := httptest.NewRecorder()
			tc.gateway.ServeHTTP(rec, req)
			if got := rec.Header().Get("X-Trace-Id"); got != "caller-trace" {
				t.Errorf("%s: X-Trace-Id = %q, want the caller's %q", tc.name, got, "caller-trace")
			}
		})
	}
}
