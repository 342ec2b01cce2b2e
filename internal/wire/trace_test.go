package wire

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

func TestClientSendsIdentityAndTraceHeaders(t *testing.T) {
	var mu sync.Mutex
	var got []http.Header
	inner := NewServer(testDB(), ServerOptions{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		got = append(got, r.Header.Clone())
		mu.Unlock()
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	ring := telemetry.NewRingCapture(64)
	tracer := telemetry.NewTracer(ring)
	span := tracer.Span("caller")
	ctx := telemetry.ContextWithSpan(context.Background(), span)

	c := NewClient(srv.URL, fastOpts(nil))
	if _, _, err := c.Query(ctx, newCall(), []string{"heart"}, 1); err != nil {
		t.Fatal(err)
	}
	span.End()

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("server saw %d requests, want 1", len(got))
	}
	h := got[0]
	if ua := h.Get("User-Agent"); !strings.HasPrefix(ua, "metasearch-repro/") {
		t.Errorf("User-Agent = %q, want metasearch-repro/<version>", ua)
	}
	if tr := h.Get(telemetry.HeaderTraceID); tr != span.Context().TraceID {
		t.Errorf("X-Trace-Id = %q, want %q", tr, span.Context().TraceID)
	}
	if ps := telemetry.ParseSpanID(h.Get(telemetry.HeaderParentSpan)); ps != span.Context().SpanID {
		t.Errorf("X-Parent-Span = %q, want span %d", h.Get(telemetry.HeaderParentSpan), span.Context().SpanID)
	}
	reqID := h.Get(telemetry.HeaderRequestID)
	if !strings.HasPrefix(reqID, "r") || !strings.HasSuffix(reqID, ".0") {
		t.Errorf("X-Request-Id = %q, want r<seq>.0", reqID)
	}
	// The caller's span carries a matching wire.attempt event.
	roots := telemetry.BuildSpanTree(ring.Export(telemetry.Identity{}, span.Context().TraceID)).Roots
	if len(roots) != 1 || roots[0].Name != "caller" || len(roots[0].Events) != 1 {
		t.Fatalf("caller span = %+v", roots)
	}
	if got := roots[0].Events[0].Attrs["request_id"]; got != reqID {
		t.Errorf("wire.attempt request_id = %v, header said %q", got, reqID)
	}
}

func TestClientWithoutSpanSendsNoTraceHeaders(t *testing.T) {
	var mu sync.Mutex
	var h http.Header
	inner := NewServer(testDB(), ServerOptions{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		h = r.Header.Clone()
		mu.Unlock()
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	c := NewClient(srv.URL, fastOpts(nil))
	if _, err := c.Info(context.Background(), newCall()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if h.Get(telemetry.HeaderTraceID) != "" || h.Get(telemetry.HeaderParentSpan) != "" {
		t.Errorf("untraced call sent trace headers: %v / %v",
			h.Get(telemetry.HeaderTraceID), h.Get(telemetry.HeaderParentSpan))
	}
	if h.Get(telemetry.HeaderRequestID) == "" {
		t.Error("request id must be stamped even without a trace")
	}
}

func TestPerEndpointCountersAndInflight(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := httptest.NewServer(NewServer(testDB(), ServerOptions{}))
	defer srv.Close()
	c := NewClient(srv.URL, fastOpts(reg))
	ctx := context.Background()

	if _, err := c.Info(ctx, newCall()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Query(ctx, newCall(), []string{"heart"}, 1); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{0, 1} {
		if _, err := c.Doc(ctx, newCall(), id); err != nil {
			t.Fatal(err)
		}
	}
	for name, want := range map[string]int64{
		"wire_requests_info_total":   1,
		"wire_requests_query_total":  1,
		"wire_requests_doc_total":    2,
		"wire_requests_total":        4,
		"wire_client_attempts_total": 4,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := reg.Gauge("wire_client_inflight").Value(); got != 0 {
		t.Errorf("inflight after quiesce = %v, want 0", got)
	}
	if got := reg.Histogram("wire_request_latency", nil).Count(); got != 4 {
		t.Errorf("latency histogram count = %d, want 4", got)
	}
}

func TestServerSpanJoinsPropagatedTrace(t *testing.T) {
	serverRing := telemetry.NewRingCapture(64)
	srv := httptest.NewServer(NewServer(testDB(), ServerOptions{
		Tracer: telemetry.NewTracer(serverRing),
	}))
	defer srv.Close()

	clientRing := telemetry.NewRingCapture(64)
	tracer := telemetry.NewTracer(clientRing)
	span := tracer.Span("caller")
	ctx := telemetry.ContextWithSpan(context.Background(), span)

	c := NewClient(srv.URL, fastOpts(nil))
	if _, _, err := c.Query(ctx, newCall(), []string{"heart"}, 1); err != nil {
		t.Fatal(err)
	}
	span.End()

	// The two processes' exports of the caller's trace join into one
	// tree: the server's span hangs under the caller's.
	trace := span.Context().TraceID
	tree := telemetry.BuildSpanTree(
		clientRing.Export(telemetry.Identity{Role: "client"}, trace),
		serverRing.Export(telemetry.Identity{Role: "dbnode"}, trace))
	if len(tree.Roots) != 1 || len(tree.Roots[0].Children) != 1 || tree.Roots[0].Children[0].Name != "wire.serve" {
		t.Fatalf("server recorded no wire.serve span in the client's trace: %+v", tree.Roots)
	}
	serve := tree.Roots[0].Children[0]
	if serve.Identity.Role != "dbnode" {
		t.Errorf("wire.serve span came from %+v", serve.Identity)
	}
	if serve.Parent != span.Context().SpanID {
		t.Errorf("server span parent = %d, client span = %d", serve.Parent, span.Context().SpanID)
	}
	if got, _ := serve.Attrs["path"].(string); got != PathQuery {
		t.Errorf("serve span path = %q", got)
	}
	if got, _ := serve.EndAttrs["status"].(int64); got != http.StatusOK {
		t.Errorf("serve span status = %v", serve.EndAttrs["status"])
	}
	// Without propagated context the server starts its own root trace.
	if _, err := c.Info(context.Background(), newCall()); err != nil {
		t.Fatal(err)
	}
	events := serverRing.Events()
	fresh := events[len(events)-1].Trace
	roots := telemetry.BuildSpanTree(serverRing.Export(telemetry.Identity{}, fresh)).Roots
	if len(roots) != 1 || roots[0].Name != "wire.serve" || roots[0].Parent != 0 || fresh == "" {
		t.Errorf("untraced request should yield a fresh root span, got %+v", roots)
	}
	if fresh == trace {
		t.Error("fresh root span reused the old trace id")
	}
}
