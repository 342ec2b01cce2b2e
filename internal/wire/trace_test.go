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

// attrValue extracts one attribute from a trace event (nil if absent).
func attrValue(e telemetry.Event, key string) interface{} {
	for _, a := range e.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return nil
}

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

	cap := &telemetry.Capture{}
	tracer := telemetry.NewTracer(cap)
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
	node := cap.Find("caller")
	if node == nil || len(node.Events) != 1 {
		t.Fatalf("caller span events = %+v", node)
	}
	if got := attrValue(node.Events[0], "request_id"); got != reqID {
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
	serverCap := &telemetry.Capture{}
	srv := httptest.NewServer(NewServer(testDB(), ServerOptions{
		Tracer: telemetry.NewTracer(serverCap),
	}))
	defer srv.Close()

	clientCap := &telemetry.Capture{}
	tracer := telemetry.NewTracer(clientCap)
	span := tracer.Span("caller")
	ctx := telemetry.ContextWithSpan(context.Background(), span)

	c := NewClient(srv.URL, fastOpts(nil))
	if _, _, err := c.Query(ctx, newCall(), []string{"heart"}, 1); err != nil {
		t.Fatal(err)
	}
	span.End()

	serve := serverCap.Find("wire.serve")
	if serve == nil {
		t.Fatal("server recorded no wire.serve span")
	}
	if serve.Start.Trace != span.Context().TraceID {
		t.Errorf("server trace = %q, client trace = %q", serve.Start.Trace, span.Context().TraceID)
	}
	if serve.Start.Parent != span.Context().SpanID {
		t.Errorf("server span parent = %d, client span = %d", serve.Start.Parent, span.Context().SpanID)
	}
	if got, _ := attrValue(serve.Start, "path").(string); got != PathQuery {
		t.Errorf("serve span path = %q", got)
	}
	if got, _ := attrValue(serve.End, "status").(int64); got != http.StatusOK {
		t.Errorf("serve span status = %v", attrValue(serve.End, "status"))
	}
	// Without propagated context the server starts its own root trace.
	serverCap.Reset()
	if _, err := c.Info(context.Background(), newCall()); err != nil {
		t.Fatal(err)
	}
	serve = serverCap.Find("wire.serve")
	if serve == nil || serve.Start.Parent != 0 || serve.Start.Trace == "" {
		t.Errorf("untraced request should yield a fresh root span, got %+v", serve)
	}
	if serve.Start.Trace == span.Context().TraceID {
		t.Error("fresh root span reused the old trace id")
	}
}
