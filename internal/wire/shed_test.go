package wire

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"syscall"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func TestHealthEndpointAndDraining(t *testing.T) {
	reg := telemetry.NewRegistry()
	node := NewNode(testDB(), ServerOptions{Metrics: reg})
	srv := httptest.NewServer(node)
	defer srv.Close()
	c := NewClient(srv.URL, fastOpts(reg))

	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatalf("Health on a live node: %v", err)
	}
	if h.Status != "ok" || h.Draining {
		t.Fatalf("health = %+v, want ok/not-draining", h)
	}

	node.SetDraining(true)
	if !node.Draining() {
		t.Fatal("Draining() did not reflect SetDraining(true)")
	}
	_, err = c.Health(context.Background())
	var pe *ProtocolError
	if !errors.As(err, &pe) || pe.Status != 503 {
		t.Fatalf("Health on a draining node: err = %v, want 503 ProtocolError", err)
	}
	// Draining fails health but in-flight protocol traffic still works:
	// Shutdown drains those, not the handler.
	if _, _, err := c.Query(context.Background(), newCall(), []string{"heart"}, 10); err != nil {
		t.Fatalf("Query on a draining node: %v (drain must not reject protocol requests)", err)
	}
	// Health probes do not observe the latency window (would pollute the
	// p95 hedging signal) but do count in their own series.
	if got := reg.Counter("wire_health_probes_total").Value(); got != 2 {
		t.Errorf("wire_health_probes_total = %v, want 2", got)
	}
}

func TestAdmissionGateShedsWithRetryAfter(t *testing.T) {
	reg := telemetry.NewRegistry()
	release := make(chan struct{})
	db := newSlowDB(release)
	node := NewNode(db, ServerOptions{MaxInflight: 1, RetryAfter: 1, Metrics: reg})
	srv := httptest.NewServer(node)
	defer srv.Close()

	// Occupy the node's single slot with a hung query.
	blockedErr := make(chan error, 1)
	c1 := NewClient(srv.URL, ClientOptions{Timeout: 5 * time.Second, Metrics: reg})
	go func() {
		_, _, err := c1.Query(context.Background(), newCall(), []string{"heart"}, 10)
		blockedErr <- err
	}()
	<-db.entered

	// A second request must be shed, not queued, in one exchange, and the
	// 429 must carry the configured Retry-After through to the
	// ProtocolError.
	c2 := NewClient(srv.URL, ClientOptions{Timeout: time.Second, Metrics: reg})
	_, _, err := c2.Query(context.Background(), newCall(), []string{"heart"}, 10)
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("shed query err = %v, want ProtocolError", err)
	}
	if !pe.Shed() || pe.Code != CodeOverloaded {
		t.Fatalf("shed query err = %+v, want 429/overloaded", pe)
	}
	if pe.RetryAfter != time.Second {
		t.Fatalf("RetryAfter = %v, want 1s", pe.RetryAfter)
	}
	if got := reg.Counter("wire_server_shed_total").Value(); got != 1 {
		t.Errorf("wire_server_shed_total = %v, want 1", got)
	}
	if got := reg.Counter("wire_client_sheds_total").Value(); got != 1 {
		t.Errorf("wire_client_sheds_total = %v, want 1", got)
	}

	// Health sees through the overload: it is exempt from the gate.
	if _, err := c2.Health(context.Background()); err != nil {
		t.Fatalf("Health on a saturated node: %v", err)
	}

	close(release)
	if err := <-blockedErr; err != nil {
		t.Fatalf("occupying query failed: %v", err)
	}
	srv.Close() // returns once every handler has, its gate.Leave included
	if n := node.Inflight(); n != 0 {
		t.Fatalf("node holds %d gate slots after every request finished, want 0", n)
	}
}

func TestContextWithCallStatsSharedAcrossCalls(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := httptest.NewServer(NewServer(testDB(), ServerOptions{Metrics: reg}))
	defer srv.Close()
	c := NewClient(srv.URL, fastOpts(reg))

	s := &CallStats{}
	ctx := ContextWithCallStats(context.Background(), s)
	if _, _, err := c.Query(ctx, newCall(), []string{"heart"}, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Info(ctx, newCall()); err != nil {
		t.Fatal(err)
	}
	if s.Attempts() != 2 {
		t.Fatalf("attempts = %d, want 2 (one per call, shared stats)", s.Attempts())
	}
}

// slowDB blocks Query until gate closes, so tests can hold a node's
// inflight slot open deterministically; entered receives once a query
// holds the slot.
type slowDB struct {
	*fakeDB
	gate    <-chan struct{}
	entered chan struct{}
}

func newSlowDB(gate <-chan struct{}) *slowDB {
	return &slowDB{fakeDB: testDB(), gate: gate, entered: make(chan struct{}, 1)}
}

func (s *slowDB) Query(terms []string, limit int) (int, []int) {
	select {
	case s.entered <- struct{}{}:
	default:
	}
	<-s.gate
	return s.fakeDB.Query(terms, limit)
}

// TestServeUntilSignal: SIGTERM flips the gate to draining, lets the
// in-flight request finish, and returns nil once the server has drained.
func TestServeUntilSignal(t *testing.T) {
	gate := NewGate("test", 0, 0, nil, nil)
	inHandler, finish := make(chan struct{}), make(chan struct{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur, admitted := gate.Enter()
		defer gate.Leave()
		if !admitted {
			gate.Shed(w, cur)
			return
		}
		close(inHandler)
		<-finish
		io.WriteString(w, "done")
	})}
	served := make(chan error, 1)
	go func() { served <- ServeUntilSignal(srv, ln, gate, 5*time.Second) }()

	body := make(chan string, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String())
		if err != nil {
			body <- err.Error()
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		body <- string(b)
	}()
	<-inHandler // the server is up (so its signal handler is installed) and one request is in flight
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for !gate.Draining() {
		runtime.Gosched()
	}
	if n := gate.Inflight(); n != 1 {
		t.Errorf("draining with %d requests in flight, want 1", n)
	}
	close(finish)
	if got := <-body; got != "done" {
		t.Errorf("in-flight request answered %q, want it to finish", got)
	}
	if err := <-served; err != nil {
		t.Errorf("ServeUntilSignal = %v, want nil after a clean drain", err)
	}
}

// TestStatusWriterRecordsWhatTheClientGot: the first of WriteHeader and
// Write decides the status; a handler that fails after its body started
// cannot turn a delivered 200 into a recorded 500.
func TestStatusWriterRecordsWhatTheClientGot(t *testing.T) {
	for _, tc := range []struct {
		name    string
		handler func(w http.ResponseWriter)
		want    int
	}{
		{"nothing written", func(http.ResponseWriter) {}, http.StatusOK},
		{"explicit status", func(w http.ResponseWriter) { w.WriteHeader(http.StatusTeapot) }, http.StatusTeapot},
		{"body commits 200", func(w http.ResponseWriter) {
			io.WriteString(w, "partial")
			w.WriteHeader(http.StatusInternalServerError) // too late: net/http ignores it as well
		}, http.StatusOK},
	} {
		sw := &StatusWriter{ResponseWriter: httptest.NewRecorder()}
		tc.handler(sw)
		if got := sw.Status(); got != tc.want {
			t.Errorf("%s: recorded status %d, want %d", tc.name, got, tc.want)
		}
	}
}
