package wire

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// Gate is the serving discipline every HTTP server in the system
// shares — a database node (Node) and the query gateway
// (gateway.Gateway) both embed one: an in-flight count with an
// admission cap that sheds the excess with 429 + Retry-After (code
// "overloaded"), a draining flag for graceful shutdown, and the health
// body that reports both. Health checks bypass the gate — an overloaded
// or draining server must still answer "am I alive".
type Gate struct {
	what        string // names the server in shed messages: "node", "gateway"
	maxInflight int    // <= 0: unlimited
	retryAfter  int    // seconds advertised on shed responses

	inflightN atomic.Int64
	draining  atomic.Bool

	shed     *telemetry.Counter
	inflight *telemetry.Gauge
}

// NewGate builds a gate that admits up to maxInflight requests at once
// (zero or negative: unlimited) and advertises retryAfter seconds on
// the ones it sheds (zero or negative: 1). shed and inflight are the
// owner's metric series; both may be nil.
func NewGate(what string, maxInflight, retryAfter int, shed *telemetry.Counter, inflight *telemetry.Gauge) *Gate {
	if retryAfter <= 0 {
		retryAfter = 1
	}
	return &Gate{what: what, maxInflight: maxInflight, retryAfter: retryAfter, shed: shed, inflight: inflight}
}

// SetDraining marks the server as draining (or not). A draining server
// keeps serving in-flight requests — http.Server.Shutdown waits for
// them — but fails its health check with 503, so probes, breakers and
// load balancers steer new traffic elsewhere before the listener
// closes.
func (g *Gate) SetDraining(v bool) { g.draining.Store(v) }

// Draining reports whether the server is draining.
func (g *Gate) Draining() bool { return g.draining.Load() }

// Inflight reports how many requests are being served right now
// (health checks excluded).
func (g *Gate) Inflight() int64 { return g.inflightN.Load() }

// Enter counts one request in and reports the in-flight count it made
// and whether that fits under the cap. Every Enter is paired with a
// Leave; a request that does not fit is answered with Shed.
func (g *Gate) Enter() (cur int64, admitted bool) {
	cur = g.inflightN.Add(1)
	g.inflight.Add(1)
	return cur, g.maxInflight <= 0 || cur <= int64(g.maxInflight)
}

// Leave counts one request out.
func (g *Gate) Leave() {
	g.inflightN.Add(-1)
	g.inflight.Add(-1)
}

// Shed answers a request that did not fit (cur is the count its Enter
// reported): 429, the Retry-After backoff, and the "overloaded" error
// envelope clients treat as backpressure rather than failure.
func (g *Gate) Shed(w http.ResponseWriter, cur int64) {
	g.shed.Inc()
	w.Header().Set("Retry-After", strconv.Itoa(g.retryAfter))
	WriteError(w, http.StatusTooManyRequests, CodeOverloaded,
		fmt.Sprintf("%s at capacity (%d in flight, max %d)", g.what, cur, g.maxInflight))
}

// ServeHealth answers a health check: resp, completed with the gate's
// in-flight count, cap and status, as 200 "ok" or 503 "draining".
func (g *Gate) ServeHealth(w http.ResponseWriter, resp HealthResponse) {
	resp.Status = "ok"
	resp.Inflight = g.inflightN.Load()
	resp.MaxInflight = g.maxInflight
	w.Header().Set("Content-Type", "application/json")
	if g.draining.Load() {
		resp.Status = "draining"
		resp.Draining = true
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(resp)
}

// StatusWriter records the status a handler answered with, for request
// spans and request accounting.
type StatusWriter struct {
	http.ResponseWriter
	code int
}

// WriteHeader implements http.ResponseWriter.
func (w *StatusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// Write implements http.ResponseWriter: a body written before any
// WriteHeader commits 200, and that is what the client received
// whatever the handler does afterwards.
func (w *StatusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// Status is the recorded status: 200 unless the handler said otherwise.
func (w *StatusWriter) Status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// Unwrap lets http.ResponseController reach the underlying writer's
// Flusher, which per-frame stream flushing depends on.
func (w *StatusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// ServeUntilSignal serves srv on ln until SIGINT or SIGTERM, then shuts
// down gracefully: the gate (nil for a server without one) starts
// failing health checks first, and in-flight requests drain through
// http.Server.Shutdown for up to drainFor before the listener closes.
// It returns nil after a clean drain.
func ServeUntilSignal(srv *http.Server, ln net.Listener, gate *Gate, drainFor time.Duration) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	if gate != nil {
		gate.SetDraining(true)
		log.Printf("draining (up to %v, %d in flight)", drainFor, gate.Inflight())
	}
	sctx, cancel := context.WithTimeout(context.Background(), drainFor)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("drain deadline exceeded: %w", err)
	}
	log.Print("drained, exiting")
	return nil
}
