package wire

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/buildinfo"
	"repro/internal/telemetry"
)

// Backend is what a database node serves: the SearchableDatabase
// surface plus the size needed to bounds-check document requests.
// repro.LocalDatabase satisfies it.
type Backend interface {
	Name() string
	Query(terms []string, limit int) (matches int, ids []int)
	Fetch(id int) []string
	NumDocs() int
}

// maxLimit caps the per-query result window a client may request, so one
// request cannot ask for the whole database.
const maxLimit = 1000

// ServerOptions configures a database node handler.
type ServerOptions struct {
	// Category is advertised in /v1/info as the node's self-declared
	// classification (optional).
	Category string
	// MaxInflight is the admission gate: when more than this many
	// protocol requests are in flight, further ones are shed with
	// 429 + Retry-After instead of queueing behind a saturated node.
	// Zero or negative means unlimited. /v1/health is exempt — an
	// overloaded node must still answer "am I alive".
	MaxInflight int
	// RetryAfter is the backoff, in seconds, advertised on shed
	// responses (default 1).
	RetryAfter int
	// Metrics receives wire_server_requests_total,
	// wire_server_errors_total, wire_server_inflight, and
	// wire_server_shed_total (may be nil).
	Metrics *telemetry.Registry
	// Tracer, when non-nil, records one wire.serve span per request.
	// The span joins the trace propagated in the X-Trace-Id /
	// X-Parent-Span headers (so it parents under the metasearcher's
	// query span) and carries the caller's per-attempt X-Request-Id,
	// making client retries distinguishable on the node's own trace.
	Tracer *telemetry.Tracer
}

// NewServer returns the http.Handler of a database node. Kept for
// callers that only need the handler; NewNode exposes the node's
// drain/inflight controls for graceful shutdown and load shedding.
func NewServer(db Backend, opts ServerOptions) http.Handler {
	return NewNode(db, opts)
}

// Node is one database node's HTTP server: the /v1 protocol endpoints
// over a Backend behind the shared Gate, which sheds load past
// MaxInflight and fails /v1/health during graceful shutdown so probes
// route away before the listener closes.
type Node struct {
	*Gate
	db   Backend
	opts ServerOptions
	mux  http.Handler

	requests *telemetry.Counter
	errors   *telemetry.Counter
}

// NewNode builds a database node over db: an http.Handler with panic
// recovery, tracing, and (when opts.MaxInflight > 0) load shedding.
func NewNode(db Backend, opts ServerOptions) *Node {
	reg := opts.Metrics
	n := &Node{db: db, opts: opts,
		Gate: NewGate("node", opts.MaxInflight, opts.RetryAfter,
			reg.DeclareCounter("wire_server_shed_total", "Wire requests shed with 429 by the node's admission gate."),
			reg.DeclareGauge("wire_server_inflight", "Wire requests this node is serving right now.")),
		requests: reg.DeclareCounter("wire_server_requests_total", "Wire-protocol requests served by this node."),
		errors:   reg.DeclareCounter("wire_server_errors_total", "Wire requests this node answered with an error envelope."),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+PathInfo, n.info)
	mux.HandleFunc("POST "+PathQuery, n.query)
	mux.HandleFunc("GET "+PathDocPrefix+"{id}", n.doc)
	n.mux = mux
	return n
}

// ServeHTTP counts requests, applies the admission gate, opens the
// per-request trace span (joined to the caller's propagated trace
// context), and converts handler panics into 500 envelopes.
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Health is exempt from the gate and the protocol counters: probes
	// must see through overload, and their volume must not distort the
	// node's request rate.
	if r.URL.Path == PathHealth {
		n.ServeHealth(w, HealthResponse{Version: buildinfo.Version()})
		return
	}
	n.requests.Inc()
	cur, admitted := n.Enter()
	defer n.Leave()
	if !admitted {
		n.Shed(w, cur)
		return
	}
	span := n.opts.Tracer.SpanWithRemoteParent("wire.serve",
		telemetry.Extract(r.Header),
		telemetry.String("method", r.Method),
		telemetry.String("path", r.URL.Path),
		telemetry.String("request_id", r.Header.Get(telemetry.HeaderRequestID)))
	sw := &StatusWriter{ResponseWriter: w}
	defer func() {
		if p := recover(); p != nil {
			n.errors.Inc()
			WriteError(sw, http.StatusInternalServerError, CodeInternal,
				fmt.Sprintf("panic serving %s: %v", r.URL.Path, p))
		}
		span.End(telemetry.Int("status", sw.Status()))
	}()
	n.mux.ServeHTTP(sw, r)
}

func (n *Node) fail(w http.ResponseWriter, status int, code, msg string) {
	n.errors.Inc()
	WriteError(w, status, code, msg)
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func (n *Node) info(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, InfoResponse{
		Name:     n.db.Name(),
		Protocol: Version,
		NumDocs:  n.db.NumDocs(),
		Category: n.opts.Category,
	})
}

func (n *Node) query(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		n.fail(w, http.StatusBadRequest, CodeBadRequest, "malformed query request: "+err.Error())
		return
	}
	if len(req.Terms) == 0 {
		n.fail(w, http.StatusBadRequest, CodeBadRequest, "query needs at least one term")
		return
	}
	limit := req.Limit
	if limit < 0 {
		limit = 0
	}
	if limit > maxLimit {
		limit = maxLimit
	}
	matches, ids := n.db.Query(req.Terms, limit)
	writeJSON(w, QueryResponse{Matches: matches, IDs: ids})
}

func (n *Node) doc(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		n.fail(w, http.StatusBadRequest, CodeBadRequest, "document id must be an integer")
		return
	}
	if id < 0 || id >= n.db.NumDocs() {
		n.fail(w, http.StatusNotFound, CodeNotFound,
			fmt.Sprintf("no document %d (database has %d)", id, n.db.NumDocs()))
		return
	}
	writeJSON(w, DocResponse{ID: id, Terms: n.db.Fetch(id)})
}
