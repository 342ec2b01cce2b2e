// Package gateway is the query-serving HTTP front end of a
// metasearcher: the piece that turns the library's one search call —
// (*repro.Metasearcher).Search, or the cluster router's Search — into a
// service. It speaks a small JSON API —
//
//	GET  /v1/search?q=...&k=...&perdb=...&timeout=...
//	POST /v1/search   {"query": ..., "k": ..., "per_db": ..., "timeout": ...}
//	GET  /v1/search/stream?q=...  (SSE, or NDJSON via format=ndjson/Accept)
//	GET  /v1/healthz  (200 ok / 503 draining, exempt from the gate)
//
// — returning the merged ranking together with its provenance: the
// selected databases, the analyzed terms, the trace id (also in the
// X-Trace-Id response header), and how the answer was produced (cold
// fan-out, result-cache hit, or collapsed onto a concurrent identical
// query).
//
// /v1/search/stream delivers the same search incrementally (see
// internal/evtstream for the framing): a selection frame as soon as the
// database ranking lands, a node_result frame per fan-out answer, a
// merge_update frame with the re-ranked partial merge after each, and a
// terminal final frame whose payload is the byte-identical
// repro.SearchResponse the blocking endpoint would have returned.
// Requests fail closed: an unknown query parameter or POST body field
// is a 400 naming it.
//
// The gateway borrows the operational conventions of the wire protocol
// (internal/wire): errors are the same ErrorEnvelope shape, and the
// admission gate, drain flag and health body are the wire.Gate a
// database node uses — overload is shed with 429 + Retry-After (code
// "overloaded"), and graceful shutdown flips /v1/healthz to 503 while
// in-flight requests drain.
package gateway

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/buildinfo"
	"repro/internal/evtstream"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Paths of the gateway endpoints.
const (
	PathSearch       = "/v1/search"
	PathSearchStream = "/v1/search/stream"
	PathHealthz      = "/v1/healthz"
)

// CodeDeadline marks a search that ran out of its per-request deadline
// (HTTP 504). The envelope shape is wire.ErrorEnvelope, like every
// other gateway error.
const CodeDeadline = "deadline_exceeded"

// maxBodyBytes bounds how much of a POST body the gateway reads.
const maxBodyBytes = 1 << 20

// SearchFunc is the search a gateway serves: (*repro.Metasearcher).Search
// or (*router.Router).Search. The blocking endpoint calls it with no
// Events, the stream endpoint with a frame publisher.
type SearchFunc func(ctx context.Context, req repro.SearchRequest) (*repro.SearchResponse, error)

// Options configures a Gateway.
type Options struct {
	// DefaultMaxDBs and DefaultPerDB apply when a request omits k /
	// perdb (defaults 3 and 10).
	DefaultMaxDBs int
	DefaultPerDB  int
	// DefaultDeadline bounds requests that carry no timeout parameter
	// (zero = unbounded). MaxDeadline caps every request's deadline,
	// the default's and what a client asks for (zero = uncapped).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// MaxInflight is the admission gate: past this many in-flight
	// search requests, further ones are shed with 429 + Retry-After.
	// Zero or negative means unlimited. /v1/healthz is exempt.
	MaxInflight int
	// RetryAfter is the backoff (seconds) advertised on shed responses
	// (default 1).
	RetryAfter int
	// Metrics receives gateway_requests_total, gateway_errors_total,
	// gateway_shed_total, the gateway_requests_inflight gauge, and the
	// latency series (may be nil). Successful responses record into the
	// gateway_latency histogram; shed and error responses record into
	// the separate gateway_error_latency histogram, so a load-shedding
	// burst of instant 429s cannot drag the success-latency percentiles
	// down.
	Metrics *telemetry.Registry
	// ShardID names this process's topology shard in /v1/healthz when
	// it serves a cluster slice ("" for a standalone metasearcher or
	// the cluster router).
	ShardID string
	// ShardHealth, when non-nil, is polled on every /v1/healthz and its
	// result reported in the response's "shards" field. The cluster
	// router wires its per-shard breaker/probe summary here, so one
	// health call answers "is the fleet behind this router healthy",
	// not just "is this process alive".
	ShardHealth func() []wire.ShardHealth
	// Topology, when non-nil, is polled on every /v1/healthz and its
	// result reported in the response's "topology" field: the active
	// topology generation and last-swap timestamp, so a rolling
	// reconfiguration can confirm which ring each process serves.
	Topology func() *wire.TopologyStatus
}

// Gateway serves the query API over a SearchFunc. Like wire.Node it
// embeds the shared gate, whose drain/inflight controls let
// cmd/metasearch shut it down gracefully.
type Gateway struct {
	*wire.Gate
	search  SearchFunc
	opts    Options
	version string // the build's, so rollouts can confirm which build answers
	mux     http.Handler

	requests     *telemetry.Counter
	errors       *telemetry.Counter
	latency      *telemetry.Histogram
	errorLatency *telemetry.Histogram
	streams      evtstream.Metrics
}

// For builds a Gateway serving search.
func For(search SearchFunc, opts Options) *Gateway {
	if opts.DefaultMaxDBs <= 0 {
		opts.DefaultMaxDBs = 3
	}
	if opts.DefaultPerDB <= 0 {
		opts.DefaultPerDB = repro.DefaultPerDB
	}
	reg := opts.Metrics
	g := &Gateway{search: search, opts: opts, version: buildinfo.Version(),
		Gate: wire.NewGate("gateway", opts.MaxInflight, opts.RetryAfter,
			reg.DeclareCounter("gateway_shed_total", "Search requests shed with 429 by the admission gate."),
			reg.DeclareGauge("gateway_requests_inflight", "Search requests currently being served.")),
		requests:     reg.DeclareCounter("gateway_requests_total", "Search requests accepted by the gateway (health checks excluded)."),
		errors:       reg.DeclareCounter("gateway_errors_total", "Search requests answered with an error envelope (4xx/5xx, sheds excluded)."),
		latency:      reg.DeclareHistogram("gateway_latency", "End-to-end latency of successful (2xx) search responses, seconds.", nil),
		errorLatency: reg.DeclareHistogram("gateway_error_latency", "End-to-end latency of shed and error responses, seconds.", nil),
		streams:      evtstream.NewMetrics(reg),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+PathSearch, g.serve(g.blocking, searchParams))
	mux.HandleFunc("POST "+PathSearch, g.serve(g.blocking, searchParams))
	mux.HandleFunc("GET "+PathSearchStream, g.serve(g.stream, streamParams))
	g.mux = mux
	return g
}

// errSeq feeds errorTraceID; the process-unique prefix keeps ids from
// two gateways distinct without coordination.
var (
	errBase = func() uint64 {
		var b [8]byte
		crand.Read(b[:])
		return binary.BigEndian.Uint64(b[:])
	}()
	errSeq atomic.Uint64
)

// errorTraceID picks the trace id an error response (shed, 500, any
// failure envelope) is stamped with: the caller's propagated id when
// the request arrived traced (the cluster router traces its fan-out),
// otherwise a fresh process-unique id. Every gateway answer — success
// or failure — carries X-Trace-Id, so failed requests are as traceable
// as served ones.
func errorTraceID(r *http.Request) string {
	if id := r.Header.Get(telemetry.HeaderTraceID); id != "" {
		return id
	}
	return fmt.Sprintf("%016x", errBase+errSeq.Add(1))
}

// ServeHTTP counts requests, applies the admission gate, converts
// handler panics into 500 envelopes, and records the outcome: latency
// into the success or error histogram by final status.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == PathHealthz {
		resp := wire.HealthResponse{Version: g.version, ShardID: g.opts.ShardID}
		if g.opts.ShardHealth != nil {
			resp.Shards = g.opts.ShardHealth()
		}
		if g.opts.Topology != nil {
			resp.Topology = g.opts.Topology()
		}
		g.ServeHealth(w, resp)
		return
	}
	g.requests.Inc()
	start := time.Now()
	sw := &wire.StatusWriter{ResponseWriter: w}
	cur, admitted := g.Enter()
	defer func() {
		g.Leave()
		g.record(sw, start)
	}()
	if !admitted {
		// A shed request never reaches the search pipeline, so no trace
		// exists yet; stamp one anyway (echoing the caller's when the
		// request arrived traced) so a client-reported 429 is greppable
		// in the access log like any other answer.
		sw.Header().Set("X-Trace-Id", errorTraceID(r))
		g.Shed(sw, cur)
		return
	}
	defer func() {
		if p := recover(); p != nil {
			g.fail(sw, r, http.StatusInternalServerError, wire.CodeInternal,
				fmt.Sprintf("panic serving %s: %v", r.URL.Path, p))
		}
	}()
	g.mux.ServeHTTP(sw, r)
}

// record books one finished request: 2xx latencies go to the success
// histogram, everything else to the error histogram (a burst of instant
// 429s must not pull p99 down). The request's trace id (every response
// carries one in X-Trace-Id) rides along as a histogram exemplar, so
// the latency tail links straight to assembled traces.
func (g *Gateway) record(sw *wire.StatusWriter, start time.Time) {
	h := g.latency
	if sw.Status() >= http.StatusMultipleChoices {
		h = g.errorLatency
	}
	h.ObserveExemplar(time.Since(start).Seconds(), sw.Header().Get("X-Trace-Id"))
}

// fail writes an error envelope, stamped with a trace id (the caller's
// propagated one when present) so every failure is traceable.
func (g *Gateway) fail(w http.ResponseWriter, r *http.Request, status int, code, msg string) {
	g.errors.Inc()
	if w.Header().Get("X-Trace-Id") == "" {
		w.Header().Set("X-Trace-Id", errorTraceID(r))
	}
	wire.WriteError(w, status, code, msg)
}

// requestBody is a POST /v1/search body.
type requestBody struct {
	Query   string `json:"query"`
	K       int    `json:"k"`
	PerDB   int    `json:"per_db"`
	Timeout string `json:"timeout"`
}

// bodyFields are requestBody's JSON names, for the 400 that rejects any
// other.
const bodyFields = "query, k, per_db, timeout"

// The GET parameters each endpoint accepts; any other is a 400 naming
// it.
var (
	searchParams = []string{"q", "k", "perdb", "timeout"}
	streamParams = []string{"q", "k", "perdb", "timeout", "format"}
)

// The reply's building blocks are the search pipeline's own types: the
// JSON tags on them are this API's wire format, so nothing is copied
// between what a search returns and what a client reads.
type (
	// Selection is one selected database in the reply.
	Selection = repro.Selection
	// Result is one merged hit in the reply.
	Result = repro.Result
	// StageSeconds is the per-stage latency decomposition of one answer:
	// cache lookup → selection → fan-out → merge (each in seconds). For a
	// cached or collapsed answer only the cache stage is nonzero.
	StageSeconds = repro.SearchStages
)

// serve is the prologue the blocking and the streaming endpoint share:
// parse the request (a 400 names what is wrong with it), join the
// caller's trace when the request arrived traced (the cluster router
// propagates its fan-out span: the searcher roots its "search" span
// under the remote parent, so one trace covers router, shard, and dbnode
// spans end to end), and run h under the request's deadline. The context
// is cancelled when h returns, which is what releases a stream's fan-out
// workers once the client is gone.
func (g *Gateway) serve(h func(ctx context.Context, w http.ResponseWriter, r *http.Request, req repro.SearchRequest), params []string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req, deadline, err := g.parseRequest(r, params)
		if err != nil {
			g.fail(w, r, http.StatusBadRequest, wire.CodeBadRequest, err.Error())
			return
		}
		ctx := telemetry.ContextWithRemote(r.Context(), telemetry.Extract(r.Header))
		var cancel context.CancelFunc
		if deadline > 0 {
			ctx, cancel = context.WithTimeout(ctx, deadline)
		} else {
			ctx, cancel = context.WithCancel(ctx)
		}
		defer cancel()
		h(ctx, w, r, req)
	}
}

// searchFailure maps a failed search to the status, code and message
// both endpoints report it with (the stream in-band, without the
// status).
func searchFailure(err error) (status int, code, msg string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, CodeDeadline, fmt.Sprintf("search exceeded its deadline: %v", err)
	case errors.Is(err, context.Canceled):
		// The client went away; the status is for the access log.
		return http.StatusServiceUnavailable, wire.CodeUnavailable, "request canceled"
	default:
		return http.StatusServiceUnavailable, wire.CodeUnavailable, err.Error()
	}
}

// blocking serves /v1/search: one search, answered with its
// repro.SearchResponse as the JSON body.
func (g *Gateway) blocking(ctx context.Context, w http.ResponseWriter, r *http.Request, req repro.SearchRequest) {
	resp, err := g.search(ctx, req)
	if err != nil {
		status, code, msg := searchFailure(err)
		g.fail(w, r, status, code, msg)
		return
	}
	if resp.TraceID != "" {
		w.Header().Set("X-Trace-Id", resp.TraceID)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// StreamSelection is the payload of a stream's selection frame: the
// selected database set in rank order, with the analyzed terms and the
// scorer that ranked them.
type StreamSelection struct {
	Terms      []string    `json:"terms,omitempty"`
	Scorer     string      `json:"scorer,omitempty"`
	Selections []Selection `json:"selections"`
}

// The payload of a node_result frame is repro.NodeEvent: one fan-out
// node's outcome, with completed/total progress.

// StreamMergeUpdate is the payload of a merge_update frame: the merged
// ranking over the fan-out slots completed so far, in final order.
type StreamMergeUpdate struct {
	Results []Result `json:"results"`
}

// StreamError is the payload of a terminal error frame. Streams commit
// to a 200 status on their first frame, so search failures arrive
// in-band with the same code vocabulary as blocking error envelopes.
type StreamError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// framePublisher adapts a stream connection's Publisher to the
// repro.SearchEvents observer the search pipeline narrates into.
type framePublisher struct {
	p *evtstream.Publisher
}

func (f framePublisher) Selection(sels []repro.Selection, terms []string, scorer string) {
	f.p.Publish(evtstream.TypeSelection, StreamSelection{Terms: terms, Scorer: scorer, Selections: sels})
}

func (f framePublisher) NodeResult(ev repro.NodeEvent) {
	f.p.Publish(evtstream.TypeNodeResult, ev)
}

func (f framePublisher) MergeUpdate(results []repro.Result) {
	if results == nil {
		results = []repro.Result{} // an empty partial merge is [], not null, on the wire
	}
	f.p.Publish(evtstream.TypeMergeUpdate, StreamMergeUpdate{Results: results})
}

// stream serves /v1/search/stream: the same search as the blocking
// endpoint, narrated frame by frame. The request headers commit to 200
// before the search runs, so failures arrive as terminal error frames.
// When the client hangs up, the request context's cancellation releases
// the fan-out workers.
func (g *Gateway) stream(ctx context.Context, w http.ResponseWriter, r *http.Request, req repro.SearchRequest) {
	p := evtstream.NewPublisher(evtstream.Options{Metrics: g.streams})
	req.Events = framePublisher{p}
	go func() {
		resp, err := g.search(ctx, req)
		if err != nil {
			g.errors.Inc()
			_, code, msg := searchFailure(err)
			p.Publish(evtstream.TypeError, StreamError{Code: code, Message: msg})
		} else {
			// The blocking endpoint's body, byte for byte: both encode
			// the one reply type.
			p.Publish(evtstream.TypeFinal, resp)
		}
		p.Close()
	}()
	p.Serve(ctx, w, evtstream.Negotiate(r))
}

// parseRequest decodes a search request from either shape — GET query
// parameters or a POST JSON body — and resolves its deadline against
// the gateway's default and cap. It fails closed: a GET parameter
// outside params, any query parameter on a POST, or a body field
// outside bodyFields is a 400 naming it, so a client misspelling
// `timeout` fails loudly instead of silently running unbounded.
func (g *Gateway) parseRequest(r *http.Request, params []string) (req repro.SearchRequest, deadline time.Duration, err error) {
	req = repro.SearchRequest{MaxDBs: g.opts.DefaultMaxDBs, PerDB: g.opts.DefaultPerDB}
	q := r.URL.Query()
	if r.Method == http.MethodPost {
		params = nil // a POST carries its parameters in the body
	}
	var unknown []string
	for name := range q {
		if !slices.Contains(params, name) {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		valid := "none on a POST; the body carries the request"
		if len(params) > 0 {
			valid = strings.Join(params, ", ")
		}
		return req, 0, fmt.Errorf("unknown query parameter %q (valid: %s)", strings.Join(unknown, ", "), valid)
	}
	var timeout string
	if r.Method == http.MethodPost {
		var body requestBody
		dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&body); err != nil {
			if field, ok := strings.CutPrefix(err.Error(), "json: unknown field "); ok {
				return req, 0, fmt.Errorf("unknown search request field %s (valid: %s)", field, bodyFields)
			}
			return req, 0, fmt.Errorf("malformed search request: %v", err)
		}
		if _, err := dec.Token(); err != io.EOF {
			return req, 0, fmt.Errorf("malformed search request: data after the JSON object")
		}
		req.Query, timeout = body.Query, body.Timeout
		if body.K != 0 {
			req.MaxDBs = body.K
		}
		if body.PerDB != 0 {
			req.PerDB = body.PerDB
		}
	} else {
		req.Query, timeout = q.Get("q"), q.Get("timeout")
		for _, p := range []struct {
			name string
			dst  *int
		}{{"k", &req.MaxDBs}, {"perdb", &req.PerDB}} {
			if s := q.Get(p.name); s != "" {
				n, err := strconv.Atoi(s)
				if err != nil {
					return req, 0, fmt.Errorf("%s must be an integer, got %q", p.name, s)
				}
				*p.dst = n
			}
		}
	}
	if strings.TrimSpace(req.Query) == "" {
		return req, 0, fmt.Errorf("search needs a query (q parameter or \"query\" field)")
	}
	if req.MaxDBs <= 0 {
		return req, 0, fmt.Errorf("k must be positive, got %d", req.MaxDBs)
	}
	if req.PerDB <= 0 {
		return req, 0, fmt.Errorf("perdb must be positive, got %d", req.PerDB)
	}
	deadline = g.opts.DefaultDeadline
	if timeout != "" {
		d, err := time.ParseDuration(timeout)
		if err != nil || d <= 0 {
			return req, 0, fmt.Errorf("timeout must be a positive duration like 500ms or 2s, got %q", timeout)
		}
		deadline = d
	}
	if limit := g.opts.MaxDeadline; limit > 0 && (deadline <= 0 || deadline > limit) {
		deadline = limit
	}
	return req, deadline, nil
}
