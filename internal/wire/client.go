package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/cache"
	"repro/internal/telemetry"
)

// userAgent identifies this client in node access logs.
var userAgent = "metasearch-repro/" + buildinfo.Version()

// reqSeq numbers logical requests process-wide; the per-attempt request
// ID "r<seq>.<attempt>" lands in the X-Request-Id header and on the
// caller's trace, so a retried attempt is distinguishable from a fresh
// call in both processes' records.
var reqSeq atomic.Uint64

// NextSeq numbers a new logical call: the attempt loop above the client
// takes one per call and passes it down with each attempt.
func NextSeq() uint64 { return reqSeq.Add(1) }

// Attempt names one HTTP exchange of a logical call: Seq is the call's
// number (NextSeq) and N the exchange's place in it, from 0, so the
// request ID is "r<Seq>.<N>". A caller making a single exchange passes
// Attempt{Seq: NextSeq()}.
type Attempt struct {
	Seq uint64
	N   int
}

// sharedTransport is the default http.Transport all wire clients share,
// so a metasearcher talking to hundreds of nodes reuses a bounded pool
// of keep-alive connections instead of redialing per request.
var sharedTransport = &http.Transport{
	Proxy: http.ProxyFromEnvironment,
	DialContext: (&net.Dialer{
		Timeout:   5 * time.Second,
		KeepAlive: 30 * time.Second,
	}).DialContext,
	MaxIdleConns:        256,
	MaxIdleConnsPerHost: 32,
	IdleConnTimeout:     90 * time.Second,
}

// ClientOptions configures a Client. The zero value is usable.
type ClientOptions struct {
	// Timeout bounds each attempt, dial to last body byte (default 5s).
	// It is a context deadline on the wall clock.
	Timeout time.Duration
	// CacheSize is the capacity of the in-client LRU document cache
	// (default 1024; negative disables caching).
	CacheSize int
	// Transport overrides the shared keep-alive transport (tests).
	Transport http.RoundTripper
	// Metrics receives the wire_* client series NewClient declares and
	// the doc cache's wire_doc_cache_* series. May be nil.
	Metrics *telemetry.Registry
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.Timeout == 0 {
		o.Timeout = 5 * time.Second
	}
	if o.CacheSize == 0 {
		o.CacheSize = 1024
	}
	if o.Transport == nil {
		o.Transport = sharedTransport
	}
	return o
}

// Client speaks the wire protocol to one database node, one HTTP
// exchange per call: retrying, failing over and backing off are the
// attempt loop's above it (replica.Database), which passes each
// exchange its Attempt. It is safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client
	opts ClientOptions
	// cache is the LRU of document id → analyzed terms (nil when
	// disabled). Sampling re-fetches the top-ranked documents of popular
	// words across QBS rounds, so a small cache absorbs a large share of
	// /v1/doc round trips.
	cache *cache.Cache

	// metric pointers resolved once (all nil-safe no-ops without a
	// registry).
	requests   *telemetry.Counter
	reqInfo    *telemetry.Counter
	reqQuery   *telemetry.Counter
	reqDoc     *telemetry.Counter
	attempts   *telemetry.Counter
	reqErrors  *telemetry.Counter
	retries    *telemetry.Counter
	sheds      *telemetry.Counter
	healthReqs *telemetry.Counter
	inflight   *telemetry.Gauge
	latency    *telemetry.Histogram
}

// NewClient creates a client for the node at addr ("host:port" or a
// full http:// base URL). The client's metric series are registered
// immediately so an exposition endpoint shows them at zero.
func NewClient(addr string, opts ClientOptions) *Client {
	opts = opts.withDefaults()
	base := strings.TrimSuffix(addr, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	reg := opts.Metrics
	// One shard: a client's cache is small, and exact LRU order over
	// the whole capacity is what keeps the hottest documents in. The
	// series are registered either way, so the exposition schema does
	// not depend on configuration — but a disabled cache is dropped and
	// counts nothing: no cache, no misses.
	docCache := cache.New(cache.Options{Name: "wire_doc_cache", Capacity: opts.CacheSize, Shards: 1, Metrics: reg})
	if opts.CacheSize < 0 {
		docCache = nil
	}
	c := &Client{
		base:  base,
		hc:    &http.Client{Transport: opts.Transport},
		opts:  opts,
		cache: docCache,

		requests:   reg.DeclareCounter("wire_requests_total", "Wire-protocol calls issued by this client (all endpoints)."),
		reqInfo:    reg.DeclareCounter("wire_requests_info_total", "Wire /v1/info calls issued."),
		reqQuery:   reg.DeclareCounter("wire_requests_query_total", "Wire /v1/query calls issued."),
		reqDoc:     reg.DeclareCounter("wire_requests_doc_total", "Wire /v1/doc calls issued."),
		attempts:   reg.DeclareCounter("wire_client_attempts_total", "HTTP attempts including retries, across all wire calls."),
		reqErrors:  reg.DeclareCounter("wire_request_errors_total", "Wire calls that failed after exhausting retries."),
		retries:    reg.DeclareCounter("wire_client_retries_total", "Wire attempts after a call's first: same-node retries and replica failovers."),
		sheds:      reg.DeclareCounter("wire_client_sheds_total", "Wire attempts the node shed with 429 (backpressure)."),
		healthReqs: reg.DeclareCounter("wire_health_probes_total", "Wire /v1/health probes issued."),
		inflight:   reg.DeclareGauge("wire_client_inflight", "Wire attempts currently in flight from this client."),
		latency:    reg.DeclareHistogram("wire_request_latency", "Per-attempt wire latency, seconds.", nil),
	}
	return c
}

// BaseURL returns the node's base URL.
func (c *Client) BaseURL() string { return c.base }

// Close releases transport resources the client can release safely.
// A client on the shared process-wide transport leaves it alone (other
// clients' connection pools live there; idle timeouts reclaim this
// node's connections); a client with its own transport closes its idle
// connections immediately.
func (c *Client) Close() {
	if c.opts.Transport == http.RoundTripper(sharedTransport) {
		return
	}
	type idleCloser interface{ CloseIdleConnections() }
	if t, ok := c.opts.Transport.(idleCloser); ok {
		t.CloseIdleConnections()
	}
}

// Info fetches the node's description (GET /v1/info).
func (c *Client) Info(ctx context.Context, at Attempt) (InfoResponse, error) {
	var out InfoResponse
	err := c.do(ctx, at, http.MethodGet, PathInfo, nil, &out)
	return out, err
}

// Query evaluates a conjunctive query at the node (POST /v1/query). A
// reply no honest node sends (more ids than the limit or the match
// count, a negative match count) is a *ReplyError.
func (c *Client) Query(ctx context.Context, at Attempt, terms []string, limit int) (int, []int, error) {
	var out QueryResponse
	err := c.do(ctx, at, http.MethodPost, PathQuery, QueryRequest{Terms: terms, Limit: limit}, &out)
	if err == nil {
		err = out.check(limit)
	}
	if err != nil {
		return 0, nil, err
	}
	return out.Matches, out.IDs, nil
}

// Doc fetches one document's terms (GET /v1/doc/{id}), serving repeat
// fetches from the in-client LRU. The returned slice is shared with the
// cache and must not be modified.
func (c *Client) Doc(ctx context.Context, at Attempt, id int) ([]string, error) {
	key := strconv.Itoa(id)
	if terms, ok := c.cache.Get(key); ok {
		return terms.([]string), nil
	}
	var out DocResponse
	if err := c.do(ctx, at, http.MethodGet, PathDocPrefix+key, nil, &out); err != nil {
		return nil, err
	}
	c.cache.Put(key, out.Terms)
	return out.Terms, nil
}

// CachedDocs reports how many documents the LRU currently holds.
func (c *Client) CachedDocs() int { return c.cache.Len() }

// Health checks the node's /v1/health in a single attempt — no
// retries, because a probe exists to measure the node as it is right
// now, and outside the request counters and latency histogram, which
// describe protocol traffic. A nil error means the node is up and
// accepting traffic (a draining node's 503 is an error).
func (c *Client) Health(ctx context.Context) (HealthResponse, error) {
	c.healthReqs.Inc()
	var out HealthResponse
	span := telemetry.SpanFromContext(ctx)
	reqID := fmt.Sprintf("r%d.0", NextSeq())
	err := c.once(ctx, http.MethodGet, PathHealth, nil, &out, span.Context(), reqID)
	return out, err
}

// endpointCounter resolves the per-endpoint request counter, so a
// /metrics reader can tell which protocol calls drive the volume.
func (c *Client) endpointCounter(path string) *telemetry.Counter {
	switch {
	case path == PathInfo:
		return c.reqInfo
	case path == PathQuery:
		return c.reqQuery
	case strings.HasPrefix(path, PathDocPrefix):
		return c.reqDoc
	}
	return nil
}

// CallFailed counts a logical call the attempt loop above the client
// gave up on in wire_request_errors_total. Only that loop knows which of
// a call's exchanges was its last.
func (c *Client) CallFailed() { c.reqErrors.Inc() }

// do makes one exchange of a logical call. Its first exchange (at.N ==
// 0) counts in wire_requests_total and the endpoint's counter, each
// later one — a same-node retry or a replica failover alike — in
// wire_client_retries_total, and every one in wire_client_attempts_total,
// wire_client_inflight and wire_request_latency.
//
// The exchange sends X-Trace-Id/X-Parent-Span from the span carried by
// ctx (so the node's handler span parents under the caller's) plus the
// X-Request-Id "r<seq>.<attempt>", noted as a wire.attempt event on it.
func (c *Client) do(ctx context.Context, at Attempt, method, path string, in, out interface{}) (err error) {
	t0 := time.Now()
	if at.N == 0 {
		c.requests.Inc()
		c.endpointCounter(path).Inc()
	} else {
		c.retries.Inc()
	}
	c.attempts.Inc()
	c.inflight.Add(1)
	defer c.inflight.Add(-1)
	defer c.latency.ObserveSince(t0)

	var body []byte
	if in != nil {
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("wire: encoding %s request: %w", path, err)
		}
	}
	span := telemetry.SpanFromContext(ctx)
	reqID := fmt.Sprintf("r%d.%d", at.Seq, at.N)
	span.Event("wire.attempt",
		telemetry.String("path", path),
		telemetry.Int("attempt", at.N),
		telemetry.String("request_id", reqID))
	err = c.once(ctx, method, path, body, out, span.Context(), reqID)
	var pe *ProtocolError
	shed := errors.As(err, &pe) && pe.Shed()
	if shed {
		c.sheds.Inc()
	}
	statsFromContext(ctx).count(at.N, shed)
	return err
}

// once performs a single HTTP attempt under the per-attempt timeout.
func (c *Client) once(ctx context.Context, method, path string, body []byte, out interface{}, sc telemetry.SpanContext, reqID string) error {
	ctx, cancel := context.WithTimeout(ctx, c.opts.Timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("wire: building request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("User-Agent", userAgent)
	req.Header.Set(telemetry.HeaderRequestID, reqID)
	telemetry.Inject(sc, req.Header)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	// Drain and close so the keep-alive connection returns to the pool.
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, MaxBodyBytes))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return DecodeError(resp)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, MaxBodyBytes)).Decode(out); err != nil {
		return fmt.Errorf("wire: decoding %s response: %w", path, err)
	}
	return nil
}
