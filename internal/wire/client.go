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
	"repro/internal/clock"
	"repro/internal/resilience"
	"repro/internal/telemetry"
)

// userAgent identifies this client in node access logs.
var userAgent = "metasearch-repro/" + buildinfo.Version()

// reqSeq numbers logical requests process-wide; the per-attempt request
// ID "r<seq>.<attempt>" lands in the X-Request-Id header and on the
// caller's trace, so a retried attempt is distinguishable from a fresh
// call in both processes' records.
var reqSeq atomic.Uint64

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

// maxRetries is how often a call retries a transient failure (a network
// failure, a timeout, a 5xx or a shed) through resilience.Do.
const maxRetries = 3

// ClientOptions configures a Client. The zero value is usable.
type ClientOptions struct {
	// Timeout bounds each attempt, dial to last body byte (default 5s).
	// It is a context deadline on the wall clock, not on Clock.
	Timeout time.Duration
	// Clock times the backoff sleeps between retries (nil: real time).
	Clock clock.Clock
	// CacheSize is the capacity of the in-client LRU document cache
	// (default 1024; negative disables caching).
	CacheSize int
	// Transport overrides the shared keep-alive transport (tests).
	Transport http.RoundTripper
	// Budget, when non-nil, bounds this client's retry volume: each
	// retry must win a token from the budget or the logical request
	// fails with the last error instead of retrying, and each successful
	// call deposits. One budget is typically shared by every client in
	// the process (Metasearcher.RetryBudget) — the bound is on total
	// retry amplification, not per-node. Nil leaves retries unbudgeted.
	Budget *resilience.Budget
	// Metrics receives the wire client series: wire_requests_total,
	// wire_requests_{info,query,doc}_total, wire_client_attempts_total,
	// wire_request_errors_total, wire_client_retries_total,
	// wire_client_inflight, wire_request_latency (histogram), and the
	// doc cache's wire_doc_cache_* series (see internal/cache). May be
	// nil.
	Metrics *telemetry.Registry
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.Timeout == 0 {
		o.Timeout = 5 * time.Second
	}
	o.Clock = clock.Or(o.Clock)
	if o.CacheSize == 0 {
		o.CacheSize = 1024
	}
	if o.Transport == nil {
		o.Transport = sharedTransport
	}
	return o
}

// Client speaks the wire protocol to one database node. It is safe for
// concurrent use.
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
		retries:    reg.DeclareCounter("wire_client_retries_total", "Retry attempts after transient wire failures."),
		sheds:      reg.DeclareCounter("wire_client_sheds_total", "Wire attempts the node shed with 429 (backpressure)."),
		healthReqs: reg.DeclareCounter("wire_health_probes_total", "Wire /v1/health probes issued."),
		inflight:   reg.DeclareGauge("wire_client_inflight", "Wire calls currently in flight from this client."),
		latency:    reg.DeclareHistogram("wire_request_latency", "Per-call wire latency including retries, seconds.", nil),
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
func (c *Client) Info(ctx context.Context) (InfoResponse, error) {
	var out InfoResponse
	err := c.do(ctx, http.MethodGet, PathInfo, nil, &out)
	return out, err
}

// Query evaluates a conjunctive query at the node (POST /v1/query).
func (c *Client) Query(ctx context.Context, terms []string, limit int) (int, []int, error) {
	var out QueryResponse
	err := c.do(ctx, http.MethodPost, PathQuery, QueryRequest{Terms: terms, Limit: limit}, &out)
	if err != nil {
		return 0, nil, err
	}
	return out.Matches, out.IDs, nil
}

// Doc fetches one document's terms (GET /v1/doc/{id}), serving repeat
// fetches from the in-client LRU. The returned slice is shared with the
// cache and must not be modified.
func (c *Client) Doc(ctx context.Context, id int) ([]string, error) {
	key := strconv.Itoa(id)
	if terms, ok := c.cache.Get(key); ok {
		return terms.([]string), nil
	}
	var out DocResponse
	if err := c.do(ctx, http.MethodGet, PathDocPrefix+key, nil, &out); err != nil {
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
	reqID := fmt.Sprintf("r%d.0", reqSeq.Add(1))
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

// do runs one logical request through resilience.Do (maxRetries, sheds
// retried). It counts once in wire_requests_total (and its per-endpoint
// counter) and wire_request_latency whatever its attempts; each attempt
// counts in wire_client_attempts_total and each extra one in
// wire_client_retries_total; a request that ultimately fails counts in
// wire_request_errors_total.
//
// Trace context propagates from the span carried by ctx: every attempt
// sends X-Trace-Id/X-Parent-Span (so the node's handler span parents
// under the caller's span) plus a per-attempt X-Request-Id, and is
// noted as a wire.attempt event on the caller's span.
func (c *Client) do(ctx context.Context, method, path string, in, out interface{}) error {
	t0 := time.Now()
	c.requests.Inc()
	c.endpointCounter(path).Inc()
	c.inflight.Add(1)
	defer c.inflight.Add(-1)
	defer c.latency.ObserveSince(t0)

	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			c.reqErrors.Inc()
			return fmt.Errorf("wire: encoding %s request: %w", path, err)
		}
	}
	span := telemetry.SpanFromContext(ctx)
	stats := statsFromContext(ctx)
	reqBase := reqSeq.Add(1)
	policy := resilience.Policy{Retries: maxRetries, RetryShed: true, Deposit: true, Clock: c.opts.Clock, Budget: c.opts.Budget}
	_, err := resilience.Do(ctx, policy, []string{c.base}, func(ctx context.Context, _, attempt int) error {
		c.attempts.Inc()
		if attempt > 0 {
			c.retries.Inc()
		}
		reqID := fmt.Sprintf("r%d.%d", reqBase, attempt)
		span.Event("wire.attempt",
			telemetry.String("path", path),
			telemetry.Int("attempt", attempt),
			telemetry.String("request_id", reqID))
		err := c.once(ctx, method, path, body, out, span.Context(), reqID)
		var pe *ProtocolError
		shed := errors.As(err, &pe) && pe.Shed()
		if shed {
			c.sheds.Inc()
		}
		stats.count(attempt, shed)
		return err
	})
	if err != nil {
		c.reqErrors.Inc()
	}
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
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxBodyBytes))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return DecodeError(resp)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxBodyBytes)).Decode(out); err != nil {
		return fmt.Errorf("wire: decoding %s response: %w", path, err)
	}
	return nil
}
