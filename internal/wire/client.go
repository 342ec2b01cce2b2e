package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/cache"
	"repro/internal/clock"
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

// The retry policy: a failed attempt is retried on transient errors —
// network failures, timeouts, 5xx, 429 — up to maxRetries times, the
// k-th retry sleeping backoffBase·2^k jittered into [d/2, d) and capped
// at backoffMax. A shed's Retry-After replaces the backoff, and
// DecodeError clamps it to backoffMax too: a peer cannot stall the
// client past its own ceiling.
const (
	maxRetries  = 3
	backoffBase = 50 * time.Millisecond
	backoffMax  = 2 * time.Second
)

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
	// fails with the last error instead of retrying. Successes are
	// reported back so the budget can refill. One budget is typically
	// shared by every client in the process — the bound is on total
	// retry amplification, not per-node.
	Budget RetryBudget
	// Metrics receives the wire client series: wire_requests_total,
	// wire_requests_{info,query,doc}_total, wire_client_attempts_total,
	// wire_request_errors_total, wire_client_retries_total,
	// wire_client_inflight, wire_request_latency (histogram), and the
	// doc cache's wire_doc_cache_* series (see internal/cache). May be
	// nil.
	Metrics *telemetry.Registry
}

// RetryBudget is the token-bucket contract the client uses to throttle
// retries (satisfied by *resilience.Budget, whose methods are safe on a
// nil receiver). It lives here as an interface so the wire layer does
// not depend on the resilience package above it.
type RetryBudget interface {
	// TrySpend takes one token, reporting whether the retry may launch.
	TrySpend() bool
	// RecordSuccess deposits the per-success fraction back.
	RecordSuccess()
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

// do runs one logical request: attempt, and on transient failure retry
// with jittered exponential backoff until maxRetries is exhausted or
// ctx is done. One logical request counts once in wire_requests_total
// (and its per-endpoint counter) and once in wire_request_latency
// regardless of attempts; each attempt counts in
// wire_client_attempts_total and each extra one in
// wire_client_retries_total; a logical request that ultimately fails
// counts in wire_request_errors_total.
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
	var lastErr error
	for attempt := 0; ; attempt++ {
		c.attempts.Inc()
		if stats != nil {
			stats.attempts.Add(1)
		}
		reqID := fmt.Sprintf("r%d.%d", reqBase, attempt)
		span.Event("wire.attempt",
			telemetry.String("path", path),
			telemetry.Int("attempt", attempt),
			telemetry.String("request_id", reqID))
		lastErr = c.once(ctx, method, path, body, out, span.Context(), reqID)
		if lastErr == nil {
			if c.opts.Budget != nil {
				c.opts.Budget.RecordSuccess()
			}
			return nil
		}
		if IsShed(lastErr) {
			c.sheds.Inc()
			if stats != nil {
				stats.sheds.Add(1)
			}
		}
		if !transient(lastErr) || attempt >= maxRetries || ctx.Err() != nil {
			break
		}
		if c.opts.Budget != nil && !c.opts.Budget.TrySpend() {
			// Budget empty: retrying now would amplify whatever is
			// already failing. Surface the error; failover and breakers
			// take it from here.
			break
		}
		c.retries.Inc()
		if stats != nil {
			stats.retries.Add(1)
		}
		if err := c.sleep(ctx, c.retryDelay(attempt, lastErr)); err != nil {
			lastErr = err
			break
		}
	}
	c.reqErrors.Inc()
	return lastErr
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

// retryDelay picks the sleep before the (attempt+1)-th retry: when the
// node shed the request and named its price in Retry-After, honor it
// (DecodeError has already capped it at backoffMax); otherwise fall
// back to jittered exponential backoff.
func (c *Client) retryDelay(attempt int, lastErr error) time.Duration {
	var pe *ProtocolError
	if errors.As(lastErr, &pe) && pe.Shed() && pe.RetryAfter > 0 {
		return pe.RetryAfter
	}
	return backoff(attempt)
}

// backoff returns the jittered sleep before the (attempt+1)-th retry.
func backoff(attempt int) time.Duration {
	d := backoffBase
	for i := 0; i < attempt && d < backoffMax; i++ {
		d *= 2
	}
	if d > backoffMax {
		d = backoffMax
	}
	// Jitter into [d/2, d) so a fleet of clients retrying against one
	// recovering node spreads out instead of thundering back in sync.
	return d/2 + time.Duration(rand.Float64()*float64(d/2))
}

// transient reports whether err is worth retrying: every network-level
// failure is (the connection may land on a healthy path next time), as
// are 5xx and 429 protocol errors; other protocol errors (bad request,
// not found) are permanent.
func transient(err error) bool {
	var pe *ProtocolError
	if errors.As(err, &pe) {
		return pe.Transient()
	}
	// Everything else reaching here is a transport-level failure
	// (dial refused, reset, attempt timeout) — retryable unless the
	// caller's own context ended.
	return !errors.Is(err, context.Canceled)
}

// sleep waits d on the client's clock or until ctx is done, whichever
// is first.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	t := c.opts.Clock.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C():
		return nil
	}
}
