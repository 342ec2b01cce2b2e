// Package chaos is the cluster's fault-injection harness: an HTTP
// reverse proxy that sits in front of any member (dbnode replica, shard
// gateway, router) and injects configurable faults — added latency,
// error responses, connection resets, blackholes, slow response bodies
// — between the caller and the real backend.
//
// It exists so that cluster-level failure testing exercises the real
// network paths (replica-set retries, breakers, hedges, failover,
// budgets) instead of per-test fakes: the e2e reconfiguration test and
// scripts/ boot the same proxy an operator would, and reconfigure it at
// runtime through the /chaos admin endpoint. Faults are sampled with a
// seeded PRNG so a test run is reproducible.
package chaos

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Faults is the active fault configuration. The zero value injects
// nothing (the proxy is transparent). All fields are runtime-settable
// through POST /chaos; durations are integer milliseconds and rates are
// [0,1] fractions so the struct round-trips trivially through curl.
type Faults struct {
	// LatencyMs is added to every proxied request, plus a uniform random
	// 0..JitterMs on top.
	LatencyMs int `json:"latency_ms,omitempty"`
	JitterMs  int `json:"jitter_ms,omitempty"`
	// ErrorRate is the fraction of requests answered with ErrorCode
	// (default 502) without touching the backend.
	ErrorRate float64 `json:"error_rate,omitempty"`
	ErrorCode int     `json:"error_code,omitempty"`
	// ResetRate is the fraction of requests whose connection is closed
	// abruptly (TCP reset as seen by the client) without a response.
	ResetRate float64 `json:"reset_rate,omitempty"`
	// Blackhole swallows every request: the proxy holds the connection
	// open, never answers, and aborts when the client gives up — a
	// network partition as seen from the caller.
	Blackhole bool `json:"blackhole,omitempty"`
	// SlowBodyBytesPerSec throttles response bodies to roughly this
	// rate, modelling a saturated or degraded link.
	SlowBodyBytesPerSec int `json:"slow_body_bytes_per_sec,omitempty"`
}

// Stats counts what the proxy has done since boot.
type Stats struct {
	Proxied     int64 `json:"proxied"`
	Delayed     int64 `json:"delayed"`
	Errors      int64 `json:"errors_injected"`
	Resets      int64 `json:"resets_injected"`
	Blackholed  int64 `json:"blackholed"`
	Throttled   int64 `json:"throttled_bodies"`
	AdminWrites int64 `json:"admin_writes"`
}

// Options tunes a Proxy.
type Options struct {
	// Initial is the fault set active at boot (zero: transparent).
	Initial Faults
	// Seed seeds the fault-sampling PRNG (0: a fixed default, so runs
	// are reproducible unless a seed is chosen).
	Seed int64
	// Logger, when non-nil, logs admin reconfigurations.
	Logger *slog.Logger
}

// Proxy is the fault-injecting reverse proxy. It serves two surfaces on
// one listener: /chaos (admin: GET returns faults+stats, POST replaces
// the fault set) and everything else (proxied to the target with the
// active faults applied).
type Proxy struct {
	target *url.URL
	rp     *httputil.ReverseProxy
	logger *slog.Logger

	mu     sync.Mutex
	faults Faults
	rng    *rand.Rand

	proxied     atomic.Int64
	delayed     atomic.Int64
	errors      atomic.Int64
	resets      atomic.Int64
	blackholed  atomic.Int64
	throttled   atomic.Int64
	adminWrites atomic.Int64
}

// New builds a proxy fronting target (a base URL like
// "http://127.0.0.1:9201").
func New(target string, opts Options) (*Proxy, error) {
	u, err := url.Parse(target)
	if err != nil {
		return nil, fmt.Errorf("chaos: target %q: %w", target, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("chaos: target %q: need scheme://host", target)
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	p := &Proxy{
		target: u,
		logger: opts.Logger,
		faults: opts.Initial,
		rng:    rand.New(rand.NewSource(seed)),
	}
	p.rp = httputil.NewSingleHostReverseProxy(u)
	// A dead backend must look like an ordinary upstream error, not a
	// stack trace in the proxy's log.
	p.rp.ErrorHandler = func(w http.ResponseWriter, r *http.Request, err error) {
		w.WriteHeader(http.StatusBadGateway)
		fmt.Fprintf(w, "chaos: upstream %s: %v\n", u.Host, err)
	}
	return p, nil
}

// Faults returns the active fault set.
func (p *Proxy) Faults() Faults {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.faults
}

// SetFaults replaces the active fault set (also reachable via POST
// /chaos).
func (p *Proxy) SetFaults(f Faults) {
	p.mu.Lock()
	p.faults = f
	p.mu.Unlock()
	p.adminWrites.Add(1)
	if p.logger != nil {
		p.logger.Info("chaos faults set", "target", p.target.String(),
			"latency_ms", f.LatencyMs, "error_rate", f.ErrorRate,
			"reset_rate", f.ResetRate, "blackhole", f.Blackhole,
			"slow_body_Bps", f.SlowBodyBytesPerSec)
	}
}

// Stats returns the proxy's lifetime counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Proxied:     p.proxied.Load(),
		Delayed:     p.delayed.Load(),
		Errors:      p.errors.Load(),
		Resets:      p.resets.Load(),
		Blackholed:  p.blackholed.Load(),
		Throttled:   p.throttled.Load(),
		AdminWrites: p.adminWrites.Load(),
	}
}

// roll samples the seeded PRNG against a [0,1] rate.
func (p *Proxy) roll(rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rng.Float64() < rate
}

// jitter samples 0..ms milliseconds.
func (p *Proxy) jitter(ms int) time.Duration {
	if ms <= 0 {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return time.Duration(p.rng.Intn(ms+1)) * time.Millisecond
}

func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/chaos" || strings.HasPrefix(r.URL.Path, "/chaos/") {
		p.serveAdmin(w, r)
		return
	}
	f := p.Faults()

	if f.Blackhole {
		// Hold the request open until the caller gives up, then abort
		// the connection without a response — a partition, not an error.
		p.blackholed.Add(1)
		<-r.Context().Done()
		panic(http.ErrAbortHandler)
	}
	if d := time.Duration(f.LatencyMs)*time.Millisecond + p.jitter(f.JitterMs); d > 0 {
		p.delayed.Add(1)
		select {
		case <-time.After(d):
		case <-r.Context().Done():
			panic(http.ErrAbortHandler)
		}
	}
	if p.roll(f.ResetRate) {
		p.resets.Add(1)
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
				return
			}
		}
		// No hijack support (HTTP/2 etc.): abort instead.
		panic(http.ErrAbortHandler)
	}
	if p.roll(f.ErrorRate) {
		p.errors.Add(1)
		code := f.ErrorCode
		if code == 0 {
			code = http.StatusBadGateway
		}
		http.Error(w, "chaos: injected error", code)
		return
	}
	if f.SlowBodyBytesPerSec > 0 {
		p.throttled.Add(1)
		w = &throttledWriter{ResponseWriter: w, bytesPerSec: f.SlowBodyBytesPerSec, ctx: r.Context()}
	}
	p.proxied.Add(1)
	p.rp.ServeHTTP(w, r)
}

// serveAdmin handles GET /chaos (inspect) and POST /chaos (replace
// fault set).
func (p *Proxy) serveAdmin(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
	case http.MethodPost, http.MethodPut:
		var f Faults
		if err := json.NewDecoder(r.Body).Decode(&f); err != nil {
			http.Error(w, fmt.Sprintf("chaos: bad faults body: %v", err), http.StatusBadRequest)
			return
		}
		if f.ErrorRate < 0 || f.ErrorRate > 1 || f.ResetRate < 0 || f.ResetRate > 1 {
			http.Error(w, "chaos: rates must be in [0,1]", http.StatusBadRequest)
			return
		}
		p.SetFaults(f)
	default:
		http.Error(w, "chaos: GET or POST", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct {
		Target string `json:"target"`
		Faults Faults `json:"faults"`
		Stats  Stats  `json:"stats"`
	}{p.target.String(), p.Faults(), p.Stats()})
}

// throttledWriter paces body writes to roughly bytesPerSec by writing
// in small chunks against a schedule anchored at the first write. The
// budget spans Write calls: a streamed (flushed) response whose frames
// arrive as many small writes is paced exactly like one buffered body —
// each frame ships when the byte schedule reaches it, which is what
// lets the chaos proxy exercise SSE backpressure.
type throttledWriter struct {
	http.ResponseWriter
	bytesPerSec int
	ctx         interface{ Done() <-chan struct{} }
	start       time.Time
	total       int // bytes written across all calls
}

func (t *throttledWriter) Write(b []byte) (int, error) {
	const chunk = 512
	if t.start.IsZero() {
		t.start = time.Now()
	}
	written := 0
	for len(b) > 0 {
		// Sleep until the schedule catches up with what was already
		// written; the first chunk goes out immediately.
		due := time.Duration(float64(t.total) / float64(t.bytesPerSec) * float64(time.Second))
		if ahead := due - time.Since(t.start); ahead > 0 {
			select {
			case <-time.After(ahead):
			case <-t.ctx.Done():
				return written, fmt.Errorf("chaos: throttled write abandoned")
			}
		}
		n := chunk
		if n > len(b) {
			n = len(b)
		}
		w, err := t.ResponseWriter.Write(b[:n])
		written += w
		t.total += w
		if err != nil {
			return written, err
		}
		if f, ok := t.ResponseWriter.(http.Flusher); ok {
			f.Flush()
		}
		b = b[n:]
	}
	return written, nil
}

// Flush forwards to the inner writer, so the reverse proxy sees an
// http.Flusher on the wrapper and keeps passing streamed responses
// through frame by frame instead of falling back to buffering.
func (t *throttledWriter) Flush() {
	if f, ok := t.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.NewResponseController reach the inner writer's
// controls through the wrapper.
func (t *throttledWriter) Unwrap() http.ResponseWriter { return t.ResponseWriter }
