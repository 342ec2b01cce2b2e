// Package chaos is the cluster's fault injector: an http.Handler that
// wraps any member's handler (dbnode replica, shard gateway, router) and
// injects configurable faults — added latency, error responses,
// connection resets, hangs, one-shot failures, slow response bodies —
// before the request reaches it.
//
// It exists so that failure tests exercise the real network paths
// (replica-set retries, breakers, hedges, failover, budgets) over real
// sockets instead of per-test fakes: a test serves the wrapped handler
// on an httptest server and changes the faults at runtime with
// SetFaults. Faults are drawn from a seeded PRNG, and the counters in
// Stats are the ground truth a test reconciles client telemetry
// against.
package chaos

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Faults is the active fault configuration. The zero value injects
// nothing (the injector is transparent).
type Faults struct {
	// Latency is added to every request, plus a uniform random
	// 0..Jitter on top.
	Latency time.Duration
	Jitter  time.Duration
	// ErrorRate is the fraction of requests answered with ErrorCode
	// (default 503) without reaching the wrapped handler.
	ErrorRate float64
	ErrorCode int
	// ResetRate is the fraction of requests whose connection is closed
	// abruptly (TCP reset as seen by the client) without a response.
	ResetRate float64
	// HangEvery makes every n-th request (counted over the injector's
	// life) hang: no response until the caller gives up or HangFor
	// (default 30s) passes, then the connection is aborted — a
	// partition as seen from the caller. 0 never hangs.
	HangEvery int
	HangFor   time.Duration
	// SlowBodyBytesPerSec throttles response bodies to roughly this
	// rate, modelling a saturated or degraded link.
	SlowBodyBytesPerSec int
}

// Options configures an Injector.
type Options struct {
	// Faults is the fault set active from the start (zero: transparent).
	Faults Faults
	// Seed seeds the PRNG the error and reset rates and the jitter draw
	// from. With no jitter or reset set, each request that is not hung
	// draws one Float64 for the error rate, so a seed fixes which
	// requests fail.
	Seed int64
}

// Stats counts what the injector has done since it was built.
type Stats struct {
	Requests  int64 // every request that arrived
	Served    int64 // passed to the wrapped handler
	Delayed   int64
	Errors    int64 // injected error responses, FailNext's included
	Resets    int64
	Hangs     int64
	Throttled int64
}

// Injector wraps a handler with fault injection.
type Injector struct {
	next http.Handler

	mu     sync.Mutex
	faults Faults
	rng    *rand.Rand

	failNext                                                    atomic.Bool
	requests, served, delayed, errors, resets, hangs, throttled atomic.Int64
}

// Wrap builds an injector in front of next.
func Wrap(next http.Handler, opts Options) *Injector {
	return &Injector{next: next, faults: opts.Faults, rng: rand.New(rand.NewSource(opts.Seed))}
}

// SetFaults replaces the active fault set.
func (i *Injector) SetFaults(f Faults) {
	i.mu.Lock()
	i.faults = f
	i.mu.Unlock()
}

// FailNext makes the next request fail with an injected error, whatever
// the fault set: one fault placed at a chosen moment, for asserting
// exactly-one-retry behaviour.
func (i *Injector) FailNext() { i.failNext.Store(true) }

// Stats returns the injector's lifetime counters.
func (i *Injector) Stats() Stats {
	return Stats{
		Requests:  i.requests.Load(),
		Served:    i.served.Load(),
		Delayed:   i.delayed.Load(),
		Errors:    i.errors.Load(),
		Resets:    i.resets.Load(),
		Hangs:     i.hangs.Load(),
		Throttled: i.throttled.Load(),
	}
}

// roll samples the seeded PRNG against a [0,1] rate.
func (i *Injector) roll(rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.rng.Float64() < rate
}

// jitter samples 0..max.
func (i *Injector) jitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return time.Duration(i.rng.Int63n(int64(max) + 1))
}

// wait holds the request for d, aborting the connection without a
// response if the caller gives up first.
func wait(r *http.Request, d time.Duration) {
	select {
	case <-time.After(d):
	case <-r.Context().Done():
		panic(http.ErrAbortHandler)
	}
}

func (i *Injector) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n := i.requests.Add(1)
	i.mu.Lock()
	f := i.faults
	i.mu.Unlock()

	if f.HangEvery > 0 && n%int64(f.HangEvery) == 0 {
		i.hangs.Add(1)
		if f.HangFor <= 0 {
			f.HangFor = 30 * time.Second
		}
		// net/http notices a caller hanging up only once the request
		// body is read.
		io.Copy(io.Discard, r.Body)
		wait(r, f.HangFor)
		panic(http.ErrAbortHandler)
	}
	if d := f.Latency + i.jitter(f.Jitter); d > 0 {
		i.delayed.Add(1)
		wait(r, d)
	}
	if i.roll(f.ResetRate) {
		i.resets.Add(1)
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
				return
			}
		}
		// No hijack support (HTTP/2 etc.): abort instead.
		panic(http.ErrAbortHandler)
	}
	if i.failNext.CompareAndSwap(true, false) || i.roll(f.ErrorRate) {
		i.errors.Add(1)
		code := f.ErrorCode
		if code == 0 {
			code = http.StatusServiceUnavailable
		}
		http.Error(w, "chaos: injected error", code)
		return
	}
	if f.SlowBodyBytesPerSec > 0 {
		i.throttled.Add(1)
		w = &throttledWriter{ResponseWriter: w, bytesPerSec: f.SlowBodyBytesPerSec, ctx: r.Context()}
	}
	i.served.Add(1)
	i.next.ServeHTTP(w, r)
}

// throttledWriter paces body writes to roughly bytesPerSec by writing
// in small chunks against a schedule anchored at the first write. The
// budget spans Write calls: a streamed (flushed) response whose frames
// arrive as many small writes is paced exactly like one buffered body —
// each frame ships when the byte schedule reaches it, which is what
// lets a slow body exercise SSE backpressure.
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

// Flush forwards to the inner writer, so a streaming handler sees an
// http.Flusher on the wrapper and its frames pass through one by one
// instead of being buffered.
func (t *throttledWriter) Flush() {
	if f, ok := t.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.NewResponseController reach the inner writer's
// controls through the wrapper.
func (t *throttledWriter) Unwrap() http.ResponseWriter { return t.ResponseWriter }
