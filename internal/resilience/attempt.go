package resilience

import (
	"context"
	"errors"
	"math/rand"
	"time"

	"repro/internal/clock"
)

// The backoff before same-target retry k+1 is backoffBase·2^k, jittered
// into [d/2, d) and capped at BackoffMax; a shed's Retry-After replaces
// it, capped the same, so no peer stalls a call past the ceiling
// (wire.DecodeError clamps the header to it, so none overflows
// time.Duration either).
const (
	backoffBase = 50 * time.Millisecond
	BackoffMax  = 2 * time.Second
)

// ErrShortCircuited is Do's error when every target's breaker held it back.
var ErrShortCircuited = errors.New("resilience: every target is short-circuited")

// Policy is one call site's attempt policy, set from the site's own
// constants (DESIGN §9.4 tabulates the three sites). The zero value tries
// each target once, in order.
type Policy struct {
	Retries    int           // same-target retries of a transient failure
	RetryShed  bool          // retry a shed too, after its Retry-After; else it fails over at once
	HedgeAfter time.Duration // > 0: race one duplicate of an attempt this slow, once per call
	Deposit    bool          // a success pays Budget; only the layer that talks to the target sets it
	Clock      clock.Clock   // times the backoff and the hedge (nil: real time)
	Breakers   *Set          // admits targets by key and takes one verdict each (nil: admit all)
	Budget     *Budget       // pays for every retry and hedge (nil: for all of them)
}

// Outcome is how a Do call ended: the attempt whose result stands (the
// success, or the failure returned; attempts are numbered from 0 across
// targets, retries and hedge) and whether a hedge was launched.
type Outcome struct {
	Attempt int
	Hedged  bool
}

// Do is the one attempt loop of the serving path: the replica set (for
// its wire clients), the search fan-out and the cluster router run their
// calls through it. fn runs attempt number attempt against targets[target];
// targets are breaker keys in preference order. Do takes them in turn
// until one succeeds: it stops once ctx is done, skips a target whose
// breaker short-circuits, retries a transient failure up to p.Retries
// times after the backoff or a shed's Retry-After, records the target's
// one verdict (Breaker.RecordCall), and fails over to the next target for
// free. Every retry and hedge is paid from p.Budget first. Errors are
// read through the methods they expose, so this package imports no wire
// protocol: Shed(), Transient(), RetryDelay().
//
// On failure Do returns the last target's error, ErrShortCircuited when
// none was admitted, or ctx's error when ctx ended first. A losing hedge
// may still be running when Do returns: fn writes into per-attempt slots
// and the caller reads only out.Attempt's.
func Do(ctx context.Context, p Policy, targets []string, fn func(ctx context.Context, target, attempt int) error) (Outcome, error) {
	var out Outcome
	next := 0 // the next attempt's number
	run := func(t int) error {
		n := next
		next++
		out.Attempt = n
		if p.HedgeAfter <= 0 || out.Hedged {
			return fn(ctx, t, n)
		}
		return p.hedged(ctx, t, n, &next, &out, fn)
	}
	var last error = ErrShortCircuited
	for t, key := range targets {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		b := p.Breakers.Get(key)
		if !b.Allow() {
			continue
		}
		err := run(t)
		for retry := 0; err != nil && retry < p.Retries && ctx.Err() == nil && retryable(err, p.RetryShed) && p.Budget.TrySpend(); retry++ {
			wait := clock.Or(p.Clock).NewTimer(retryDelay(retry, err))
			select {
			case <-ctx.Done():
				wait.Stop()
				err = ctx.Err()
			case <-wait.C():
				err = run(t)
			}
		}
		b.RecordCall(ctx, err)
		if err == nil {
			if p.Deposit {
				p.Budget.RecordSuccess()
			}
			return out, nil
		}
		if ctx.Err() != nil {
			return out, err // the cancellation, surfacing as the attempt's error
		}
		last = err
	}
	return out, last
}

// hedged runs attempt n on target t and, once it outlives HedgeAfter, one
// duplicate if the budget grants a token (a refused hedge is not asked
// for again). The first success wins and returning cancels the other;
// when both fail the first attempt's error stands: retries are for errors.
func (p *Policy) hedged(ctx context.Context, t, n int, next *int, out *Outcome, fn func(context.Context, int, int) error) error {
	type result struct {
		attempt int
		err     error
	}
	results := make(chan result, 2) // one per attempt: a loser's send never blocks after return
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	go func() { results <- result{n, fn(pctx, t, n)} }()
	timer := clock.Or(p.Clock).NewTimer(p.HedgeAfter)
	defer timer.Stop()
	var first error
	for pending := 1; pending > 0; {
		select {
		case r := <-results:
			pending--
			if r.err == nil {
				out.Attempt = r.attempt
				return nil
			}
			if r.attempt == n {
				first = r.err
			}
		case <-timer.C():
			if p.Budget.TrySpend() {
				h := *next
				*next++
				out.Hedged = true
				pending++
				hctx, hcancel := context.WithCancel(ctx)
				defer hcancel()
				go func() { results <- result{h, fn(hctx, t, h)} }()
			}
		}
	}
	return first
}

// isShed reports whether err is, or wraps, backpressure: the target
// answered, promptly, "not now".
func isShed(err error) bool {
	var shed interface{ Shed() bool }
	return errors.As(err, &shed) && shed.Shed()
}

// retryable reports whether a failure may be retried on its target: a
// shed if the policy retries sheds; an error that says so through
// Transient (a 5xx does, a 4xx does not); a transport failure unless it
// is the caller's own cancellation.
func retryable(err error, retryShed bool) bool {
	var tr interface{ Transient() bool }
	switch {
	case isShed(err):
		return retryShed
	case errors.As(err, &tr):
		return tr.Transient()
	}
	return !errors.Is(err, context.Canceled)
}

// retryDelay is the wait before retry number retry+1: a shed's
// Retry-After when it names one, the jittered backoff otherwise.
func retryDelay(retry int, err error) time.Duration {
	var ra interface{ RetryDelay() time.Duration }
	if isShed(err) && errors.As(err, &ra) && ra.RetryDelay() > 0 {
		return min(ra.RetryDelay(), BackoffMax)
	}
	return backoff(retry)
}

// backoff returns the jittered wait before retry number retry+1.
func backoff(retry int) time.Duration {
	d := backoffBase
	for i := 0; i < retry && d < BackoffMax; i++ {
		d *= 2
	}
	d = min(d, BackoffMax)
	// Jitter into [d/2, d) so a fleet of clients retrying against one
	// recovering node spreads out instead of thundering back in sync.
	return d/2 + time.Duration(rand.Float64()*float64(d/2))
}
