package resilience

import (
	"context"
	"time"

	"repro/internal/clock"
)

// Hedged runs fn as the primary attempt (attempt 0) and, if it has not
// returned within after on clk (nil: real time), launches exactly one
// hedge (attempt 1) of the same work. The first attempt to *succeed*
// wins and the loser's context is cancelled; a failed attempt does not
// win while the other is still running (errors are what the wire
// client's retries are for — the hedge exists to cut tail latency, so
// it only pays off against slowness).
//
// after <= 0 disables hedging: fn runs once, inline.
//
// fn observes which attempt it is via the attempt argument and must
// write its results into per-attempt slots: the losing attempt may
// still be running when Hedged returns, so the caller must only read
// the winner's slot (or no slot at all when err != nil).
//
// When the hedge timer fires, the hedge launches only if
// budget.TrySpend() grants a token. A refused hedge is not retried —
// the primary simply runs to completion, which is exactly the desired
// degradation under partial outage (hedges are a tail-latency
// optimization, not a correctness mechanism, so they are the first
// thing the budget sheds). A nil budget admits every hedge.
//
// Returns the winning attempt index, whether a hedge was launched, and
// the winner's error (when both attempts fail, the primary's error —
// the representative one; the hedge saw the same node).
func Hedged(ctx context.Context, clk clock.Clock, after time.Duration, budget *Budget, fn func(ctx context.Context, attempt int) error) (winner int, hedged bool, err error) {
	if after <= 0 {
		return 0, false, fn(ctx, 0)
	}
	type outcome struct {
		attempt int
		err     error
	}
	results := make(chan outcome, 2)
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	hctx, hcancel := context.WithCancel(ctx)
	defer hcancel()

	go func() { results <- outcome{0, fn(pctx, 0)} }()
	timer := clock.Or(clk).NewTimer(after)
	defer timer.Stop()

	pending := 1
	var primaryErr, hedgeErr error
	for {
		select {
		case r := <-results:
			pending--
			if r.err == nil {
				// Cancel the slower attempt; its late result is ignored.
				if r.attempt == 0 {
					hcancel()
				} else {
					pcancel()
				}
				return r.attempt, hedged, nil
			}
			if r.attempt == 0 {
				primaryErr = r.err
			} else {
				hedgeErr = r.err
			}
			if pending == 0 {
				if primaryErr != nil {
					return 0, hedged, primaryErr
				}
				return 1, hedged, hedgeErr
			}
			// One attempt failed; keep waiting for the other.
		case <-timer.C():
			if !hedged && budget.TrySpend() {
				hedged = true
				pending++
				go func() { results <- outcome{1, fn(hctx, 1)} }()
			}
		}
	}
}
