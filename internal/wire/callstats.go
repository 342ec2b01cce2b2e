package wire

import (
	"context"
	"sync/atomic"
)

// CallStats accumulates per-call transport statistics. The registry's
// wire counters are process-global; a caller that needs to know what
// one specific logical call cost (the search fan-out records per-node
// latency and retries in its query audit) attaches a CallStats to the
// context and reads it after the call returns. Safe for concurrent use.
type CallStats struct {
	attempts atomic.Int64
	retries  atomic.Int64
	sheds    atomic.Int64
}

// Attempts returns how many HTTP attempts were made under this context
// (at least one per logical request).
func (s *CallStats) Attempts() int64 {
	if s == nil {
		return 0
	}
	return s.attempts.Load()
}

// Retries returns how many of those attempts were retries.
func (s *CallStats) Retries() int64 {
	if s == nil {
		return 0
	}
	return s.retries.Load()
}

// Sheds returns how many attempts the node's admission gate rejected
// with 429 (each also counts as an attempt, and as a retry if the call
// tried again).
func (s *CallStats) Sheds() int64 {
	if s == nil {
		return 0
	}
	return s.sheds.Load()
}

// count records attempt number attempt of a call; nil-safe.
func (s *CallStats) count(attempt int, shed bool) {
	if s == nil {
		return
	}
	s.attempts.Add(1)
	if attempt > 0 {
		s.retries.Add(1)
	}
	if shed {
		s.sheds.Add(1)
	}
}

type callStatsKey struct{}

// WithCallStats returns a context whose wire-client calls accumulate
// into the returned CallStats.
func WithCallStats(ctx context.Context) (context.Context, *CallStats) {
	s := &CallStats{}
	return ContextWithCallStats(ctx, s), s
}

// ContextWithCallStats attaches a caller-allocated CallStats to ctx.
// The hedged fan-out shares one between its two attempts, so the record
// sums both even while the losing attempt is still in flight.
func ContextWithCallStats(ctx context.Context, s *CallStats) context.Context {
	return context.WithValue(ctx, callStatsKey{}, s)
}

// statsFromContext returns the attached CallStats, or nil.
func statsFromContext(ctx context.Context) *CallStats {
	s, _ := ctx.Value(callStatsKey{}).(*CallStats)
	return s
}
