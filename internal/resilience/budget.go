package resilience

import (
	"sync"

	"repro/internal/telemetry"
)

// The budget's shape: each success deposits budgetRatio tokens, so
// retries plus hedges may not exceed 20% of recent successful volume;
// the balance starts at, and is capped by, budgetBurst, so a cold
// process can absorb a small fault burst before any success funds it.
const (
	budgetRatio = 0.2
	budgetBurst = 10
)

// BudgetOptions configures a retry/hedge budget.
type BudgetOptions struct {
	// Metrics receives retry_budget_exhausted_total and the
	// retry_budget_tokens gauge (may be nil).
	Metrics *telemetry.Registry
}

// Budget is a token bucket that bounds retry and hedge amplification
// across a whole process: every successful call deposits budgetRatio
// tokens, every retry or hedge spends one, and when the bucket is empty
// the extra attempt simply does not happen. During a partial outage
// this is what turns "every query retries against the dying node" into
// "a bounded trickle probes it while first attempts keep flowing" — the
// alternative is retry amplification, where the retries themselves
// become the overload.
//
// One Budget is shared by every Do call of a process that launches
// speculative work (the replica sets' retries, the fan-out's hedges, the
// router's shard retry); first attempts and failover are never charged —
// failover is the availability mechanism, not amplification.
//
// All methods are safe for concurrent use and on a nil receiver (a nil
// budget admits everything), so budgeting is opt-in without call-site
// conditionals.
type Budget struct {
	mu     sync.Mutex
	tokens float64

	exhausted *telemetry.Counter
	gauge     *telemetry.Gauge
}

// NewBudget builds a budget starting at its full burst balance.
func NewBudget(opts BudgetOptions) *Budget {
	b := &Budget{
		tokens: budgetBurst,
		exhausted: opts.Metrics.DeclareCounter("retry_budget_exhausted_total",
			"Retries or hedges suppressed because the retry budget was empty."),
		gauge: opts.Metrics.DeclareGauge("retry_budget_tokens",
			"Current retry-budget token balance (successes deposit, retries/hedges spend)."),
	}
	b.gauge.Set(b.tokens)
	return b
}

// TrySpend takes one token if available and reports whether the caller
// may launch its retry or hedge. A refusal is counted in
// retry_budget_exhausted_total.
func (b *Budget) TrySpend() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	ok := b.tokens >= 1
	if ok {
		b.tokens--
	}
	tokens := b.tokens
	b.mu.Unlock()
	if !ok {
		b.exhausted.Inc()
		return false
	}
	b.gauge.Set(tokens)
	return true
}

// RecordSuccess deposits budgetRatio tokens (capped at budgetBurst).
// Call it for every successful call, not just budgeted ones — the
// budget is a fraction of total successful volume.
func (b *Budget) RecordSuccess() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.tokens += budgetRatio
	if b.tokens > budgetBurst {
		b.tokens = budgetBurst
	}
	tokens := b.tokens
	b.mu.Unlock()
	b.gauge.Set(tokens)
}

// Tokens returns the current balance (tests, debug surfaces).
func (b *Budget) Tokens() float64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}
