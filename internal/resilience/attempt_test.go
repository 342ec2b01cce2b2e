package resilience

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/telemetry"
)

// failure is a test error that classifies itself the way
// wire.ProtocolError does.
type failure struct {
	transient, shed bool
	retryAfter      time.Duration
}

func (f failure) Error() string             { return "failure" }
func (f failure) Transient() bool           { return f.transient }
func (f failure) Shed() bool                { return f.shed }
func (f failure) RetryDelay() time.Duration { return f.retryAfter }

var (
	down = failure{transient: true}                                          // a 5xx
	bad  = failure{}                                                         // a 4xx
	shed = failure{transient: true, shed: true, retryAfter: 7 * time.Second} // a 429 asking for more than the cap
)

// fireHedgeTimer lets Do reach its hedge timer on clk, then fires it.
func fireHedgeTimer(clk *clock.Fake, after time.Duration) {
	go func() {
		clk.BlockUntil(1)
		clk.Advance(after)
	}()
}

// TestDoHedge pins the hedge: a first attempt that outlives HedgeAfter
// is raced by one duplicate the budget pays for; the first success wins
// and cancels the other, a failure waits for the other attempt, and the
// first attempt's error stands when both fail.
func TestDoHedge(t *testing.T) {
	errPrimary, errHedge, boom := errors.New("primary down"), errors.New("hedge down"), errors.New("boom")
	type call = func(ctx context.Context, target, attempt int) error
	for _, tc := range []struct {
		name  string
		after time.Duration
		// arrange drains or funds the budget (nil: no budget), starts
		// whatever moves clk, and returns the attempts to run and a check
		// for after Do has returned.
		arrange func(clk *clock.Fake, b **Budget) (fn call, after func(t *testing.T))
		attempt int
		hedged  bool
		err     error
		calls   int64
	}{
		{name: "primary wins", after: time.Second,
			arrange: func(*clock.Fake, **Budget) (call, func(*testing.T)) {
				return func(context.Context, int, int) error { return nil }, nil
			},
			attempt: 0, hedged: false, calls: 1},
		{name: "hedge wins", after: time.Second,
			arrange: func(clk *clock.Fake, _ **Budget) (call, func(*testing.T)) {
				fireHedgeTimer(clk, time.Second)
				primaryCancelled := make(chan struct{})
				return func(ctx context.Context, _, attempt int) error {
						if attempt == 0 {
							<-ctx.Done() // the primary hangs until the winning hedge cancels it
							close(primaryCancelled)
							return ctx.Err()
						}
						return nil
					}, func(*testing.T) {
						<-primaryCancelled // the losing primary is cancelled, or the test times out
					}
			},
			attempt: 1, hedged: true, calls: 2},
		{name: "both fail", after: time.Second,
			arrange: func(clk *clock.Fake, _ **Budget) (call, func(*testing.T)) {
				fireHedgeTimer(clk, time.Second)
				hedgeFailed := make(chan struct{})
				return func(ctx context.Context, _, attempt int) error {
					if attempt == 0 {
						<-hedgeFailed // outlive the hedge
						return errPrimary
					}
					defer close(hedgeFailed)
					return errHedge
				}, nil
			},
			attempt: 0, hedged: true, err: errPrimary, calls: 2},
		{name: "primary fails fast, no hedge", after: time.Second,
			arrange: func(*clock.Fake, **Budget) (call, func(*testing.T)) {
				// Errors are the retries' job, not the hedge's.
				return func(context.Context, int, int) error { return boom }, nil
			},
			attempt: 0, hedged: false, err: boom, calls: 1},
		{name: "disabled", after: 0,
			arrange: func(*clock.Fake, **Budget) (call, func(*testing.T)) {
				return func(context.Context, int, int) error { return nil }, nil
			},
			attempt: 0, hedged: false, calls: 1},
		{name: "empty budget suppresses the hedge", after: time.Second,
			arrange: func(clk *clock.Fake, b **Budget) (call, func(*testing.T)) {
				reg := telemetry.NewRegistry()
				*b = NewBudget(BudgetOptions{Metrics: reg})
				for (*b).TrySpend() {
				}
				refused := reg.Counter("retry_budget_exhausted_total")
				// The hedge timer fires on the empty budget: the refusal is
				// counted, and only then does the primary answer.
				release := make(chan struct{})
				var attempts atomic.Int64
				go func() {
					clk.BlockUntil(1)
					clk.Advance(time.Second)
					for refused.Value() < 2 && attempts.Load() < 2 {
						runtime.Gosched()
					}
					close(release)
				}()
				return func(context.Context, int, int) error {
					attempts.Add(1)
					<-release
					return nil
				}, nil
			},
			attempt: 0, hedged: false, calls: 1},
		{name: "funded budget hedges", after: time.Second,
			arrange: func(clk *clock.Fake, b **Budget) (call, func(*testing.T)) {
				*b = NewBudget(BudgetOptions{})
				for (*b).TrySpend() {
				}
				for i := 0; i < 5; i++ {
					(*b).RecordSuccess()
				}
				fireHedgeTimer(clk, time.Second)
				return func(ctx context.Context, _, attempt int) error {
					if attempt == 0 {
						<-ctx.Done() // the winning hedge cancels the primary
						return errors.New("primary lost")
					}
					return nil
				}, nil
			},
			attempt: 1, hedged: true, calls: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := clock.NewFake()
			var budget *Budget
			fn, after := tc.arrange(clk, &budget)
			var calls atomic.Int64
			out, err := Do(context.Background(), Policy{HedgeAfter: tc.after, Clock: clk, Budget: budget}, []string{"db"},
				func(ctx context.Context, target, attempt int) error {
					calls.Add(1)
					return fn(ctx, target, attempt)
				})
			if out.Attempt != tc.attempt || out.Hedged != tc.hedged || !errors.Is(err, tc.err) {
				t.Fatalf("attempt=%d hedged=%v err=%v, want %d/%v/%v", out.Attempt, out.Hedged, err, tc.attempt, tc.hedged, tc.err)
			}
			if after != nil {
				after(t)
			}
			if got := calls.Load(); got != tc.calls {
				t.Fatalf("%d attempts ran, want %d", got, tc.calls)
			}
		})
	}
}

// TestDo pins the rest of the loop over a call's targets: retries of a
// transient failure after the backoff or a shed's (capped) Retry-After,
// each paid for by the budget; no retry of a permanent failure or, unless
// the policy says so, of a shed; failover at no budget cost; breakers
// that skip a target untouched and take one verdict per target tried;
// and one deposit per success when the policy deposits.
func TestDo(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy Policy
		// scripts[i] is what target i answers attempt by attempt, its last
		// answer repeated; nil is a success.
		scripts [][]error
		open    []int // targets whose breakers are tripped first
		tokens  float64
		// want
		calls     []int
		err       error
		attempt   int
		spent     float64 // tokens taken, net of deposits
		waitedMin time.Duration
		waitedMax time.Duration // exclusive; 0: exactly waitedMin
		samples   []int         // per-target breaker window: samples
		failures  []int         // and failures
	}{
		{name: "transient failure retried until it succeeds",
			policy:  Policy{Retries: 3},
			scripts: [][]error{{down, down, nil}},
			calls:   []int{3}, attempt: 2, spent: 2,
			waitedMin: backoffBase/2 + backoffBase, waitedMax: backoffBase + 2*backoffBase,
			samples: []int{1}, failures: []int{0}},
		{name: "retries run out",
			policy:  Policy{Retries: 3},
			scripts: [][]error{{down}},
			calls:   []int{4}, err: down, attempt: 3, spent: 3,
			waitedMin: (backoffBase + 2*backoffBase + 4*backoffBase) / 2, waitedMax: backoffBase + 2*backoffBase + 4*backoffBase,
			samples: []int{1}, failures: []int{1}},
		{name: "permanent failure not retried",
			policy:  Policy{Retries: 3},
			scripts: [][]error{{bad}},
			calls:   []int{1}, err: bad,
			samples: []int{1}, failures: []int{1}},
		{name: "shed retried after its Retry-After, capped",
			policy:  Policy{Retries: 3, RetryShed: true},
			scripts: [][]error{{shed}},
			calls:   []int{4}, err: shed, attempt: 3, spent: 3,
			waitedMin: 3 * BackoffMax,
			samples:   []int{0}, failures: []int{0}},
		{name: "shed moves on when the policy does not retry it",
			policy:  Policy{Retries: 1},
			scripts: [][]error{{shed}, {nil}},
			calls:   []int{1, 1}, attempt: 1,
			samples: []int{0, 1}, failures: []int{0, 0}},
		{name: "an empty budget ends the retries",
			policy:  Policy{Retries: 3},
			scripts: [][]error{{down}},
			tokens:  0.5,
			calls:   []int{1}, err: down,
			samples: []int{1}, failures: []int{1}},
		{name: "failover costs no budget",
			policy:  Policy{},
			scripts: [][]error{{down}, {bad}, {nil}},
			calls:   []int{1, 1, 1}, attempt: 2,
			samples: []int{1, 1, 1}, failures: []int{1, 1, 0}},
		{name: "a short-circuited target is skipped untouched",
			policy:  Policy{},
			scripts: [][]error{{nil}, {nil}},
			open:    []int{0},
			calls:   []int{0, 1}, attempt: 0,
			samples: []int{0, 1}, failures: []int{0, 0}},
		{name: "every target short-circuited",
			policy:  Policy{},
			scripts: [][]error{{nil}, {nil}},
			open:    []int{0, 1},
			calls:   []int{0, 0}, err: ErrShortCircuited,
			samples: []int{0, 0}, failures: []int{0, 0}},
		{name: "the last target's error stands",
			policy:  Policy{},
			scripts: [][]error{{down}, {bad}},
			calls:   []int{1, 1}, err: bad, attempt: 1,
			samples: []int{1, 1}, failures: []int{1, 1}},
		{name: "a deposit per success",
			policy:  Policy{Retries: 1, Deposit: true},
			scripts: [][]error{{down, nil}},
			calls:   []int{2}, attempt: 1, spent: 1 - budgetRatio,
			waitedMin: backoffBase / 2, waitedMax: backoffBase,
			samples: []int{1}, failures: []int{0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := clock.NewInstant() // the whole backoff schedule, without waiting
			breakers := NewSet(BreakerOptions{Clock: clock.NewFake()}, nil)
			keys := make([]string, len(tc.scripts))
			for i := range keys {
				keys[i] = string(rune('a' + i))
			}
			for _, i := range tc.open {
				trip(breakers.Get(keys[i]))
			}
			budget := NewBudget(BudgetOptions{})
			if tc.tokens != 0 {
				for budget.Tokens() > tc.tokens {
					budget.TrySpend()
				}
			}
			for budget.Tokens() > budgetBurst-1 { // leave room for a deposit to show
				budget.TrySpend()
			}
			before := budget.Tokens()
			p := tc.policy
			p.Clock, p.Breakers, p.Budget = clk, breakers, budget
			start := clk.Now()
			calls := make([]int, len(tc.scripts))
			out, err := Do(context.Background(), p, keys, func(_ context.Context, target, attempt int) error {
				script := tc.scripts[target]
				calls[target]++
				return script[min(calls[target], len(script))-1]
			})
			if err != tc.err {
				t.Fatalf("err = %v, want %v", err, tc.err)
			}
			if out.Attempt != tc.attempt || out.Hedged {
				t.Errorf("outcome = %+v, want attempt %d, no hedge", out, tc.attempt)
			}
			for i := range calls {
				if calls[i] != tc.calls[i] {
					t.Errorf("target %s ran %d attempts, want %d", keys[i], calls[i], tc.calls[i])
				}
				snap := breakers.Get(keys[i]).Snapshot()
				if snap.Samples != tc.samples[i] || snap.Failures != tc.failures[i] {
					t.Errorf("target %s window = %d samples / %d failures, want %d / %d",
						keys[i], snap.Samples, snap.Failures, tc.samples[i], tc.failures[i])
				}
			}
			if spent := before - budget.Tokens(); spent < tc.spent-1e-9 || spent > tc.spent+1e-9 {
				t.Errorf("budget spent %v tokens, want %v", spent, tc.spent)
			}
			waited := clk.Now().Sub(start)
			if tc.waitedMax == 0 && waited != tc.waitedMin || tc.waitedMax != 0 && (waited < tc.waitedMin || waited >= tc.waitedMax) {
				t.Errorf("waited %v on the clock, want [%v, %v)", waited, tc.waitedMin, tc.waitedMax)
			}
		})
	}
}

// TestDoStopsWhenTheCallEnds: a call cancelled while it waits out a
// backoff makes no further attempt and reports the cancellation, with a
// neutral verdict; a call whose context ended before it began touches no
// target.
func TestDoStopsWhenTheCallEnds(t *testing.T) {
	clk := clock.NewFake()
	breakers := NewSet(BreakerOptions{}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		clk.BlockUntil(1) // the first attempt failed; Do waits before its retry
		cancel()
	}()
	calls := 0
	_, err := Do(ctx, Policy{Retries: 3, Clock: clk, Breakers: breakers}, []string{"a", "b"},
		func(context.Context, int, int) error {
			calls++
			return down
		})
	if !errors.Is(err, context.Canceled) || calls != 1 {
		t.Fatalf("cancelled mid-backoff: err = %v after %d attempts, want context.Canceled after 1", err, calls)
	}
	if snap := breakers.Get("a").Snapshot(); snap.Samples != 0 {
		t.Errorf("a hang-up left %d samples on the target's breaker, want none", snap.Samples)
	}

	calls = 0
	if _, err := Do(ctx, Policy{}, []string{"a"}, func(context.Context, int, int) error {
		calls++
		return nil
	}); err != context.Canceled || calls != 0 {
		t.Fatalf("call over before it began: err = %v after %d attempts, want context.Canceled after none", err, calls)
	}
}

// TestDoAllocs: a first-attempt success with a hedge armed costs no more
// allocations than resilience.Hedged's 10, the loop Do replaced.
func TestDoAllocs(t *testing.T) {
	ctx := context.Background()
	targets := []string{"db"}
	fn := func(context.Context, int, int) error { return nil }
	for _, clk := range []clock.Clock{clock.Real, clock.NewFake()} {
		if n := testing.AllocsPerRun(1000, func() {
			Do(ctx, Policy{HedgeAfter: time.Hour, Clock: clk}, targets, fn)
		}); n > 10 {
			t.Errorf("%T: a first-attempt success with a hedge armed allocates %v times, want at most 10", clk, n)
		}
	}
}

// TestBackoffBoundsAndGrowth: the k-th retry waits in [d/2, d) for
// d = backoffBase·2^k capped at BackoffMax, so the schedule doubles
// until the cap and never reaches it.
func TestBackoffBoundsAndGrowth(t *testing.T) {
	nominal := backoffBase
	for attempt := 0; attempt < 8; attempt++ {
		for draw := 0; draw < 100; draw++ {
			if d := backoff(attempt); d < nominal/2 || d >= nominal {
				t.Fatalf("backoff(%d) = %v, want in [%v, %v)", attempt, d, nominal/2, nominal)
			}
		}
		if nominal *= 2; nominal > BackoffMax {
			nominal = BackoffMax
		}
	}
}
