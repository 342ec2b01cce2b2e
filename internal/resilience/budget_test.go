package resilience

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func TestBudgetSpendAndDeposit(t *testing.T) {
	reg := telemetry.NewRegistry()
	b := NewBudget(BudgetOptions{Ratio: 0.5, Burst: 2, Metrics: reg})

	// Starts at the burst balance.
	if got := b.Tokens(); got != 2 {
		t.Fatalf("initial tokens = %v, want 2", got)
	}
	if !b.TrySpend() || !b.TrySpend() {
		t.Fatal("burst tokens refused")
	}
	if b.TrySpend() {
		t.Fatal("empty budget granted a token")
	}
	if got := reg.Snapshot().Counters["retry_budget_exhausted_total"]; got != 1 {
		t.Fatalf("retry_budget_exhausted_total = %d, want 1", got)
	}

	// One success deposits Ratio — not yet a whole token.
	b.RecordSuccess()
	if b.TrySpend() {
		t.Fatal("half a token granted a spend")
	}
	b.RecordSuccess()
	if !b.TrySpend() {
		t.Fatal("two successes at ratio 0.5 should fund one retry")
	}

	// Deposits cap at Burst.
	for i := 0; i < 100; i++ {
		b.RecordSuccess()
	}
	if got := b.Tokens(); got != 2 {
		t.Fatalf("tokens after heavy deposits = %v, want burst cap 2", got)
	}
	if got := reg.Snapshot().Gauges["retry_budget_tokens"]; got != 2 {
		t.Fatalf("retry_budget_tokens gauge = %v, want 2", got)
	}
}

func TestBudgetNilAdmitsEverything(t *testing.T) {
	var b *Budget
	if !b.TrySpend() {
		t.Fatal("nil budget refused a spend")
	}
	b.RecordSuccess() // must not panic
}

func TestBudgetConcurrentAccounting(t *testing.T) {
	b := NewBudget(BudgetOptions{Ratio: 1, Burst: 1000})
	var granted atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				if b.TrySpend() {
					granted.Add(1)
				}
				b.RecordSuccess()
			}
		}()
	}
	wg.Wait()
	// 4000 spends against 1000 burst + 4000 deposits (ratio 1, capped):
	// every spend after the first should be funded, so grants are within
	// [spends - slack, spends]. The precise bound: grants ≤ burst +
	// deposits = 5000 (trivially true) and tokens never negative.
	if got := b.Tokens(); got < 0 {
		t.Fatalf("token balance went negative: %v", got)
	}
	if granted.Load() == 0 {
		t.Fatal("no spends granted under concurrency")
	}
}

func TestHedgedWithBudgetSuppressesHedge(t *testing.T) {
	b := NewBudget(BudgetOptions{Ratio: 0.2, Burst: 1})
	if !b.TrySpend() {
		t.Fatal("draining spend refused")
	}

	var attempts atomic.Int64
	winner, hedged, err := Hedged(context.Background(), time.Millisecond, b,
		func(ctx context.Context, attempt int) error {
			attempts.Add(1)
			time.Sleep(20 * time.Millisecond) // slow enough for the timer to fire
			return nil
		})
	if err != nil || winner != 0 || hedged {
		t.Fatalf("winner=%d hedged=%v err=%v; want primary, no hedge", winner, hedged, err)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("attempts = %d, want 1 (hedge suppressed)", got)
	}

	// With a funded budget the same call hedges.
	for i := 0; i < 5; i++ {
		b.RecordSuccess()
	}
	attempts.Store(0)
	release := make(chan struct{})
	_, hedged, err = Hedged(context.Background(), time.Millisecond, b,
		func(ctx context.Context, attempt int) error {
			attempts.Add(1)
			if attempt == 0 {
				select {
				case <-release:
				case <-ctx.Done():
				}
				return errors.New("primary lost")
			}
			return nil
		})
	close(release)
	if err != nil || !hedged {
		t.Fatalf("hedged=%v err=%v; want funded hedge to run and win", hedged, err)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("attempts = %d, want 2", got)
	}
}

func TestSetSeedAndRemoveGaugeAccounting(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewSet(BreakerOptions{}, reg)

	gauges := func() (closed, half, open float64) {
		snap := reg.Snapshot()
		return snap.Gauges["breakers_closed"], snap.Gauges["breakers_half_open"], snap.Gauges["breakers_open"]
	}

	// Seed a new name half-open; seed an existing name must not clobber.
	hb := s.Seed("new-replica", HalfOpen)
	if hb.State() != HalfOpen {
		t.Fatalf("seeded state = %v, want half-open", hb.State())
	}
	if c, h, o := gauges(); c != 0 || h != 1 || o != 0 {
		t.Fatalf("gauges after seed = %v/%v/%v, want 0/1/0", c, h, o)
	}
	cb := s.Get("survivor")
	s.Seed("survivor", Open)
	if cb.State() != Closed {
		t.Fatal("Seed clobbered an existing breaker's state")
	}
	if c, h, o := gauges(); c != 1 || h != 1 || o != 0 {
		t.Fatalf("gauges after survivor seed = %v/%v/%v, want 1/1/0", c, h, o)
	}

	// The half-open seed's first admitted call is its trial.
	if !hb.Allow() {
		t.Fatal("seeded half-open breaker refused its trial")
	}
	if hb.Allow() {
		t.Fatal("second concurrent call admitted during the trial")
	}
	hb.Record(true)
	if hb.State() != Closed {
		t.Fatalf("state after successful trial = %v, want closed", hb.State())
	}

	// Remove subtracts the breaker's state exactly once, and a straggler
	// Record afterwards cannot move the gauges.
	removed := s.Get("doomed")
	s.Remove("doomed")
	if c, h, o := gauges(); c != 2 || h != 0 || o != 0 {
		t.Fatalf("gauges after remove = %v/%v/%v, want 2/0/0", c, h, o)
	}
	for i := 0; i < 10; i++ {
		removed.Record(false) // would trip a live breaker
	}
	if c, h, o := gauges(); c != 2 || h != 0 || o != 0 {
		t.Fatalf("straggler records moved gauges: %v/%v/%v", c, h, o)
	}
	s.Remove("doomed") // idempotent
	s.Remove("never-existed")
	if c, h, o := gauges(); c != 2 || h != 0 || o != 0 {
		t.Fatalf("no-op removes moved gauges: %v/%v/%v", c, h, o)
	}
}

// TestProberRetargetHalfOpenRace drives the swap scenario at the
// resilience layer: a prober and live "traffic" race over a breaker
// that is seeded half-open by a topology swap, while SetTargets
// replaces the probe list concurrently. The half-open contract — at
// most one trial in flight, every admitted call Recorded — must hold
// under -race, and no probe may be sent to a target twice concurrently.
func TestProberRetargetHalfOpenRace(t *testing.T) {
	s := NewSet(BreakerOptions{Cooldown: time.Millisecond}, telemetry.NewRegistry())

	var inflight atomic.Int64 // concurrent pings to the half-open target
	var maxInflight atomic.Int64
	ping := func(ctx context.Context) error {
		cur := inflight.Add(1)
		for {
			prev := maxInflight.Load()
			if cur <= prev || maxInflight.CompareAndSwap(prev, cur) {
				break
			}
		}
		time.Sleep(100 * time.Microsecond)
		inflight.Add(-1)
		return nil
	}

	p := NewProber(s, nil, ProberOptions{Interval: time.Millisecond, Timeout: time.Second})
	p.Start()
	defer p.Stop()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Swapper: re-seed and retarget continuously.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.Seed("replica-new", HalfOpen)
			p.SetTargets([]ProbeTarget{{Name: "replica-new", Ping: ping}})
			if i%3 == 0 {
				s.Remove("replica-old")
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	// Traffic: Allow/Record against the same breaker names.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				b := s.Get("replica-new")
				if b.Allow() {
					b.Record(i%4 != 0)
				}
				s.Get("replica-old").Allow()
			}
		}(g)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	p.Stop()

	// The breaker Allow gate must have serialized probe trials whenever
	// the breaker was non-closed; concurrent probes can only overlap via
	// distinct sweeps racing traffic-closed windows, which the gate also
	// forbids for the probe path itself.
	if got := maxInflight.Load(); got > 1 {
		t.Fatalf("max concurrent probes to one target = %d, want ≤ 1", got)
	}
}
