package resilience

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/telemetry"
)

func TestBudgetSpendAndDeposit(t *testing.T) {
	reg := telemetry.NewRegistry()
	b := NewBudget(BudgetOptions{Metrics: reg})

	// Starts at the burst balance.
	if got := b.Tokens(); got != budgetBurst {
		t.Fatalf("initial tokens = %v, want %v", got, budgetBurst)
	}
	for i := 0; i < budgetBurst; i++ {
		if !b.TrySpend() {
			t.Fatalf("burst token %d refused", i+1)
		}
	}
	if b.TrySpend() {
		t.Fatal("empty budget granted a token")
	}
	if got := reg.Snapshot().Counters["retry_budget_exhausted_total"]; got != 1 {
		t.Fatalf("retry_budget_exhausted_total = %d, want 1", got)
	}

	// Each success deposits budgetRatio (0.2): four are not yet a whole
	// token, the fifth completes one.
	for i := 0; i < 4; i++ {
		b.RecordSuccess()
	}
	if b.TrySpend() {
		t.Fatal("four fifths of a token granted a spend")
	}
	b.RecordSuccess()
	if !b.TrySpend() {
		t.Fatal("five successes at ratio 0.2 should fund one retry")
	}

	// Deposits cap at the burst.
	for i := 0; i < 100; i++ {
		b.RecordSuccess()
	}
	if got := b.Tokens(); got != budgetBurst {
		t.Fatalf("tokens after heavy deposits = %v, want burst cap %v", got, budgetBurst)
	}
	if got := reg.Snapshot().Gauges["retry_budget_tokens"]; got != budgetBurst {
		t.Fatalf("retry_budget_tokens gauge = %v, want %v", got, budgetBurst)
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
	b := NewBudget(BudgetOptions{})
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
	// 4000 spends against the burst plus 4000 deposits of 0.2: the
	// balance must never go negative.
	if got := b.Tokens(); got < 0 {
		t.Fatalf("token balance went negative: %v", got)
	}
	if granted.Load() == 0 {
		t.Fatal("no spends granted under concurrency")
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

// TestProbeSwapHalfOpenRace drives the swap scenario at the resilience
// layer: a probe schedule and live "traffic" race over a breaker that
// is seeded half-open by a topology swap, while the swapper replaces
// the target list each sweep reads and the clock moves on by a cooldown
// per round, so probes and trials keep coming. The half-open contract —
// at most one trial in flight, every admitted call Recorded — must hold
// under -race, and no probe may be sent to a target twice concurrently.
func TestProbeSwapHalfOpenRace(t *testing.T) {
	clk := clock.NewFake()
	s := NewSet(BreakerOptions{Clock: clk}, telemetry.NewRegistry())

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
		time.Sleep(100 * time.Microsecond) // a probe takes a while: overlapping ones would show
		inflight.Add(-1)
		return nil
	}

	// Each sweep reads the targets the swapper last published, as the
	// metasearcher and the router read their live topology.
	var targets atomic.Pointer[[]ProbeTarget]
	targets.Store(&[]ProbeTarget{})
	stopProbes := clock.Every(clk, time.Second, func(ctx context.Context) { s.Probe(ctx, *targets.Load()) })
	defer stopProbes()

	var wg sync.WaitGroup
	stop := make(chan struct{})
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
				runtime.Gosched() // let the swapper through on one CPU too
			}
		}(g)
	}
	// Swapper: re-seed, publish a fresh target list and move the clock
	// on, round after round.
	for i := 0; i < 2000; i++ {
		s.Seed("replica-new", HalfOpen)
		targets.Store(&[]ProbeTarget{{Name: "replica-new", Ping: ping}})
		if i%3 == 0 {
			s.Remove("replica-old")
		}
		clk.Advance(BreakerCooldown)
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	stopProbes()

	// The breaker Allow gate must have serialized probe trials whenever
	// the breaker was non-closed; concurrent probes can only overlap via
	// distinct sweeps racing traffic-closed windows, which the gate also
	// forbids for the probe path itself.
	if got := maxInflight.Load(); got > 1 {
		t.Fatalf("max concurrent probes to one target = %d, want ≤ 1", got)
	}
}
