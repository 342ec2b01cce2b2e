package resilience

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// fakeClock is a settable clock for breaker cooldown tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestBreakerStateMachine(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := NewBreaker(BreakerOptions{
		Window:           4,
		FailureThreshold: 0.5,
		MinSamples:       2,
		Cooldown:         time.Second,
		Clock:            clk.now,
	})

	if b.State() != Closed {
		t.Fatalf("new breaker state = %v, want closed", b.State())
	}
	// One failure alone must not trip (MinSamples = 2).
	if !b.Allow() {
		t.Fatal("closed breaker denied a call")
	}
	b.Record(false)
	if b.State() != Closed {
		t.Fatalf("state after 1 failure = %v, want closed (below MinSamples)", b.State())
	}
	// Second failure: rate 2/2 >= 0.5 → open.
	b.Allow()
	b.Record(false)
	if b.State() != Open {
		t.Fatalf("state after 2/2 failures = %v, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a call before cooldown")
	}
	// Cooldown elapses: exactly one half-open trial is admitted.
	clk.advance(2 * time.Second)
	if !b.Allow() {
		t.Fatal("cooled-down breaker denied the half-open trial")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state during trial = %v, want half_open", b.State())
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second call while the trial is in flight")
	}
	// Failed trial → open again, fresh cooldown.
	b.Record(false)
	if b.State() != Open {
		t.Fatalf("state after failed trial = %v, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("re-opened breaker admitted a call before the new cooldown")
	}
	// Successful trial closes the breaker and resets the window.
	clk.advance(2 * time.Second)
	if !b.Allow() {
		t.Fatal("second trial denied")
	}
	b.Record(true)
	if b.State() != Closed {
		t.Fatalf("state after successful trial = %v, want closed", b.State())
	}
	// The reset window means one failure does not re-trip immediately.
	b.Allow()
	b.Record(false)
	if b.State() != Closed {
		t.Fatalf("state after 1 failure post-reset = %v, want closed", b.State())
	}
	snap := b.Snapshot()
	if snap.Trips != 1 {
		t.Errorf("snapshot trips = %d, want 1 (half-open re-trips do not count as window trips)", snap.Trips)
	}
	if snap.ShortCircuits == 0 {
		t.Error("snapshot short_circuits = 0, want > 0")
	}
}

func TestBreakerNeutralReleasesTrial(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := NewBreaker(BreakerOptions{MinSamples: 1, Cooldown: time.Second, Clock: clk.now})
	b.Allow()
	b.Record(false) // trips (1/1 failure)
	clk.advance(2 * time.Second)
	if !b.Allow() {
		t.Fatal("trial denied after cooldown")
	}
	b.RecordNeutral() // shed: no verdict
	if b.State() != HalfOpen {
		t.Fatalf("state after neutral trial = %v, want half_open", b.State())
	}
	if !b.Allow() {
		t.Fatal("trial slot not released by RecordNeutral")
	}
	b.Record(true)
	if b.State() != Closed {
		t.Fatalf("state = %v, want closed", b.State())
	}
}

// shedErr is an error that reports itself as a shed, the way
// wire.ProtocolError does for a 429.
type shedErr struct{}

func (shedErr) Error() string { return "overloaded" }
func (shedErr) Shed() bool    { return true }

// TestRecordCallVerdicts pins the one outcome → health-verdict rule:
// success on nil; neutral on a shed (however wrapped) or when the call's
// context was cancelled; failure otherwise — including a deadline
// running out, whether the call's own context carried it or not.
func TestRecordCallVerdicts(t *testing.T) {
	live := context.Background()
	gone, cancel := context.WithCancel(live)
	cancel()
	late, cancelLate := context.WithDeadline(live, time.Now().Add(-time.Second))
	defer cancelLate()
	// A deadline set below a cancelled context reports the cancellation.
	goneFirst, cancelGoneFirst := context.WithTimeout(gone, time.Hour)
	defer cancelGoneFirst()
	boom := errors.New("connection refused")
	for _, tc := range []struct {
		name              string
		ctx               context.Context
		err               error
		samples, failures int
	}{
		{"success", live, nil, 1, 0},
		{"failure", live, boom, 1, 1},
		{"deadline below the call", live, context.DeadlineExceeded, 1, 1},
		{"deadline on the call's context", late, context.DeadlineExceeded, 1, 1},
		{"deadline surfacing as a transport error", late, boom, 1, 1},
		{"shed", live, shedErr{}, 0, 0},
		{"wrapped shed", live, errors.Join(errors.New("replica a"), shedErr{}), 0, 0},
		{"cancelled", gone, boom, 0, 0},
		{"cancelled, cancellation surfacing", gone, context.Canceled, 0, 0},
		{"cancelled above a derived deadline", goneFirst, context.Canceled, 0, 0},
	} {
		b := NewBreaker(BreakerOptions{MinSamples: 10})
		b.Allow()
		b.RecordCall(tc.ctx, tc.err)
		if snap := b.Snapshot(); snap.Samples != tc.samples || snap.Failures != tc.failures {
			t.Errorf("%s: window holds %d samples / %d failures, want %d / %d",
				tc.name, snap.Samples, snap.Failures, tc.samples, tc.failures)
		}
	}
	var none *Breaker
	none.RecordCall(live, boom) // nil-safe, like every Breaker method
}

func TestNilBreakerAndSet(t *testing.T) {
	var b *Breaker
	if !b.Allow() {
		t.Error("nil breaker denied a call")
	}
	b.Record(false)
	b.RecordNeutral()
	if b.State() != Closed {
		t.Errorf("nil breaker state = %v, want closed", b.State())
	}
	var s *Set
	if s.Get("x") != nil {
		t.Error("nil set returned a non-nil breaker")
	}
	if s.Snapshot() != nil {
		t.Error("nil set returned a non-nil snapshot")
	}
}

func TestSetGaugesAndHandler(t *testing.T) {
	reg := telemetry.NewRegistry()
	clk := &fakeClock{t: time.Unix(1000, 0)}
	s := NewSet(BreakerOptions{MinSamples: 1, Cooldown: time.Second, Clock: clk.now}, reg)

	a, b := s.Get("alpha"), s.Get("beta")
	if s.Get("alpha") != a {
		t.Fatal("Get is not idempotent")
	}
	if got := reg.Gauge("breakers_closed").Value(); got != 2 {
		t.Fatalf("breakers_closed = %v, want 2", got)
	}
	a.Allow()
	a.Record(false) // trip alpha
	if got := reg.Gauge("breakers_open").Value(); got != 1 {
		t.Fatalf("breakers_open = %v, want 1", got)
	}
	if got := reg.Counter("breaker_trips_total").Value(); got != 1 {
		t.Fatalf("breaker_trips_total = %v, want 1", got)
	}
	b.Allow()
	b.Record(true)

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/breakers", nil))
	var body struct {
		Breakers []BreakerSnapshot `json:"breakers"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Breakers) != 2 {
		t.Fatalf("handler returned %d breakers, want 2", len(body.Breakers))
	}
	if body.Breakers[0].Database != "alpha" || body.Breakers[0].State != "open" {
		t.Errorf("breakers[0] = %+v, want alpha open", body.Breakers[0])
	}
	if body.Breakers[1].Database != "beta" || body.Breakers[1].State != "closed" {
		t.Errorf("breakers[1] = %+v, want beta closed", body.Breakers[1])
	}
}

func TestHedgedPrimaryWins(t *testing.T) {
	winner, hedged, err := Hedged(context.Background(), time.Hour, nil, func(ctx context.Context, attempt int) error {
		return nil
	})
	if err != nil || winner != 0 || hedged {
		t.Fatalf("fast primary: winner=%d hedged=%v err=%v, want 0/false/nil", winner, hedged, err)
	}
}

func TestHedgedHedgeWins(t *testing.T) {
	primaryCancelled := make(chan struct{})
	winner, hedged, err := Hedged(context.Background(), 5*time.Millisecond, nil, func(ctx context.Context, attempt int) error {
		if attempt == 0 {
			<-ctx.Done() // primary hangs until cancelled by the winning hedge
			close(primaryCancelled)
			return ctx.Err()
		}
		return nil
	})
	if err != nil || winner != 1 || !hedged {
		t.Fatalf("hung primary: winner=%d hedged=%v err=%v, want 1/true/nil", winner, hedged, err)
	}
	select {
	case <-primaryCancelled:
	case <-time.After(time.Second):
		t.Fatal("losing primary was never cancelled")
	}
}

func TestHedgedBothFail(t *testing.T) {
	errPrimary := errors.New("primary down")
	errHedge := errors.New("hedge down")
	winner, hedged, err := Hedged(context.Background(), time.Millisecond, nil, func(ctx context.Context, attempt int) error {
		if attempt == 0 {
			time.Sleep(10 * time.Millisecond) // outlive the hedge threshold
			return errPrimary
		}
		return errHedge
	})
	if !hedged {
		t.Fatal("hedge never launched")
	}
	if winner != 0 || !errors.Is(err, errPrimary) {
		t.Fatalf("both failed: winner=%d err=%v, want primary's error", winner, err)
	}
}

func TestHedgedPrimaryFailsFastNoHedge(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	winner, hedged, err := Hedged(context.Background(), time.Hour, nil, func(ctx context.Context, attempt int) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) || winner != 0 || hedged || calls != 1 {
		t.Fatalf("fast failure: winner=%d hedged=%v calls=%d err=%v, want 0/false/1/boom (errors are the retry layer's job, not the hedge's)",
			winner, hedged, calls, err)
	}
}

func TestHedgedDisabled(t *testing.T) {
	calls := 0
	if _, hedged, err := Hedged(context.Background(), 0, nil, func(ctx context.Context, attempt int) error {
		calls++
		return nil
	}); hedged || err != nil || calls != 1 {
		t.Fatalf("after=0: hedged=%v calls=%d err=%v, want inline single call", hedged, calls, err)
	}
}

func TestProberClosesRecoveredBreaker(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewSet(BreakerOptions{MinSamples: 1, Cooldown: time.Millisecond}, reg)
	b := s.Get("node")
	b.Allow()
	b.Record(false) // trip
	if b.State() != Open {
		t.Fatal("breaker did not trip")
	}

	var mu sync.Mutex
	healthy := false
	pinged := make(chan struct{}, 16)
	p := NewProber(s, []ProbeTarget{{
		Name: "node",
		Ping: func(ctx context.Context) error {
			mu.Lock()
			defer mu.Unlock()
			select {
			case pinged <- struct{}{}:
			default:
			}
			if healthy {
				return nil
			}
			return errors.New("still down")
		},
	}}, ProberOptions{Interval: 5 * time.Millisecond, Metrics: reg})
	p.Start()
	defer p.Stop()

	// While the node is down, probes keep the breaker open.
	select {
	case <-pinged:
	case <-time.After(2 * time.Second):
		t.Fatal("prober never pinged the open node")
	}
	if b.State() == Closed {
		t.Fatal("breaker closed while the node was still down")
	}
	// The node recovers: a probe success must close the breaker without
	// any query traffic.
	mu.Lock()
	healthy = true
	mu.Unlock()
	deadline := time.Now().Add(2 * time.Second)
	for b.State() != Closed {
		if time.Now().After(deadline) {
			t.Fatal("breaker never closed after the node recovered")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if reg.Counter("health_probes_total").Value() == 0 {
		t.Error("health_probes_total is zero")
	}
	if reg.Counter("health_probe_failures_total").Value() == 0 {
		t.Error("health_probe_failures_total is zero despite failed probes")
	}
	p.Stop() // idempotent
}
