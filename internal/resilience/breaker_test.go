package resilience

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/telemetry"
)

// trip records failures on a closed breaker until it opens.
func trip(b *Breaker) {
	for i := 0; i < breakerMinSamples; i++ {
		b.Allow()
		b.Record(false)
	}
}

func TestBreakerStateMachine(t *testing.T) {
	clk := clock.NewFake()
	b := NewBreaker(BreakerOptions{Clock: clk})

	if b.State() != Closed {
		t.Fatalf("new breaker state = %v, want closed", b.State())
	}
	// Failures short of the minimum sample count must not trip, however
	// bad the rate.
	for i := 1; i < breakerMinSamples; i++ {
		if !b.Allow() {
			t.Fatal("closed breaker denied a call")
		}
		b.Record(false)
		if b.State() != Closed {
			t.Fatalf("state after %d failures = %v, want closed (below the minimum sample count)", i, b.State())
		}
	}
	// The next failure: rate 3/3 >= 0.5 → open.
	b.Allow()
	b.Record(false)
	if b.State() != Open {
		t.Fatalf("state after %d/%d failures = %v, want open", breakerMinSamples, breakerMinSamples, b.State())
	}
	clk.Advance(BreakerCooldown - time.Nanosecond)
	if b.Allow() {
		t.Fatal("open breaker admitted a call before its cooldown ended")
	}
	// Cooldown elapses: exactly one half-open trial is admitted.
	clk.Advance(time.Nanosecond)
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
	clk.Advance(BreakerCooldown)
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
	if snap.CooldownSeconds != BreakerCooldown.Seconds() {
		t.Errorf("snapshot cooldown_seconds = %v, want %v", snap.CooldownSeconds, BreakerCooldown.Seconds())
	}
}

// TestBreakerWindowRate pins the trip rule over a full window:
// successes dilute failures, and the breaker opens when failures reach
// half of the last breakerWindow outcomes.
func TestBreakerWindowRate(t *testing.T) {
	b := NewBreaker(BreakerOptions{Clock: clock.NewFake()})
	for i := 0; i < breakerWindow; i++ {
		b.Allow()
		b.Record(true)
	}
	// Each failure displaces the oldest success from the full window.
	for i := 1; i < breakerWindow/2; i++ {
		b.Allow()
		b.Record(false)
		if b.State() != Closed {
			t.Fatalf("tripped at %d failures in a window of %d", i, breakerWindow)
		}
	}
	b.Allow()
	b.Record(false)
	if b.State() != Open {
		t.Fatalf("state at %d failures in a window of %d = %v, want open", breakerWindow/2, breakerWindow, b.State())
	}
}

func TestBreakerNeutralReleasesTrial(t *testing.T) {
	clk := clock.NewFake()
	b := NewBreaker(BreakerOptions{Clock: clk})
	trip(b)
	clk.Advance(BreakerCooldown)
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
		b := NewBreaker(BreakerOptions{})
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
	s := NewSet(BreakerOptions{Clock: clock.NewFake()}, reg)

	a, b := s.Get("alpha"), s.Get("beta")
	if s.Get("alpha") != a {
		t.Fatal("Get is not idempotent")
	}
	if got := reg.Gauge("breakers_closed").Value(); got != 2 {
		t.Fatalf("breakers_closed = %v, want 2", got)
	}
	trip(a)
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
	// A time the breaker never had is left out, not served as year 1:
	// beta never tripped and neither was probed.
	var raw struct {
		Breakers []map[string]json.RawMessage `json:"breakers"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw.Breakers[0]["opened_at"]; !ok {
		t.Errorf("tripped breaker alpha has no opened_at: %s", rec.Body.String())
	}
	for _, key := range []string{"opened_at", "last_probe_at"} {
		if v, ok := raw.Breakers[1][key]; ok {
			t.Errorf("breaker beta serves %s %s, want the key left out", key, v)
		}
	}
	if v, ok := raw.Breakers[0]["last_probe_at"]; ok {
		t.Errorf("never-probed breaker alpha serves last_probe_at %s, want the key left out", v)
	}
}

// TestProbeClosesRecoveredBreaker: a probe schedule on the Set's clock
// waits out its interval and the breaker's cooldown, probes the open
// node, keeps its breaker open while the node is down, and closes it
// with the first sweep after the node recovers.
func TestProbeClosesRecoveredBreaker(t *testing.T) {
	reg := telemetry.NewRegistry()
	clk := clock.NewFake()
	s := NewSet(BreakerOptions{Clock: clk}, reg)
	b := s.Get("node")
	trip(b)
	if b.State() != Open {
		t.Fatal("breaker did not trip")
	}

	var healthy atomic.Bool
	targets := []ProbeTarget{{
		Name: "node",
		Ping: func(ctx context.Context) error {
			if healthy.Load() {
				return nil
			}
			return errors.New("still down")
		},
	}}
	stop := clock.Every(clk, time.Second, func(ctx context.Context) { s.Probe(ctx, targets) })
	defer stop()

	// sweep moves the clock past the cooldown (and so past the probe
	// interval) and waits until the schedule, done with the sweep that
	// fired, waits for the next.
	sweep := func() {
		clk.BlockUntil(1)
		clk.Advance(BreakerCooldown)
		clk.BlockUntil(1)
	}
	sweep()
	if b.State() != Open {
		t.Fatalf("breaker %v after a failed probe, want open", b.State())
	}
	if got := reg.Counter("health_probe_failures_total").Value(); got != 1 {
		t.Fatalf("health_probe_failures_total = %d, want 1", got)
	}
	// The node recovers: a probe success closes the breaker without any
	// query traffic.
	healthy.Store(true)
	sweep()
	if b.State() != Closed {
		t.Fatalf("breaker %v after the node recovered, want closed", b.State())
	}
	if got := reg.Counter("health_probes_total").Value(); got != 2 {
		t.Errorf("health_probes_total = %d, want 2", got)
	}
}

// TestProbeRecordsLastProbe: each probe's outcome and its time on the
// set's clock stay on the breaker it fed, as its snapshot's last probe;
// a probe cut short by cancellation leaves the last one in place.
func TestProbeRecordsLastProbe(t *testing.T) {
	clk := clock.NewFake()
	s := NewSet(BreakerOptions{Clock: clk}, nil)
	if snap := s.Seed("node", HalfOpen).Snapshot(); snap.LastProbe != "" || !snap.LastProbeAt.IsZero() {
		t.Fatalf("a never-probed breaker reports last probe %q at %v", snap.LastProbe, snap.LastProbeAt)
	}
	ping := errors.New("still down")
	targets := []ProbeTarget{{Name: "node", Ping: func(context.Context) error { return ping }}}
	s.Probe(context.Background(), targets)
	failedAt := clk.Now()
	if snap := s.Get("node").Snapshot(); snap.LastProbe != "still down" || !snap.LastProbeAt.Equal(failedAt) {
		t.Fatalf("after a failed probe: last probe %q at %v, want %q at %v", snap.LastProbe, snap.LastProbeAt, "still down", failedAt)
	}

	clk.Advance(BreakerCooldown)
	ping = nil
	s.Probe(context.Background(), targets)
	if snap := s.Get("node").Snapshot(); snap.LastProbe != "ok" || !snap.LastProbeAt.Equal(clk.Now()) || snap.State != "closed" {
		t.Fatalf("after a successful probe: %+v, want closed, last probe ok at %v", snap, clk.Now())
	}

	s.Seed("other", HalfOpen)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Probe(ctx, []ProbeTarget{{Name: "other", Ping: func(ctx context.Context) error { return ctx.Err() }}})
	if snap := s.Get("other").Snapshot(); snap.LastProbe != "" {
		t.Errorf("a cancelled probe was recorded as the last probe %q", snap.LastProbe)
	}
}

// TestProbeCutShortIsNeutral: stopping the schedule while a probe is
// waiting on its node cancels the ping, and that says nothing about the
// node — the half-open breaker stays half-open with its trial released,
// and neither probe counter moves. (A probe whose own probeTimeout runs
// out is a failure: that is a deadline, not a cancellation.)
func TestProbeCutShortIsNeutral(t *testing.T) {
	reg := telemetry.NewRegistry()
	clk := clock.NewFake()
	s := NewSet(BreakerOptions{Clock: clk}, reg)
	b := s.Seed("node", HalfOpen)

	pinged := make(chan struct{})
	targets := []ProbeTarget{{Name: "node", Ping: func(ctx context.Context) error {
		close(pinged)
		<-ctx.Done()
		return ctx.Err()
	}}}
	stop := clock.Every(clk, time.Second, func(ctx context.Context) { s.Probe(ctx, targets) })
	clk.BlockUntil(1)
	clk.Advance(time.Second)
	<-pinged
	stop()

	if st := b.State(); st != HalfOpen {
		t.Fatalf("breaker %v after a cancelled probe, want half_open", st)
	}
	if !b.Allow() {
		t.Fatal("the cancelled probe kept the half-open trial slot")
	}
	for _, name := range []string{"health_probes_total", "health_probe_failures_total"} {
		if got := reg.Counter(name).Value(); got != 0 {
			t.Errorf("%s = %d after a cancelled probe, want 0", name, got)
		}
	}
}
