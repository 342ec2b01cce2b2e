// Package resilience is the fault-tolerance layer of the serving path:
// Do, the one attempt loop every remote call runs through (circuit
// breakers per target, retries with backoff, failover, one hedge, a
// retry budget, and one health verdict per target), and Set.Probe, the
// health sweep that lets an open breaker close as soon as its node
// recovers.
//
// The paper's metasearcher fronts autonomous hidden-web databases that
// are slow, overloaded, or down; none of that may stall the merged
// answer. This package owns when to call, retry, hedge, fail over or
// skip, and what an outcome says about a target's health; a caller names
// its targets, picks its Policy constants and audits what a call cost.
package resilience

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/clock"
)

// State is a circuit breaker's position. States order healthiest first.
type State int

const (
	// Closed: calls flow normally; outcomes are tallied.
	Closed State = iota
	// HalfOpen: one trial call is allowed through; its outcome decides
	// between Closed and Open.
	HalfOpen
	// Open: calls are short-circuited without touching the node.
	Open
)

// String renders the state the way audit records and /debug/breakers
// spell it.
func (s State) String() string {
	switch s {
	case HalfOpen:
		return "half_open"
	case Open:
		return "open"
	default:
		return "closed"
	}
}

// The breaker policy (DESIGN §9.4 tabulates it with every other timing
// constant of the fan-out): a breaker trips once at least
// breakerMinSamples of its last breakerWindow outcomes are in and
// breakerFailureThreshold of them failed — so one failure on a cold
// breaker cannot black-hole a node — then waits BreakerCooldown before
// letting one half-open trial through.
const (
	breakerWindow           = 20
	breakerFailureThreshold = 0.5
	breakerMinSamples       = 3
	BreakerCooldown         = 5 * time.Second
)

// BreakerOptions configures a breaker. The zero value runs on real
// time.
type BreakerOptions struct {
	// Clock times the cooldown (nil: real time).
	Clock clock.Clock
}

// Breaker is a closed/open/half-open circuit breaker over one node.
// All methods are safe for concurrent use and on a nil receiver (a nil
// breaker admits everything), so disabling breakers needs no
// conditionals at call sites.
//
// The contract is Allow-then-Record: every call the breaker admits must
// report its outcome exactly once — RecordCall for query traffic (Do
// does) and health probes (Set.Probe does) — or a half-open breaker
// would leak its single trial slot.
type Breaker struct {
	clock    clock.Clock
	onChange func(from, to State) // called with mu held; must not re-enter

	mu        sync.Mutex
	state     State
	outcomes  []bool // ring of the last breakerWindow outcomes
	next      int
	samples   int
	failures  int
	openedAt  time.Time
	changedAt time.Time
	probing   bool // a half-open trial is in flight

	trips         int64
	shortCircuits int64

	lastProbe   string    // "ok" or the last health probe's error; "" = never probed
	lastProbeAt time.Time // when that probe finished, on the breaker's clock
}

// NewBreaker builds a standalone breaker (breakers inside a Set are
// created by Set.Get).
func NewBreaker(opts BreakerOptions) *Breaker {
	return newBreaker(opts, nil)
}

func newBreaker(opts BreakerOptions, onChange func(from, to State)) *Breaker {
	clk := clock.Or(opts.Clock)
	return &Breaker{
		clock:     clk,
		onChange:  onChange,
		outcomes:  make([]bool, 0, breakerWindow),
		changedAt: clk.Now(),
	}
}

// Allow reports whether a call to the node may proceed. An open breaker
// whose cooldown has elapsed transitions to half-open and admits the
// caller as its single trial.
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.clock.Now().Sub(b.openedAt) >= BreakerCooldown {
			b.transition(HalfOpen)
			b.probing = true
			return true
		}
		b.shortCircuits++
		return false
	default: // HalfOpen
		if b.probing {
			b.shortCircuits++
			return false
		}
		b.probing = true
		return true
	}
}

// Record reports the outcome of an admitted call. A half-open trial's
// outcome decides the next state; in the closed state the outcome joins
// the window and may trip the breaker.
func (b *Breaker) Record(ok bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == HalfOpen {
		b.probing = false
		if ok {
			b.reset()
			b.transition(Closed)
		} else {
			b.openedAt = b.clock.Now()
			b.transition(Open)
		}
		return
	}
	if b.state == Open {
		// A straggler from before the trip; the window restarted.
		return
	}
	b.push(ok)
	if b.samples >= breakerMinSamples &&
		float64(b.failures) >= breakerFailureThreshold*float64(b.samples) {
		b.trips++
		b.openedAt = b.clock.Now()
		b.reset()
		b.transition(Open)
	}
}

// RecordNeutral releases an admitted call's slot without a health
// verdict. A shed (429) response is the canonical case: the node is
// alive but overloaded — neither evidence for closing nor for tripping.
func (b *Breaker) RecordNeutral() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == HalfOpen {
		b.probing = false
	}
}

// RecordCall reports how an admitted call ended, and is the one place
// a call's error becomes a health verdict: nil is a success; an error
// after ctx — the context the call ran under — was cancelled (the
// client hung up, or the call was a hedge that lost its race) is
// neutral, and so is a shed (an error exposing Shed() == true: the
// target answered 429, alive but at capacity); anything else is a
// failure. A deadline that ran out on a target that had not answered is
// a failure whoever set it — the fan-out's budget or the request's own
// deadline: only a hang-up says nothing about the target.
func (b *Breaker) RecordCall(ctx context.Context, err error) {
	switch {
	case err == nil:
		b.Record(true)
	case errors.Is(ctx.Err(), context.Canceled), isShed(err):
		b.RecordNeutral()
	default:
		b.Record(false)
	}
}

// State returns the current state (an open breaker past its cooldown
// still reports Open until a caller's Allow starts the trial).
func (b *Breaker) State() State {
	if b == nil {
		return Closed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// push adds one outcome to the ring window.
func (b *Breaker) push(ok bool) {
	if len(b.outcomes) < cap(b.outcomes) {
		b.outcomes = append(b.outcomes, ok)
	} else {
		if !b.outcomes[b.next] {
			b.failures--
		}
		b.outcomes[b.next] = ok
		b.next = (b.next + 1) % cap(b.outcomes)
	}
	if b.samples < cap(b.outcomes) {
		b.samples++
	}
	if !ok {
		b.failures++
	}
}

// reset clears the outcome window.
func (b *Breaker) reset() {
	b.outcomes = b.outcomes[:0]
	b.next = 0
	b.samples = 0
	b.failures = 0
}

// detach disconnects the breaker from its set's onChange hook and
// returns the state it held at that instant. After detach, a straggler
// Record from a call that outlived the breaker's membership can still
// flip the state but can no longer touch the set's aggregate gauges —
// which is the point: Set.Remove subtracts the returned state from the
// gauges exactly once, and nothing may move them afterwards.
func (b *Breaker) detach() State {
	if b == nil {
		return Closed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.onChange = nil
	return b.state
}

// forceState moves a freshly minted breaker into st (Set.Seed). The
// outcome window is cleared; a half-open target's first admitted call
// becomes its trial.
func (b *Breaker) forceState(st State) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if st == Open {
		b.openedAt = b.clock.Now()
	}
	b.probing = false
	b.reset()
	b.transition(st)
}

// transition moves to a new state (mu held).
func (b *Breaker) transition(to State) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	b.changedAt = b.clock.Now()
	if b.onChange != nil {
		b.onChange(from, to)
	}
}

// BreakerSnapshot is one breaker's observable state, as served at
// /debug/breakers.
type BreakerSnapshot struct {
	// Database names the node (set by Set.Snapshot).
	Database string `json:"database,omitempty"`
	// State is "closed", "half_open", or "open".
	State string `json:"state"`
	// Samples and Failures describe the current outcome window.
	Samples  int `json:"samples"`
	Failures int `json:"failures"`
	// Trips counts closed→open transitions; ShortCircuits counts calls
	// denied without touching the node.
	Trips         int64 `json:"trips"`
	ShortCircuits int64 `json:"short_circuits"`
	// OpenedAt is when the breaker last tripped (zero if never).
	OpenedAt time.Time `json:"opened_at,omitempty"`
	// ChangedAt is the last state transition.
	ChangedAt time.Time `json:"changed_at"`
	// CooldownSeconds is the open→half-open delay.
	CooldownSeconds float64 `json:"cooldown_seconds"`
	// LastProbe is the latest background health probe's outcome (Set.Probe
	// pings only targets whose breaker is not closed): "ok", the error,
	// or "" when never probed. LastProbeAt is when it finished (zero when
	// never probed).
	LastProbe   string    `json:"last_probe,omitempty"`
	LastProbeAt time.Time `json:"last_probe_at"`
}

// Snapshot captures the breaker's state for debugging.
func (b *Breaker) Snapshot() BreakerSnapshot {
	if b == nil {
		return BreakerSnapshot{State: Closed.String()}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerSnapshot{
		State:           b.state.String(),
		Samples:         b.samples,
		Failures:        b.failures,
		Trips:           b.trips,
		ShortCircuits:   b.shortCircuits,
		OpenedAt:        b.openedAt,
		ChangedAt:       b.changedAt,
		CooldownSeconds: BreakerCooldown.Seconds(),
		LastProbe:       b.lastProbe,
		LastProbeAt:     b.lastProbeAt,
	}
}

// recordProbe keeps a health probe's outcome for Snapshot.
func (b *Breaker) recordProbe(err error) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lastProbe, b.lastProbeAt = "ok", b.clock.Now()
	if err != nil {
		b.lastProbe = err.Error()
	}
}
