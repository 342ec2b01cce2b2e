package resilience

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/telemetry"
)

// Set is the per-node breaker collection of one metasearcher: one
// Breaker per database name, created on first use. It keeps the
// aggregate state gauges (breakers_closed / breakers_half_open /
// breakers_open) and the breaker_trips_total counter current, and
// serves per-node detail at /debug/breakers. All methods are safe for
// concurrent use and on a nil receiver (the disabled-breakers case).
type Set struct {
	opts BreakerOptions

	mu sync.RWMutex
	m  map[string]*Breaker

	closed        *telemetry.Gauge
	halfOpen      *telemetry.Gauge
	open          *telemetry.Gauge
	trips         *telemetry.Counter
	probes        *telemetry.Counter
	probeFailures *telemetry.Counter
}

// NewSet creates a breaker set; every breaker it mints uses opts. The
// gauge and counter series are registered immediately (reg may be nil).
func NewSet(opts BreakerOptions, reg *telemetry.Registry) *Set {
	return &Set{
		opts:          opts,
		m:             make(map[string]*Breaker),
		closed:        reg.DeclareGauge("breakers_closed", "Circuit breakers currently closed (healthy targets)."),
		halfOpen:      reg.DeclareGauge("breakers_half_open", "Circuit breakers currently half-open (probing recovery)."),
		open:          reg.DeclareGauge("breakers_open", "Circuit breakers currently open (targets routed around)."),
		trips:         reg.DeclareCounter("breaker_trips_total", "Circuit-breaker transitions from closed to open."),
		probes:        reg.DeclareCounter("health_probes_total", "Background health probes sent to non-closed breaker targets."),
		probeFailures: reg.DeclareCounter("health_probe_failures_total", "Background health probes that failed."),
	}
}

// probeTimeout bounds each probe. It is a deadline, so it runs on the
// wall clock (see internal/clock), and its expiry is a failure.
const probeTimeout = time.Second

// ProbeTarget is one node a health probe may ping.
type ProbeTarget struct {
	// Name keys the node's breaker in the Set.
	Name string
	// Ping checks the node's health (a wire client's /v1/health call).
	Ping func(ctx context.Context) error
}

// Probe is one health sweep: it pings, concurrently, every target whose
// breaker is not closed and admits the call, and feeds each outcome back
// through RecordCall, so an open breaker closes as soon as its node
// recovers instead of waiting for query traffic to roll the dice on its
// half-open trial; the breaker also keeps the outcome and its time as
// its last probe (BreakerSnapshot). Closed targets are left alone —
// query traffic is their health check. A ping cut short by ctx's
// cancellation (the schedule stopping) is neutral: it releases the
// trial and counts as neither a probe nor a failure (nor as the last
// probe). Run it on a schedule with clock.Every, passing the targets as
// they are at each sweep.
func (s *Set) Probe(ctx context.Context, targets []ProbeTarget) {
	var wg sync.WaitGroup
	for _, t := range targets {
		b := s.Get(t.Name)
		if b.State() == Closed || !b.Allow() {
			continue // healthy, open and still cooling down, or a trial in flight
		}
		wg.Add(1)
		go func(t ProbeTarget, b *Breaker) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, probeTimeout)
			defer cancel()
			err := t.Ping(pctx)
			b.RecordCall(pctx, err)
			if errors.Is(pctx.Err(), context.Canceled) {
				return
			}
			b.recordProbe(err)
			s.probes.Inc()
			if err != nil {
				s.probeFailures.Inc()
			}
		}(t, b)
	}
	wg.Wait()
}

// Clock returns the clock the set's breakers time their cooldowns on
// (real time for a nil set).
func (s *Set) Clock() clock.Clock {
	if s == nil {
		return clock.Real
	}
	return clock.Or(s.opts.Clock)
}

// Get returns the node's breaker, creating it (closed) on first use.
// A nil set returns a nil breaker, which admits everything.
func (s *Set) Get(name string) *Breaker {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	b := s.m[name]
	s.mu.RUnlock()
	if b != nil {
		return b
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if b = s.m[name]; b != nil {
		return b
	}
	b = newBreaker(s.opts, s.onChange)
	s.m[name] = b
	s.closed.Add(1)
	return b
}

// Seed returns the named breaker like Get, but a breaker that does not
// exist yet is created in the given state instead of closed. An
// existing breaker keeps its state untouched — seeding is for targets
// that just joined the topology (a swapped-in replica starts half-open:
// its first real call is the trial), and must never clobber the
// carried-over state of a survivor.
func (s *Set) Seed(name string, st State) *Breaker {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	b := s.m[name]
	if b == nil {
		b = newBreaker(s.opts, s.onChange)
		s.m[name] = b
		s.closed.Add(1)
		if st != Closed {
			b.forceState(st)
		}
	}
	s.mu.Unlock()
	return b
}

// Remove drops the named breaker from the set: the aggregate gauges
// forget its state and later Records on it (stragglers from calls that
// were in flight when its target left the topology) no longer move
// them. Safe if the name was never in the set.
func (s *Set) Remove(name string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	b := s.m[name]
	delete(s.m, name)
	s.mu.Unlock()
	if b == nil {
		return
	}
	s.stateGauge(b.detach()).Add(-1)
}

// stateGauge maps a state to its aggregate gauge.
func (s *Set) stateGauge(st State) *telemetry.Gauge {
	switch st {
	case HalfOpen:
		return s.halfOpen
	case Open:
		return s.open
	default:
		return s.closed
	}
}

// onChange keeps the aggregate gauges and trip counter in step with
// breaker transitions.
func (s *Set) onChange(from, to State) {
	s.stateGauge(from).Add(-1)
	s.stateGauge(to).Add(1)
	if to == Open {
		s.trips.Inc()
	}
}

// Snapshot returns every breaker's state, sorted by database name.
func (s *Set) Snapshot() []BreakerSnapshot {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	names := make([]string, 0, len(s.m))
	for name := range s.m {
		names = append(names, name)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	out := make([]BreakerSnapshot, 0, len(names))
	for _, name := range names {
		s.mu.RLock()
		b := s.m[name]
		s.mu.RUnlock()
		snap := b.Snapshot()
		snap.Database = name
		out = append(out, snap)
	}
	return out
}

// Handler serves the set as JSON — the /debug/breakers endpoint:
//
//	{"breakers": [{"database": ..., "state": "open", ...}, ...]}
//
// A nil set serves an empty list, so the endpoint can be mounted
// unconditionally.
func (s *Set) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		snaps := s.Snapshot()
		if snaps == nil {
			snaps = []BreakerSnapshot{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Breakers []BreakerSnapshot `json:"breakers"`
		}{snaps})
	})
}
