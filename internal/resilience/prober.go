package resilience

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/telemetry"
)

// probeTimeout bounds each probe. It is a deadline, so it runs on the
// wall clock (see internal/clock).
const probeTimeout = time.Second

// ProbeTarget is one node the prober may ping.
type ProbeTarget struct {
	// Name keys the node's breaker in the Set.
	Name string
	// Ping checks the node's health (a wire client's /v1/health call).
	Ping func(ctx context.Context) error
}

// ProberOptions tunes the background health prober.
type ProberOptions struct {
	// Interval is how long the prober waits after one sweep of the
	// unhealthy nodes before the next, on the Set's clock (default 2s).
	Interval time.Duration
	// Metrics receives health_probes_total and
	// health_probe_failures_total (may be nil).
	Metrics *telemetry.Registry
}

// Prober pings the nodes whose breakers are not closed, feeding the
// results back into the breakers: an open breaker whose node recovers
// closes after one successful probe instead of waiting for live query
// traffic to roll the dice on its half-open trial. Healthy (closed)
// nodes are left alone — query traffic is their health check.
type Prober struct {
	set      *Set
	clock    clock.Clock // the Set's, which times the cooldowns the prober waits out
	interval time.Duration

	mu      sync.Mutex
	targets []ProbeTarget

	probes   *telemetry.Counter
	failures *telemetry.Counter

	started  atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewProber builds a prober over the given targets and the non-nil
// set. Call Start to begin probing and Stop to halt it.
func NewProber(set *Set, targets []ProbeTarget, opts ProberOptions) *Prober {
	if opts.Interval <= 0 {
		opts.Interval = 2 * time.Second
	}
	return &Prober{
		set:      set,
		clock:    set.Clock(),
		targets:  targets,
		interval: opts.Interval,
		probes:   opts.Metrics.DeclareCounter("health_probes_total", "Background health probes sent to non-closed breaker targets."),
		failures: opts.Metrics.DeclareCounter("health_probe_failures_total", "Background health probes that failed."),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// SetTargets replaces the probe target list — the topology-swap hook.
// The next sweep probes the new list; a removed target is simply never
// probed again (its breaker's removal from the Set is the owner's job).
// An in-flight sweep holds the slice it started with, which is safe:
// probing a just-removed target once more is harmless, and the breaker
// Allow gate still serializes trials.
func (p *Prober) SetTargets(targets []ProbeTarget) {
	p.mu.Lock()
	p.targets = append([]ProbeTarget(nil), targets...)
	p.mu.Unlock()
}

// Start launches the probe loop in a background goroutine.
func (p *Prober) Start() {
	if p.started.CompareAndSwap(false, true) {
		go p.run()
	}
}

// Stop halts the probe loop and waits for in-flight probes to finish.
// Safe to call more than once, and before Start.
func (p *Prober) Stop() {
	p.stopOnce.Do(func() { close(p.stop) })
	if p.started.Load() {
		<-p.done
	}
}

func (p *Prober) run() {
	defer close(p.done)
	for {
		t := p.clock.NewTimer(p.interval)
		select {
		case <-p.stop:
			t.Stop()
			return
		case <-t.C():
			p.sweep()
		}
	}
}

// sweep probes every currently-unhealthy target once, concurrently
// (a hung node's probe must not delay the others').
func (p *Prober) sweep() {
	p.mu.Lock()
	targets := p.targets
	p.mu.Unlock()
	var wg sync.WaitGroup
	for _, t := range targets {
		b := p.set.Get(t.Name)
		if b.State() == Closed {
			continue
		}
		if !b.Allow() {
			continue // open and still cooling down, or a trial in flight
		}
		wg.Add(1)
		go func(t ProbeTarget, b *Breaker) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
			defer cancel()
			p.probes.Inc()
			err := t.Ping(ctx)
			if err != nil {
				p.failures.Inc()
			}
			b.Record(err == nil)
		}(t, b)
	}
	wg.Wait()
}
