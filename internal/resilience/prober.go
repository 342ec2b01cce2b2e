package resilience

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// ProbeTarget is one node the prober may ping.
type ProbeTarget struct {
	// Name keys the node's breaker in the Set.
	Name string
	// Ping checks the node's health (a wire client's /v1/health call).
	Ping func(ctx context.Context) error
}

// ProberOptions tunes the background health prober.
type ProberOptions struct {
	// Interval is how often unhealthy nodes are probed (default 2s).
	Interval time.Duration
	// Timeout bounds each probe (default 1s).
	Timeout time.Duration
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
	interval time.Duration
	timeout  time.Duration

	mu      sync.Mutex
	targets []ProbeTarget

	probes   *telemetry.Counter
	failures *telemetry.Counter

	started  atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewProber builds a prober over the given targets. Call Start to begin
// probing and Stop to halt it.
func NewProber(set *Set, targets []ProbeTarget, opts ProberOptions) *Prober {
	if opts.Interval <= 0 {
		opts.Interval = 2 * time.Second
	}
	if opts.Timeout <= 0 {
		opts.Timeout = time.Second
	}
	return &Prober{
		set:      set,
		targets:  targets,
		interval: opts.Interval,
		timeout:  opts.Timeout,
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
	ticker := time.NewTicker(p.interval)
	defer ticker.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-ticker.C:
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
			ctx, cancel := context.WithTimeout(context.Background(), p.timeout)
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
