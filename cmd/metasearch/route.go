package main

import (
	"log"

	"repro/internal/clock"
	"repro/internal/resilience"
	"repro/internal/router"
	"repro/internal/shardmap"
	"repro/internal/telemetry"
)

// runRoute runs the process as the cluster's scatter-gather router: no
// testbed, no summaries, no selection — every query fans out to the
// topology's shards (each a metasearch shard process) and the per-shard
// rankings merge into the single-process answer. The router serves the
// same gateway API and debug endpoints as a standalone metasearcher,
// with /debug/breakers showing per-shard breakers.
func runRoute(f *flags, _ []string) error {
	reg := telemetry.NewRegistry()
	// The router always traces into a bounded ring so the cluster
	// collector can stitch its fan-out spans into cross-process traces.
	ring := telemetry.NewRingCapture(0)
	tracer := telemetry.NewTracer(ring)
	breakers := resilience.NewSet(resilience.BreakerOptions{}, reg)
	budget := resilience.NewBudget(resilience.BudgetOptions{Metrics: reg})

	watcher, err := shardmap.NewWatcher(f.topologyFile, shardmap.WatcherOptions{Metrics: reg})
	if err != nil {
		return err
	}
	rt, err := router.New(watcher.Snapshot().Topology, router.Options{
		Timeout:  f.deadline,
		Breakers: breakers,
		Metrics:  reg,
		Tracer:   tracer,
		Budget:   budget,
	})
	if err != nil {
		return err
	}
	for _, s := range rt.Shards() {
		log.Printf("routing to shard %s at %s", s.ID, s.Addr)
	}
	defer clock.Every(nil, f.probeEvery, rt.Probe)()
	// Live reconfiguration: topology version bumps swap the fan-out ring
	// atomically under traffic.
	watcher.OnSwap(func(snap *shardmap.Snapshot) error {
		if err := rt.ApplyTopology(snap); err != nil {
			return err
		}
		d := snap.Diff
		log.Printf("topology generation %d applied: shards +%d -%d moved %d",
			snap.Generation, len(d.ShardsAdded), len(d.ShardsRemoved), len(d.ShardsMoved))
		return nil
	})
	defer pollTopology(watcher, f)()

	gopts := gatewayOptions(f, reg)
	// /v1/healthz reports every shard's breaker state and last
	// health-probe result alongside the router's own health, plus the
	// applied topology generation and last-swap timestamp.
	gopts.ShardHealth = rt.ShardHealth
	gopts.Topology = watcher.Status
	dbg := debugBundle{
		reg:      reg,
		breakers: breakers,
		identity: telemetry.Identity{Instance: f.serveAddr, Role: "router"},
		ring:     ring,
		topology: watcher.Handler(),
	}

	return serve(rt, f, gopts, dbg)
}
