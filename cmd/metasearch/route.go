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
	watcher.Subscribe(func(snap *shardmap.Snapshot) {
		rec, err := rt.ApplyTopology(snap)
		if err != nil {
			log.Printf("topology swap (generation %d) failed: %v", snap.Generation, err)
			return
		}
		log.Printf("topology generation %d applied: shards +%d -%d moved %d",
			rec.Generation, len(rec.ShardsAdded), len(rec.ShardsRemoved), len(rec.ShardsMoved))
	})
	defer pollTopology(watcher, f)()

	gopts := gatewayOptions(f, reg)
	// /v1/healthz reports every shard's breaker state and last
	// health-probe result alongside the router's own health, plus the
	// active topology generation and last-swap timestamp.
	gopts.ShardHealth = rt.ShardHealth
	gopts.Topology = rt.TopologyStatus
	dbg := debugBundle{
		reg:      reg,
		breakers: breakers,
		identity: telemetry.Identity{Instance: f.serveAddr, Role: "router"},
		ring:     ring,
		// The router's /debug/topology is the live ring view: active
		// generation, fan-out targets, and the swap audit trail.
		topology: rt.TopologyHandler(),
	}

	return serve(rt, f, gopts, dbg)
}
