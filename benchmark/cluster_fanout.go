package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro"
	"repro/internal/gateway"
	"repro/internal/resilience"
	"repro/internal/router"
	"repro/internal/shardmap"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// cluster_fanout: the sharded cluster assembled in one process over
// real loopback sockets — one wire.NewServer dbnode per database, two
// shard metasearchers that dial their slice and load one saved state
// file scoped to it, their gateways, the router, and the router's
// gateway. k = 10, perdb = 10, a seeded permutation of the hot queries.
// The selection tier is warmed during set-up and never expires; the
// result tier expires after a nanosecond, so every request hits the
// first, misses and re-inserts into the second, and fans out. router,
// wire, index, the fan-out/merge and two gateway hops do most of the
// work and selection little; beside serve_warm's pure reads it is the
// workload on which the cache layer writes on every request.
func runClusterFanout(rc *runCtx) error {
	const k, perDB = 10, 10
	wd, err := rc.world()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(rc.outDir, "state-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	stateFile := filepath.Join(tmp, "state.json")

	// The offline half, once: index, sample and shrink in process, save.
	t0 := time.Now()
	locals := wd.indexAll()
	builder := repro.New(wd.options(repro.CacheConfig{Disable: true}))
	if err := wd.register(builder, nil, locals); err != nil {
		return err
	}
	if err := builder.BuildSummaries(); err != nil {
		return err
	}
	tSave := time.Now()
	if err := builder.SaveFile(stateFile); err != nil {
		return err
	}
	rc.set("persist.save_s", time.Since(tSave).Seconds())
	prep := time.Since(t0).Seconds()
	if fi, err := os.Stat(stateFile); err == nil {
		rc.set("persist.state_mb", float64(fi.Size())/(1<<20))
	}

	// The serving half, repeated: everything a cluster start-up does.
	// Twice, not rc.reps times: one start-up costs four seconds.
	stages := &stageLog{}
	var cl *cluster
	var setups, loads []float64
	for rep := 0; rep < rc.reps && rep < 2; rep++ {
		if cl != nil {
			cl.stop()
		}
		t0 := time.Now()
		if cl, err = startCluster(rc, wd, locals, stateFile, stages, k, perDB); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		loads = append(loads, cl.loadSeconds...)
	}
	defer cl.stop()
	rc.set("setup_s", prep+median(setups))
	rc.set("persist.load_s", median(loads))

	// cluster ≡ single process: the builder answers the hot queries in
	// process; the router's set-up answers must be bit-identical.
	reference := make(hotAnswers, len(wd.hot))
	for i, q := range wd.hot {
		resp, err := builder.SearchExplained(context.Background(), q, k, perDB)
		if !hasSelection(resp, err) {
			rc.count(1, 1)
			continue
		}
		rc.count(1, 0)
		reference[i] = answerOf(resp)
	}
	want := rc.recordHot(wd, "in-process", reference)
	got := rc.recordHot(wd, "router", cl.hot)
	rc.compareHot(wd, "in-process", "router", want, got)

	perm := newPermutation(len(wd.hot), rc.clients, rc.seedFor(1))
	var replyBytes, replies float64
	var mu sync.Mutex
	issue := func(c, i int) bool {
		qi := perm.at(c, i)
		reply, n, err := cl.api.search(0, wd.hot[qi])
		if err != nil || len(reply.Selections) == 0 {
			return false
		}
		mu.Lock()
		replyBytes += float64(n)
		replies++
		mu.Unlock()
		return answerOfReply(reply).digest(wd.hot[qi]) == want[qi]
	}
	shardRegs := cl.shardRegistries()
	counters := snapshotCounters(shardRegs, append([]string{
		"wire_requests_total", "wire_client_retries_total", "search_hedges_total", "gateway_shed_total",
	}, cacheCounters...)...)
	routerCounters := snapshotCounters([]*telemetry.Registry{cl.routerReg},
		"router_requests_total", "router_shard_calls_total", "gateway_shed_total")
	load := closedLoop(rc.clients, rc.measureFor(), issue)
	rc.count(load.attempted, load.failed)
	rc.setLoad(summarize(load.samples, load.elapsed))

	selHit, resHit := counters.hitRatio("selection_cache"), counters.hitRatio("result_cache")
	rc.set("cache.selection_hit_ratio", selHit)
	rc.set("cache.result_hit_ratio", resHit)
	if selHit < 0.99 {
		rc.problem("selection-cache hit ratio %.4f; cluster_fanout needs ≥ 0.99", selHit)
	}
	if resHit != 0 {
		rc.problem("result-cache hit ratio %.4f; cluster_fanout needs every request to fan out", resHit)
	}
	if q := routerCounters.delta("router_requests_total"); q > 0 {
		rc.set("wire.calls_per_query", counters.delta("wire_requests_total")/q)
		rc.set("wire.retries_per_query", counters.delta("wire_client_retries_total")/q)
		rc.set("repro.hedges_per_query", counters.delta("search_hedges_total")/q)
		rc.set("router.shard_calls_per_query", routerCounters.delta("router_shard_calls_total")/q)
	}
	rc.set("gateway.shed_total", counters.delta("gateway_shed_total")+routerCounters.delta("gateway_shed_total"))
	if replies > 0 {
		rc.set("gateway.reply_bytes", replyBytes/replies)
	}
	if !rc.trace {
		return nil
	}
	return traceClusterFanout(rc, wd, cl, stages, want)
}

// traceClusterFanout replays the head of the permutation with one
// client, untraced then traced, reads the layer self times off the
// spans, and measures streaming delivery against the blocking reply.
func traceClusterFanout(rc *runCtx, wd *world, cl *cluster, stages *stageLog, want []digest) error {
	const replayN = 300
	perm := newPermutation(len(wd.hot), 1, rc.seedFor(1))
	replay := func(i int) bool {
		reply, _, err := cl.api.search(int64(i+1), wd.hot[perm.at(0, i)])
		return err == nil && len(reply.Selections) > 0
	}
	plainMs, failed, _ := oneClient(replayN, replay)
	rc.count(replayN, failed)
	rc.rec.on.Store(true)
	tracedMs, failed, _ := oneClient(replayN, replay)
	rc.rec.on.Store(false)
	rc.count(replayN, failed)
	if base := percentile(plainMs, 0.50); base > 0 {
		rc.set("trace.overhead_ratio", percentile(tracedMs, 0.50)/base)
	}
	rc.setStages(stages.recs, true)
	view := rc.finishTrace(rc.rec.take())
	rc.set("gateway.self_us", median(view.selfUs(spGateway)))
	rc.set("gateway.http_transport_us", median(view.selfUs(spClient, spShardCall)))
	rc.set("router.self_us", median(view.selfUs(spRouter)))
	rc.set("router.shard_call_us_p50", median(view.durUs(spShardCall)))
	rc.set("router.straggler_gap_us", median(view.perRequestGapUs(spShardCall)))
	rc.set("wire.client_self_us", median(view.selfUs(spDB)))
	rc.set("wire.server_self_us", median(view.selfUs(spWireServer)))
	rc.set("index.search_us", median(view.durUs(spIndexQuery)))

	// Streaming through the router: the first frame should arrive well
	// before the blocking reply would, the final frame about with it,
	// and the final frame must be the blocking reply.
	const streamN = 200
	var ttff, full, blocking []float64
	for i := 0; i < streamN; i++ {
		qi := perm.at(0, i)
		t0 := time.Now()
		reply, _, err := cl.api.search(0, wd.hot[qi])
		if err != nil {
			rc.count(1, 1)
			continue
		}
		blocking = append(blocking, float64(time.Since(t0))/float64(time.Millisecond))
		first, whole, final, err := cl.api.stream(wd.hot[qi])
		if err != nil {
			rc.count(2, 1)
			continue
		}
		rc.count(2, 0)
		ttff = append(ttff, float64(first)/float64(time.Millisecond))
		full = append(full, float64(whole)/float64(time.Millisecond))
		fd, bd := answerOfReply(final).digest(wd.hot[qi]), answerOfReply(reply).digest(wd.hot[qi])
		if fd != bd || fd != want[qi] {
			rc.problem("hot query %d: stream final frame differs from the blocking reply", qi)
		}
	}
	rc.set("evtstream.ttff_ms_p50", median(ttff))
	if b := median(blocking); b > 0 {
		rc.set("evtstream.final_over_blocking", median(full)/b)
	}
	rc.note("evtstream: n=%d stream and %d blocking requests", len(full), len(blocking))

	drillCachePut(rc)
	return nil
}

// cluster is every process of the sharded deployment, in this one.
type cluster struct {
	listeners   []*listener
	transports  []*http.Transport
	databases   []*repro.ReplicatedDatabase
	shards      []*repro.Metasearcher
	routerReg   *telemetry.Registry
	api         *apiClient
	hot         hotAnswers // the router's answers from the pre-warm pass
	loadSeconds []float64
}

func (c *cluster) shardRegistries() []*telemetry.Registry {
	regs := make([]*telemetry.Registry, len(c.shards))
	for i, m := range c.shards {
		regs[i] = m.Metrics()
	}
	return regs
}

// stop closes clients before servers, so no connection is left waiting
// on a listener that has gone.
func (c *cluster) stop() {
	if c.api != nil {
		c.api.close()
	}
	for _, d := range c.databases {
		d.Close()
	}
	for _, t := range c.transports {
		t.CloseIdleConnections()
	}
	for i := len(c.listeners) - 1; i >= 0; i-- {
		c.listeners[i].stop()
	}
}

// startCluster boots dbnodes, shards, router and the router's gateway,
// then warms every shard's selection tier by sending each hot query
// through the router once.
func startCluster(rc *runCtx, wd *world, locals []*repro.LocalDatabase, stateFile string, stages *stageLog, k, perDB int) (*cluster, error) {
	cl := &cluster{}
	ok := false
	defer func() {
		if !ok {
			cl.stop()
		}
	}()
	serve := func(h http.Handler) (string, error) {
		l, err := listen(h)
		if err != nil {
			return "", err
		}
		cl.listeners = append(cl.listeners, l)
		return l.addr, nil
	}
	transport := func() *http.Transport {
		t := newTransport()
		cl.transports = append(cl.transports, t)
		return t
	}

	topo := &shardmap.Topology{
		Version: shardmap.TopologyVersion,
		// The ring hashes shard IDs only, so assignments are final before
		// the shard gateways have addresses.
		Shards: []shardmap.Shard{{ID: "shard-00", Addr: "pending:0"}, {ID: "shard-01", Addr: "pending:0"}},
	}
	for i, d := range wd.dbs {
		backend, wrap := traceNode(rc.rec, locals[i])
		addr, err := serve(wrap(wire.NewServer(backend, wire.ServerOptions{Category: d.category})))
		if err != nil {
			return nil, err
		}
		topo.Databases = append(topo.Databases, shardmap.Database{Name: d.name, Category: d.category, Replicas: []string{addr}})
	}

	// Shards boot side by side, as separate processes would.
	cl.shards = make([]*repro.Metasearcher, len(topo.Shards))
	cl.loadSeconds = make([]float64, len(topo.Shards))
	dialed := make([][]*repro.ReplicatedDatabase, len(topo.Shards))
	wireTransport := traceTransport(rc.rec, spWireClient, transport())
	errs := make([]error, len(topo.Shards))
	var wg sync.WaitGroup
	for i := range topo.Shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = func() error {
				assigns, err := topo.ShardAssignments(topo.Shards[i].ID)
				if err != nil {
					return err
				}
				if len(assigns) == 0 {
					return fmt.Errorf("shard %s owns no database", topo.Shards[i].ID)
				}
				m := repro.New(wd.options(repro.CacheConfig{Size: 1024, TTL: -1, ResultTTL: time.Nanosecond}))
				keep := make(map[string]bool, len(assigns))
				for _, a := range assigns {
					rdb, err := repro.DialReplicatedDatabase(context.Background(), a.Replicas, repro.ReplicatedDatabaseOptions{
						Preferred: a.Preferred,
						Breakers:  m.Breakers(),
						Metrics:   m.Metrics(),
						Client:    repro.RemoteDatabaseOptions{Budget: m.RetryBudget(), Transport: wireTransport},
					})
					if err != nil {
						return err
					}
					dialed[i] = append(dialed[i], rdb)
					if err := m.AddDatabase(traceDB(rc.rec, rdb), rdb.Category()); err != nil {
						return err
					}
					keep[a.Database] = true
				}
				t0 := time.Now()
				if err := m.LoadFileFiltered(stateFile, func(name string) bool { return keep[name] }); err != nil {
					return err
				}
				cl.loadSeconds[i] = time.Since(t0).Seconds()
				cl.shards[i] = m
				return nil
			}()
		}(i)
	}
	wg.Wait()
	for _, ds := range dialed {
		cl.databases = append(cl.databases, ds...)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for i, m := range cl.shards {
		searcher := traceSearcher(rc.rec, spSearcher, m, stages, false)
		gw := gateway.New(searcher, gateway.Options{ShardID: topo.Shards[i].ID, Metrics: m.Metrics()})
		addr, err := serve(traceHandler(rc.rec, spGateway, gw))
		if err != nil {
			return nil, err
		}
		topo.Shards[i].Addr = addr
	}

	// The router process: its own registry, ring-captured spans, shard
	// breakers and retry budget, as cmd/metasearch -route wires them.
	cl.routerReg = telemetry.NewRegistry()
	rt, err := router.New(topo, router.Options{
		Client:   &http.Client{Transport: traceTransport(rc.rec, spShardCall, transport())},
		Breakers: resilience.NewSet(resilience.BreakerOptions{}, cl.routerReg),
		Metrics:  cl.routerReg,
		Tracer:   telemetry.NewTracer(telemetry.NewRingCapture(0)),
		Budget:   resilience.NewBudget(resilience.BudgetOptions{Metrics: cl.routerReg}),
	})
	if err != nil {
		return nil, err
	}
	routed := traceSearcher(rc.rec, spRouter, rt, nil, false)
	gw := gateway.New(routed, gateway.Options{DefaultMaxDBs: k, DefaultPerDB: perDB, Metrics: cl.routerReg})
	addr, err := serve(traceHandler(rc.rec, spGateway, gw))
	if err != nil {
		return nil, err
	}
	cl.api = newAPIClient(rc.rec, addr, k, perDB)

	cl.hot = make(hotAnswers, len(wd.hot))
	for i, q := range wd.hot {
		reply, _, err := cl.api.search(0, q)
		if err != nil || len(reply.Selections) == 0 {
			rc.count(1, 1)
			continue
		}
		rc.count(1, 0)
		cl.hot[i] = answerOfReply(reply)
	}
	ok = true
	return cl, nil
}
