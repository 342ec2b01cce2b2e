package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"time"

	"repro"
	"repro/internal/gateway"
	"repro/internal/telemetry"
)

// serve_warm: a real gateway on a loopback listener over one
// metasearcher with both cache tiers on and no expiry, the hot queries
// answered once during set-up, then Zipf(1.1) draws over them through
// one keep-alive http.Client. Every measured request is a result-tier
// hit, so textproc, cache, gateway (parse, admission, JSON encode),
// net/http and the telemetry/audit hot path are the whole cost;
// selection contributes only to setup_s.
func runServeWarm(rc *runCtx) error {
	const k, perDB = 5, 3
	wd, err := rc.world()
	if err != nil {
		return err
	}

	type plane struct {
		m      *repro.Metasearcher
		locals []*repro.LocalDatabase
		ln     *listener
		api    *apiClient
		hot    hotAnswers
	}
	stages := &stageLog{}
	setUp := func() (*plane, error) {
		p := &plane{locals: wd.indexAll()}
		p.m = repro.New(wd.options(repro.CacheConfig{Size: 1024, TTL: -1, ResultTTL: -1}))
		if err := wd.register(p.m, rc.rec, p.locals); err != nil {
			return nil, err
		}
		if err := p.m.BuildSummaries(); err != nil {
			return nil, err
		}
		searcher := traceSearcher(rc.rec, spSearcher, p.m, stages, true)
		gw := gateway.New(searcher, gateway.Options{DefaultMaxDBs: k, DefaultPerDB: perDB, Metrics: p.m.Metrics()})
		if p.ln, err = listen(traceHandler(rc.rec, spGateway, gw)); err != nil {
			return nil, err
		}
		p.api = newAPIClient(rc.rec, p.ln.addr, k, perDB)
		// Pre-warm in process: these cold answers are the reference the
		// gateway's replies must equal.
		p.hot = make(hotAnswers, len(wd.hot))
		for i, q := range wd.hot {
			resp, err := p.m.SearchExplained(context.Background(), q, k, perDB)
			if !hasSelection(resp, err) {
				rc.count(1, 1)
				continue
			}
			rc.count(1, 0)
			p.hot[i] = answerOf(resp)
		}
		return p, nil
	}
	tearDown := func(p *plane) {
		p.api.close()
		p.ln.stop()
	}

	var p *plane
	var setups []float64
	for rep := 0; rep < rc.reps; rep++ {
		if p != nil {
			tearDown(p)
		}
		t0 := time.Now()
		if p, err = setUp(); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer tearDown(p)
	rc.set("setup_s", median(setups))

	// remote ≡ in-process: every hot query once through the gateway.
	want := rc.recordHot(wd, "in-process", p.hot)
	viaGateway := make(hotAnswers, len(wd.hot))
	var replyBytes float64
	for i, q := range wd.hot {
		reply, n, err := p.api.search(0, q)
		if err != nil || len(reply.Selections) == 0 {
			rc.count(1, 1)
			continue
		}
		rc.count(1, 0)
		viaGateway[i] = answerOfReply(reply)
		replyBytes += float64(n)
	}
	got := rc.recordHot(wd, "gateway", viaGateway)
	rc.compareHot(wd, "in-process", "gateway", want, got)
	rc.set("gateway.reply_bytes", replyBytes/float64(len(wd.hot)))

	// Popularity: Zipf(1.1) ranks over a seeded shuffle of the hot set,
	// so which query is the most popular depends on the seed.
	rank := rand.New(rand.NewSource(rc.seedFor(1))).Perm(len(wd.hot))
	draws := make([]*rand.Zipf, rc.clients)
	for c := range draws {
		draws[c] = rand.NewZipf(rand.New(rand.NewSource(rc.seedFor(int64(2+c)))), 1.1, 1, uint64(len(wd.hot)-1))
	}
	marker := []byte(`"result_hit":true`)
	issue := func(c, i int) bool {
		qi := rank[draws[c].Uint64()]
		body, err := p.api.get(0, wd.hot[qi])
		if err != nil || !bytes.Contains(body, marker) {
			return false
		}
		// Decoding every reply would cost the client more than the
		// server spends answering; one in 32 is checked in full.
		if i%32 != 0 {
			return true
		}
		var reply gateway.SearchReply
		if err := json.Unmarshal(body, &reply); err != nil {
			return false
		}
		return answerOfReply(&reply).digest(wd.hot[qi]) == want[qi]
	}
	regs := []*telemetry.Registry{p.m.Metrics()}
	counters := snapshotCounters(regs, append([]string{"gateway_shed_total"}, cacheCounters...)...)
	load := closedLoop(rc.clients, rc.measureFor(), issue)
	rc.count(load.attempted, load.failed)
	rc.setLoad(summarize(load.samples, load.elapsed))
	hit := counters.hitRatio("result_cache")
	rc.set("cache.result_hit_ratio", hit)
	rc.set("cache.selection_hit_ratio", counters.hitRatio("selection_cache"))
	rc.set("gateway.shed_total", counters.delta("gateway_shed_total"))
	if hit < 0.99 {
		rc.problem("result-cache hit ratio %.4f; the warm workload needs ≥ 0.99", hit)
	}
	if !rc.trace {
		return nil
	}

	// One client over a fixed draw sequence, untraced then traced.
	replaySeq := rand.NewZipf(rand.New(rand.NewSource(rc.seedFor(9))), 1.1, 1, uint64(len(wd.hot)-1))
	const replayN = 2000
	seq := make([]int, replayN)
	for i := range seq {
		seq[i] = rank[replaySeq.Uint64()]
	}
	replay := func(i int) bool {
		body, err := p.api.get(int64(i+1), wd.hot[seq[i]])
		return err == nil && bytes.Contains(body, marker)
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
	rc.setStages(stages.recs, false)
	view := rc.finishTrace(rc.rec.take())
	rc.set("gateway.self_us", median(view.selfUs(spGateway)))
	rc.set("gateway.http_transport_us", median(view.selfUs(spClient)))

	drillTextproc(rc, wd)
	drillCacheHit(rc)
	return drillTelemetry(rc, wd, p.locals, p.m, k, perDB)
}
