package main

import (
	"context"
	"runtime"
	"time"

	"repro"
	"repro/internal/gateway"
	"repro/internal/telemetry"
)

// What one REPL query asks for.
const selectK, selectPerDB = 5, 3

// select_cold: in-process SearchExplained with both cache tiers off,
// over local databases, k = 5, perdb = 3, walking a seeded permutation
// of the whole query pool. Selection (selection, summary, core) is more
// than 99 % of the wall time and cache, gateway, wire and router do
// nothing, so a change to the summary store or to the critical section
// under Metasearcher.mu shows here and only here.
func runSelectCold(rc *runCtx) error {
	const k, perDB = selectK, selectPerDB
	wd, err := rc.world()
	if err != nil {
		return err
	}

	// Set-up: index the databases, sample and shrink them.
	var m *repro.Metasearcher
	var setups []float64
	for rep := 0; rep < rc.reps; rep++ {
		t0 := time.Now()
		m = repro.New(wd.options(repro.CacheConfig{Disable: true}))
		if err := wd.register(m, rc.rec, wd.indexAll()); err != nil {
			return err
		}
		if err := m.BuildSummaries(); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rc.set("setup_s", median(setups))
	stages := &stageLog{}
	searcher := traceSearcher(rc.rec, spSearcher, m, stages, true)

	search := func(query string) (*repro.SearchResponse, error) {
		return searcher.SearchExplained(context.Background(), query, k, perDB)
	}

	// The hot pass doubles as warm-up: it fixes the answers, scores rk5,
	// and lets the heap reach its working size before anything is timed.
	expect := newExpectations()
	hot := make(hotAnswers, len(wd.hot))
	for i, q := range wd.hot {
		resp, err := search(q)
		if !hasSelection(resp, err) {
			rc.count(1, 1)
			continue
		}
		rc.count(1, 0)
		hot[i] = answerOf(resp)
		expect.check(i, hot[i].digest(q))
	}
	rc.recordHot(wd, "in-process", hot)

	counters := snapshotCounters([]*telemetry.Registry{m.Metrics()}, cacheCounters...)
	perm := newPermutation(len(wd.queries), rc.clients, rc.seedFor(1))
	load := closedLoop(rc.clients, rc.measureFor(), func(c, i int) bool {
		qi := perm.at(c, i)
		resp, err := search(wd.queries[qi])
		if !hasSelection(resp, err) {
			return false
		}
		return expect.check(qi, answerOf(resp).digest(wd.queries[qi]))
	})
	rc.count(load.attempted, load.failed)
	st := summarize(load.samples, load.elapsed)
	rc.setLoad(st)
	rc.set("cache.result_hit_ratio", counters.hitRatio("result_cache"))
	rc.set("cache.selection_hit_ratio", counters.hitRatio("selection_cache"))
	if r := counters.hitRatio("result_cache"); r != 0 {
		rc.problem("result-cache hit ratio %.3f on a workload that runs with caches off", r)
	}
	if !rc.trace {
		return nil
	}
	return traceSelectCold(rc, wd, m, searcher, stages, st)
}

// traceSelectCold is the per-layer half of select_cold: a one-client
// Select drill with exact allocation and Monte-Carlo counts, an
// untraced and a traced replay of the head of the pool, and direct
// calls into the scorers and the summary lookups.
func traceSelectCold(rc *runCtx, wd *world, m *repro.Metasearcher, searcher gateway.Searcher, stages *stageLog, st loadStats) error {
	const k, perDB = selectK, selectPerDB
	n := len(wd.hot)
	counters := snapshotCounters([]*telemetry.Registry{m.Metrics()},
		"adaptive_mc_samples_total", "adaptive_shrinkage_applied_total", "adaptive_shrinkage_skipped_total")
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	selMs, failed, _ := oneClient(n, func(i int) bool {
		sels, err := m.Select(wd.hot[i], k)
		return err == nil && len(sels) > 0
	})
	runtime.ReadMemStats(&after)
	rc.count(n, failed)
	rc.set("selection.select_ms_p50", percentile(selMs, 0.50))
	rc.set("selection.select_ms_p95", percentile(selMs, 0.95))
	var sum float64
	for _, ms := range selMs {
		sum += ms
	}
	if len(selMs) > 0 {
		rc.set("selection.us_per_db", sum/float64(len(selMs))*1e3/float64(len(wd.dbs)))
	}
	rc.set("selection.alloc_kb_per_query", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(n))
	rc.set("selection.mallocs_per_query", float64(after.Mallocs-before.Mallocs)/float64(n))
	rc.set("selection.mc_samples_per_query", counters.delta("adaptive_mc_samples_total")/float64(n))
	applied, skipped := counters.delta("adaptive_shrinkage_applied_total"), counters.delta("adaptive_shrinkage_skipped_total")
	if applied+skipped > 0 {
		rc.set("selection.shrinkage_applied_ratio", applied/(applied+skipped))
	}
	rc.set("selection.lock_wait_ms", st.P50ms-percentile(selMs, 0.50))

	// The same head of the pool, one client, untraced then traced.
	head := n
	if head > 32 {
		head = 32
	}
	replay := func(i int) bool {
		resp, err := searcher.SearchExplained(withSpan(context.Background(), spanRef{req: int64(i + 1)}), wd.hot[i], k, perDB)
		return hasSelection(resp, err)
	}
	plainMs, failed, wall := oneClient(head, replay)
	rc.count(head, failed)
	if one := float64(len(plainMs)) / wall.Seconds(); one > 0 {
		rc.set("selection.parallel_efficiency", st.QPS/(float64(rc.clients)*one))
	}
	rc.rec.on.Store(true)
	tracedMs, failed, _ := oneClient(head, replay)
	rc.rec.on.Store(false)
	rc.count(head, failed)
	if base := percentile(plainMs, 0.50); base > 0 {
		rc.set("trace.overhead_ratio", percentile(tracedMs, 0.50)/base)
	}
	rc.setStages(stages.recs, true)
	view := rc.finishTrace(rc.rec.take())
	rc.set("index.search_us", median(view.durUs(spLocalQuery)))

	return drillSelectionLayers(rc, wd)
}
