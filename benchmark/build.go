package main

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"repro"
)

// minBuildIterations is how many full pipelines a run times at least,
// whatever -seconds says: a median needs three.
const minBuildIterations = 3

// build: the paper's offline pipeline, over and over — a fresh
// metasearcher, every database registered, BuildSummaries (sample →
// classify → frequency estimation → EM shrinkage), SaveFile, LoadFile
// into another fresh metasearcher. It is the construction side of the
// summary store the query workloads only read, so a selection gain
// bought with slower building, a larger state file or a slower shard
// start-up shows here.
//
// An operation is one database taken through the whole pipeline:
// throughput_per_s is databases per second over all iterations,
// latency_p50_ms the median wall time of one iteration (samples to a
// loaded, servable store), latency_p95_ms the slowest iteration. The
// BuildSummaries step alone is build.db_per_s, per layer: it keeps both
// cores busy, and on a shared two-core machine that makes it the one
// figure here that swings by a third between runs.
func runBuild(rc *runCtx) error {
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

	// Set-up is what the pipeline needs before it can start: the
	// databases, indexed. It takes well under a second, so it is
	// repeated more often than the other workloads' set-ups; over three
	// repetitions its median moved by a quarter between runs.
	var locals []*repro.LocalDatabase
	var setups []float64
	for rep := 0; rep < 2*rc.reps+1; rep++ {
		t0 := time.Now()
		locals = wd.indexAll()
		setups = append(setups, time.Since(t0).Seconds())
	}
	rc.set("setup_s", median(setups))

	opts := wd.options(repro.CacheConfig{Disable: true})
	var built, loaded *repro.Metasearcher
	var buildS, saveS, loadS, iterMs []float64
	iterate := func(rec *recorder) error {
		t0 := time.Now()
		built = repro.New(opts)
		if err := wd.register(built, rec, locals); err != nil {
			return err
		}
		tBuild := time.Now()
		var endSpan func() int64
		if rec.enabled() {
			var ref spanRef
			ref, endSpan = rec.open(spBuild, spanRef{req: 1})
			rec.ambient.Store(ref)
		}
		err := built.BuildSummaries()
		if endSpan != nil {
			endSpan()
		}
		if err != nil {
			return err
		}
		buildS = append(buildS, time.Since(tBuild).Seconds())
		tSave := time.Now()
		if err := built.SaveFile(stateFile); err != nil {
			return err
		}
		saveS = append(saveS, time.Since(tSave).Seconds())
		tLoad := time.Now()
		loaded = repro.New(opts)
		if err := loaded.LoadFile(stateFile); err != nil {
			return err
		}
		loadS = append(loadS, time.Since(tLoad).Seconds())
		iterMs = append(iterMs, float64(time.Since(t0))/float64(time.Millisecond))
		rc.count(3, 0)
		return nil
	}

	want := minBuildIterations
	if rc.trace {
		want = 1
	}
	start := time.Now()
	for i := 0; i < want || (!rc.trace && time.Since(start) < rc.seconds); i++ {
		built, loaded = nil, nil // let the previous iteration's stores go
		if err := iterate(nil); err != nil {
			return err
		}
	}
	n := float64(len(wd.dbs))
	var totalMs float64
	for _, ms := range iterMs {
		totalMs += ms
	}
	rc.set("throughput_per_s", n*float64(len(iterMs))/(totalMs/1e3))
	rc.set("latency_p50_ms", median(iterMs))
	rc.set("latency_p95_ms", p95of(iterMs))
	rc.set("build.db_per_s", n/median(buildS))
	rc.set("persist.save_s", median(saveS))
	rc.set("persist.load_s", median(loadS))
	if fi, err := os.Stat(stateFile); err == nil {
		rc.set("persist.state_mb", float64(fi.Size())/(1<<20))
	}
	rc.note("build: %d iterations; BuildSummaries %.3f s, SaveFile %.3f s, LoadFile %.3f s (medians)",
		len(iterMs), median(buildS), median(saveS), median(loadS))

	// persisted ≡ built: the loaded store must rank exactly as the one
	// it was saved from. rk5 is scored on the loaded store.
	const k = 5
	check := len(wd.hot)
	if check > 16 {
		check = 16
	}
	hot := make(hotAnswers, len(wd.hot))
	for i, q := range wd.hot {
		sels, err := loaded.Select(q, k)
		if err != nil || len(sels) == 0 {
			rc.count(1, 1)
			continue
		}
		rc.count(1, 0)
		hot[i] = answer{sels: sels}
		if i < check {
			fromBuilt, err := built.Select(q, k)
			if err != nil || !reflect.DeepEqual(fromBuilt, sels) {
				rc.problem("hot query %d (%q): the loaded store selects differently from the built one", i, q)
			}
		}
	}
	rc.recordHot(wd, "loaded-select", hot)
	if !rc.trace {
		return nil
	}

	// One more iteration with the decorators recording every call the
	// sampler makes on a database.
	untraced := median(buildS)
	rc.rec.on.Store(true)
	err = iterate(rc.rec)
	rc.rec.on.Store(false)
	if err != nil {
		return err
	}
	traced := buildS[len(buildS)-1]
	rc.set("trace.overhead_ratio", traced/untraced)
	// Every iteration has a registry of its own, so these are exact
	// counts of one BuildSummaries.
	reg := built.Metrics()
	rc.set("sampling.queries_per_db", float64(reg.Counter("sampling_queries_total").Value())/n)
	rc.set("sampling.docs_per_db", float64(reg.Counter("sampling_docs_fetched_total").Value())/n)
	rc.set("classify.probes_per_db", float64(reg.Counter("classify_probes_total").Value())/n)
	if runs := reg.Counter("em_runs_total").Value(); runs > 0 {
		rc.set("core.em_iterations_per_db", float64(reg.Counter("em_iterations_total").Value())/float64(runs))
	}
	view := rc.finishTrace(rc.rec.take())
	var inDB float64
	for _, us := range append(view.durUs(spLocalQuery), view.durUs(spLocalFetch)...) {
		inDB += us
	}
	if wall := view.durUs(spBuild); len(wall) == 1 && wall[0] > 0 {
		// The sampler runs GOMAXPROCS databases at a time, so the time
		// available to wait in is workers × wall.
		rc.set("sampling.db_wait_share", inDB/(wall[0]*float64(runtime.GOMAXPROCS(0))))
	}
	rc.set("index.sample_query_us", median(view.durUs(spLocalQuery)))
	return drillBuildLayers(rc, wd)
}
