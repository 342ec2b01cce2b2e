package main

import (
	"encoding/hex"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/telemetry"
)

// expectations holds the answer each pool query must keep giving. The
// hot pass fills the hot slots; any other query is pinned by its first
// reply, so a query that answers differently the second time fails.
type expectations struct {
	mu sync.Mutex
	d  map[int]digest
}

func newExpectations() *expectations { return &expectations{d: make(map[int]digest)} }

// check reports whether d is the answer already on record for query qi,
// recording it if it is the first.
func (e *expectations) check(qi int, d digest) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if want, ok := e.d[qi]; ok {
		return want == d
	}
	e.d[qi] = d
	return true
}

// hotAnswers is one plane's answers to the hot queries, in hot order.
type hotAnswers []answer

// recordHot scores the answers (rk1, rk5), stores their combined digest
// as a note, and returns the per-query digests.
func (rc *runCtx) recordHot(wd *world, plane string, as hotAnswers) []digest {
	ds := make([]digest, len(as))
	var rk1, rk5 float64
	for i, a := range as {
		ds[i] = a.digest(wd.hot[i])
		rk1 += wd.rk(i, a.sels, 1)
		rk5 += wd.rk(i, a.sels, 5)
		if len(a.sels) == 0 {
			rc.problem("%s: hot query %d (%q) selected no database", plane, i, wd.hot[i])
		}
	}
	if len(as) > 0 {
		rc.set("rk1", rk1/float64(len(as)))
		rc.set("rk5", rk5/float64(len(as)))
	}
	all := combineDigests(ds)
	rc.note("digest %s %s", plane, hex.EncodeToString(all[:]))
	return ds
}

// compareHot fails the run for every hot query on which two planes
// disagree.
func (rc *runCtx) compareHot(wd *world, a, b string, da, db []digest) {
	for i := range da {
		if i < len(db) && da[i] != db[i] {
			rc.problem("hot query %d (%q): %s and %s answers differ", i, wd.hot[i], a, b)
		}
	}
}

// setLoad reports the client-observed figures of one measured phase.
func (rc *runCtx) setLoad(st loadStats) {
	rc.set("throughput_per_s", st.QPS)
	rc.set("latency_p50_ms", st.P50ms)
	rc.set("latency_p95_ms", st.P95ms)
	rc.set("client.latency_p99_ms", st.P99ms)
	rc.set("loadgen.window_spread", st.Spread)
	rc.note("load: %d clients, %d samples in %d windows, window spread %.3f", rc.clients, st.Samples, st.Windows, st.Spread)
}

// measureFor is how long the closed loop runs: the whole of -seconds
// for an end-to-end run, a third of it for the untraced phase of a
// traced run (the rest goes to the replay and the layer drills).
func (rc *runCtx) measureFor() time.Duration {
	if rc.trace {
		return rc.seconds / 3
	}
	return rc.seconds
}

// permutation is a seeded order over n queries that several clients
// walk from evenly spaced starting points, so together they cover the
// pool before any query repeats.
type permutation struct {
	order   []int
	clients int
}

func newPermutation(n, clients int, seed int64) permutation {
	return permutation{order: rand.New(rand.NewSource(seed)).Perm(n), clients: clients}
}

func (p permutation) at(client, i int) int {
	n := len(p.order)
	return p.order[(client*n/p.clients+i)%n]
}

// counterSet snapshots named counters of some registries so a phase can
// be charged with exactly what it added.
type counterSet struct {
	regs []*telemetry.Registry
	base map[string]int64
}

func snapshotCounters(regs []*telemetry.Registry, names ...string) *counterSet {
	cs := &counterSet{regs: regs, base: make(map[string]int64)}
	for _, n := range names {
		cs.base[n] = cs.total(n)
	}
	return cs
}

func (cs *counterSet) total(name string) int64 {
	var v int64
	for _, r := range cs.regs {
		v += r.Counter(name).Value()
	}
	return v
}

// delta is what the counter gained since the snapshot, summed over the
// registries.
func (cs *counterSet) delta(name string) float64 { return float64(cs.total(name) - cs.base[name]) }

// hitRatio is hits / (hits + misses) of one cache tier over the phase.
func (cs *counterSet) hitRatio(tier string) float64 {
	h, m := cs.delta(tier+"_hits_total"), cs.delta(tier+"_misses_total")
	if h+m == 0 {
		return 0
	}
	return h / (h + m)
}

// cacheCounters are the series both tiers export.
var cacheCounters = []string{
	"result_cache_hits_total", "result_cache_misses_total",
	"selection_cache_hits_total", "selection_cache_misses_total",
}

// setStages turns the breakdowns the program reported for traced
// requests into the repro.* stage metrics. With gate set it fails the
// run unless the stages account for the searcher's wall time; the warm
// path does not gate, because there the program's own figure stops
// before its deferred metric and audit bookkeeping, which is then a
// large share of a few microseconds (the ratio is still reported).
func (rc *runCtx) setStages(recs []stageRecord, gate bool) {
	if len(recs) == 0 {
		return
	}
	var cache, sel, fan, merge, self []float64
	var sumStages, sumWall float64
	for _, r := range recs {
		st := r.stages
		total := st.Cache + st.Selection + st.Fanout + st.Merge
		wall := float64(r.wallNs) / 1e9
		cache = append(cache, st.Cache*1e6)
		sel = append(sel, st.Selection*1e3)
		fan = append(fan, st.Fanout*1e6)
		merge = append(merge, st.Merge*1e6)
		self = append(self, (wall-total)*1e6)
		sumStages += total
		sumWall += wall
	}
	rc.set("repro.cache_stage_us_p50", median(cache))
	rc.set("selection.stage_ms_p50", median(sel))
	rc.set("repro.fanout_stage_us_p50", median(fan))
	rc.set("repro.merge_stage_us_p50", median(merge))
	rc.set("repro.self_us", median(self))
	ratio := sumStages / sumWall
	rc.set("repro.stage_sum_over_wall", ratio)
	if gate && (ratio < 0.95 || ratio > 1.05) {
		rc.problem("stages sum to %.3f of the searcher's wall time; want 0.95–1.05", ratio)
	}
}

// p95of sorts a copy and takes its 95th percentile.
func p95of(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.95)
}

// nsPerOp calls fn (which performs ops operations per call) until at
// least 100 ms have passed and returns the mean nanoseconds per
// operation.
func nsPerOp(ops int, fn func()) float64 {
	const floor = 100 * time.Millisecond
	fn() // warm
	calls := 0
	start := time.Now()
	for time.Since(start) < floor {
		fn()
		calls++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls*ops)
}

// finishTrace writes the trace file and returns the spans indexed for
// the per-layer questions.
func (rc *runCtx) finishTrace(spans []span) *spanView {
	v := newSpanView(spans)
	if path, err := writeTrace(rc.outDir, rc.workload, spans); err != nil {
		rc.problem("writing trace: %v", err)
	} else {
		rc.note("trace: %d spans in %s", len(spans), path)
	}
	return v
}

// hasSelection is the per-reply acceptance test: no error and at least
// one database selected.
func hasSelection(resp *repro.SearchResponse, err error) bool {
	return err == nil && resp != nil && len(resp.Selections) > 0
}
