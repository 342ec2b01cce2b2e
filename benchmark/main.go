// Command benchmark is the repo's benchmark: four workloads over one
// generated world, end-to-end metrics with regression bounds, and a
// per-layer trace taken at the interfaces the program already exports.
// README.md in this directory says why each workload was chosen and how
// a later change states a performance claim against it.
//
//	go run ./benchmark --workload select_cold --seed 1 --seconds 10 --trace 0
//	go run ./benchmark --seed 1                # every workload, both modes
//	go run ./benchmark --seed 1 --repeat-check # the whole set twice, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricSpec names one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen (unused per layer).
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them; README.md says what an "operation" is on each.
// The time-based bounds are the widest a bound may be: the sandbox this
// was sized on drifts between periods minutes long and 20–40 % apart,
// with a run-to-run spread of up to 8 % within one.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"mem_peak_mb", "MB", "lower", 0.15},
	{"rk1", "ratio", "higher", 0.02},
	{"rk5", "ratio", "higher", 0.02},
}

// perLayer is what one layer did. A workload reports 0 for a layer that
// is not on its path.
var perLayer = []metricSpec{
	{Name: "textproc.analyze_us", Unit: "us", Better: "lower"},
	{Name: "cache.result_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.selection_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.do_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.put_evict_ns", Unit: "ns", Better: "lower"},
	{Name: "selection.select_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "selection.select_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "selection.us_per_db", Unit: "us", Better: "lower"},
	{Name: "selection.alloc_kb_per_query", Unit: "KB", Better: "lower"},
	{Name: "selection.mallocs_per_query", Unit: "count", Better: "lower"},
	{Name: "selection.parallel_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "selection.lock_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "selection.score_cori_ns_per_db", Unit: "ns", Better: "lower"},
	{Name: "selection.score_bgloss_ns_per_db", Unit: "ns", Better: "lower"},
	{Name: "selection.score_lm_ns_per_db", Unit: "ns", Better: "lower"},
	{Name: "selection.mc_samples_per_query", Unit: "count", Better: "lower"},
	{Name: "selection.shrinkage_applied_ratio", Unit: "ratio", Better: "higher"},
	{Name: "selection.stage_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "summary.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "summary.encode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "summary.decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "core.shrunk_lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "core.shrink_ms_per_db", Unit: "ms", Better: "lower"},
	{Name: "core.em_iterations_per_db", Unit: "count", Better: "lower"},
	{Name: "sampling.queries_per_db", Unit: "count", Better: "lower"},
	{Name: "sampling.docs_per_db", Unit: "count", Better: "lower"},
	{Name: "sampling.db_wait_share", Unit: "ratio", Better: "lower"},
	{Name: "classify.probes_per_db", Unit: "count", Better: "lower"},
	{Name: "freqest.fit_us", Unit: "us", Better: "lower"},
	{Name: "repro.cache_stage_us_p50", Unit: "us", Better: "lower"},
	{Name: "repro.fanout_stage_us_p50", Unit: "us", Better: "lower"},
	{Name: "repro.merge_stage_us_p50", Unit: "us", Better: "lower"},
	{Name: "repro.self_us", Unit: "us", Better: "lower"},
	{Name: "repro.stage_sum_over_wall", Unit: "ratio", Better: "higher"},
	{Name: "repro.hedges_per_query", Unit: "count", Better: "lower"},
	{Name: "build.db_per_s", Unit: "1/s", Better: "higher"},
	{Name: "persist.save_s", Unit: "s", Better: "lower"},
	{Name: "persist.load_s", Unit: "s", Better: "lower"},
	{Name: "persist.state_mb", Unit: "MB", Better: "lower"},
	{Name: "index.search_us", Unit: "us", Better: "lower"},
	{Name: "index.sample_query_us", Unit: "us", Better: "lower"},
	{Name: "wire.server_self_us", Unit: "us", Better: "lower"},
	{Name: "wire.client_self_us", Unit: "us", Better: "lower"},
	{Name: "wire.calls_per_query", Unit: "count", Better: "lower"},
	{Name: "wire.retries_per_query", Unit: "count", Better: "lower"},
	{Name: "gateway.self_us", Unit: "us", Better: "lower"},
	{Name: "gateway.http_transport_us", Unit: "us", Better: "lower"},
	{Name: "gateway.reply_bytes", Unit: "bytes", Better: "lower"},
	{Name: "gateway.shed_total", Unit: "count", Better: "lower"},
	{Name: "router.self_us", Unit: "us", Better: "lower"},
	{Name: "router.shard_call_us_p50", Unit: "us", Better: "lower"},
	{Name: "router.shard_calls_per_query", Unit: "count", Better: "lower"},
	{Name: "router.straggler_gap_us", Unit: "us", Better: "lower"},
	{Name: "evtstream.ttff_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "evtstream.final_over_blocking", Unit: "ratio", Better: "lower"},
	{Name: "telemetry.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "client.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.failed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.window_spread", Unit: "ratio", Better: "lower"},
	{Name: "canary.cpu_ns", Unit: "ns", Better: "lower"},
	{Name: "canary.drift_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

// workloadSpec names one workload and why it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*runCtx) error
}

var workloads = []workloadSpec{
	{"select_cold", "caches off, in-process: selection over 118 summaries is the whole cost, so summary-store and lock changes show here and only here", runSelectCold},
	{"serve_warm", "every request a result-cache hit through a loopback gateway: textproc, cache, gateway, net/http and telemetry are the whole cost, selection none", runServeWarm},
	{"cluster_fanout", "router, 2 shards, 118 dbnodes on loopback with selection cached and results not: router, wire, index and merge do the work and the cache writes", runClusterFanout},
	{"build", "the offline pipeline (sample, classify, shrink, save, load): the construction side of the summaries the query workloads only read", runBuild},
}

// runCtx is one workload run's configuration and its growing result.
type runCtx struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	clients  int
	hot      int
	reps     int    // set-up repetitions whose median is setup_s
	wd       *world // prebuilt by a caller that runs several workloads in one process; nil = build benchScale
	outDir   string
	rec      *recorder // nil unless trace

	values    map[string]float64
	notes     []string
	problems  []string
	attempted int
	failed    int
}

func (rc *runCtx) set(name string, v float64) { rc.values[name] = v }

// world returns the generated inputs, building them unless the caller
// supplied them.
func (rc *runCtx) world() (*world, error) {
	if rc.wd != nil {
		return rc.wd, nil
	}
	return buildWorld(benchScale(), rc.hot)
}

// problem records a correctness failure; the run still finishes so the
// report says everything that is wrong.
func (rc *runCtx) problem(format string, args ...any) {
	rc.problems = append(rc.problems, fmt.Sprintf(format, args...))
}

func (rc *runCtx) note(format string, args ...any) {
	rc.notes = append(rc.notes, fmt.Sprintf(format, args...))
}

// count adds operations to the attempted/failed totals.
func (rc *runCtx) count(attempted, failed int) {
	rc.attempted += attempted
	rc.failed += failed
}

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func clientsFor(nproc int) int {
	if nproc < 2 {
		return 1
	}
	return 2
}

func main() {
	var (
		workload    = flag.String("workload", "all", "select_cold | serve_warm | cluster_fanout | build | all")
		seed        = flag.Int64("seed", 1, "seeds each workload's query order and popularity draws")
		seconds     = flag.Float64("seconds", 10, "length of one measured phase")
		trace       = flag.Int("trace", 0, "1: record spans at the layer boundaries and report the per-layer metrics instead of the end-to-end ones")
		out         = flag.String("out", "", "also write the report(s) to this file as JSON")
		repeatCheck = flag.Bool("repeat-check", false, "run the whole end-to-end set twice with one seed and fail unless the second agrees with the first within each metric's bound")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	dur := time.Duration(*seconds * float64(time.Second))

	if *workload == "all" {
		os.Exit(runAll(*seed, *seconds, *repeatCheck, *out))
	}
	var spec *workloadSpec
	for i := range workloads {
		if workloads[i].Name == *workload {
			spec = &workloads[i]
		}
	}
	if spec == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		os.Exit(2)
	}

	rc := newRunCtx(spec.Name, *seed, dur, *trace == 1)
	rep, err := execute(rc, spec, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", spec.Name, err)
		os.Exit(1)
	}
	if *out != "" {
		if err := writeOut(*out, rc, []*childRun{{Workload: spec.Name, Trace: *trace, Report: rep, Notes: rc.notes}}); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(1)
		}
	}
	line, _ := json.Marshal(rep)
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func newRunCtx(workload string, seed int64, dur time.Duration, trace bool) *runCtx {
	rc := &runCtx{
		workload: workload,
		seed:     seed,
		seconds:  dur,
		trace:    trace,
		clients:  clientsFor(runtime.NumCPU()),
		hot:      64,
		reps:     3,
		outDir:   filepath.Join("benchmark", "out"),
		values:   make(map[string]float64),
	}
	if trace {
		rc.rec = newRecorder()
		rc.reps = 1 // setup_s is an end-to-end metric; a traced run sets up once
	}
	return rc
}

// execute runs one workload between two canary timings and turns what
// it recorded into the report. Human-readable lines go to w.
func execute(rc *runCtx, spec *workloadSpec, w io.Writer) (*report, error) {
	before := canary()
	if err := spec.run(rc); err != nil {
		return nil, err
	}
	after := canary()
	drift := after / before
	rc.set("canary.cpu_ns", before)
	rc.set("canary.drift_ratio", drift)
	rc.set("mem_peak_mb", peakRSSMB())
	if rc.attempted > 0 {
		rc.set("client.failed_ratio", float64(rc.failed)/float64(rc.attempted))
	}
	if rc.failed > 0 {
		rc.problem("%d of %d operations failed", rc.failed, rc.attempted)
	}

	specs := endToEnd
	if rc.trace {
		specs = perLayer
	}
	rep := &report{
		Attempted: rc.attempted,
		Failed:    rc.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	for _, s := range specs {
		v := rc.values[s.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rc.problem("metric %s is not finite", s.Name)
			v = 0
		}
		rep.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
		fmt.Fprintf(w, "%s %s %.6g %s\n", rc.workload, s.Name, v, s.Unit)
	}
	rep.Correct = len(rc.problems) == 0
	for _, e := range environment(rc) {
		fmt.Fprintf(w, "# env %s=%s\n", e.Key, e.Value)
	}
	verdict := ""
	if math.Abs(drift-1) > 0.10 {
		verdict = " NOISY"
	}
	fmt.Fprintf(w, "# %s canary %.0f ns before, drift %.3f%s\n", rc.workload, before, drift, verdict)
	sort.Strings(rc.notes)
	for _, n := range rc.notes {
		fmt.Fprintf(w, "# %s %s\n", rc.workload, n)
	}
	for _, p := range rc.problems {
		fmt.Fprintf(w, "# %s INCORRECT: %s\n", rc.workload, p)
	}
	return rep, nil
}

// seedFor derives an independent stream from the run's seed.
func (rc *runCtx) seedFor(stream int64) int64 { return rc.seed*1_000_003 + stream }
