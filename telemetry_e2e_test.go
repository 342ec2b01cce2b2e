package repro

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/telemetry"
)

// testRingSize holds every span event of one test metasearcher's build
// and searches; spanRoot fails the test if a ring overflows.
const testRingSize = 1 << 14

// spanRoot rebuilds the spans ring holds for trace and returns its one
// root, which must be named name.
func spanRoot(t *testing.T, ring *telemetry.RingCapture, trace, name string) *telemetry.SpanNode {
	t.Helper()
	exp := ring.Export(telemetry.Identity{}, trace)
	if exp.Dropped > 0 {
		t.Fatalf("span ring dropped %d events; raise testRingSize", exp.Dropped)
	}
	tree := telemetry.BuildSpanTree(exp)
	if trace == "" || len(tree.Roots) != 1 || tree.Roots[0].Name != name {
		t.Fatalf("trace %q: roots %+v, want one %s span", trace, tree.Roots, name)
	}
	return tree.Roots[0]
}

// TestPipelineTraceEndToEnd asserts the span sequence one build+search
// emits: sample → classify → shrink under the build span, then
// select → search.db fan-out under the search span. The default
// sequential Parallelism makes the order deterministic.
func TestPipelineTraceEndToEnd(t *testing.T) {
	ring := telemetry.NewRingCapture(testRingSize)
	m := buildTestMetasearcher(t, Options{Seed: 70, Observer: ring})

	var buildTrace string
	for _, e := range ring.Events() {
		if e.Kind == telemetry.KindSpanStart && e.Name == "build" {
			buildTrace = e.Trace
			break
		}
	}
	build := spanRoot(t, ring, buildTrace, "build")
	var order []string
	counts := map[string]int{}
	for _, ch := range build.Children {
		order = append(order, ch.Name)
		counts[ch.Name]++
	}
	if counts["sample"] != 3 || counts["shrink"] != 3 {
		t.Errorf("build children = %v, want 3 sample + 3 shrink", order)
	}
	// Only "onco" is registered without a category, so exactly one
	// probe-classification span runs — after onco's sample span.
	if counts["classify"] != 1 {
		t.Errorf("build children = %v, want exactly 1 classify", order)
	}
	sawOncoSample := false
	for _, ch := range build.Children {
		db := ch.Attrs["db"]
		if ch.Name == "sample" && db == "onco" {
			sawOncoSample = true
		}
		if ch.Name == "classify" {
			if !sawOncoSample {
				t.Error("classify span started before onco's sample span")
			}
			if db != "onco" {
				t.Errorf("classify span for %v, want onco", db)
			}
		}
	}
	// Every shrink span follows every sample span (shrinkage needs all
	// category summaries first).
	lastSample, firstShrink := -1, len(order)
	for i, name := range order {
		if name == "sample" {
			lastSample = i
		}
		if name == "shrink" && i < firstShrink {
			firstShrink = i
		}
	}
	if firstShrink < lastSample {
		t.Errorf("shrink span before the last sample span: %v", order)
	}
	var shrink *telemetry.SpanNode
	for _, ch := range build.Children {
		if ch.Name == "shrink" && shrink == nil {
			shrink = ch
		}
	}
	if shrink == nil || len(shrink.Events) == 0 {
		t.Fatal("shrink span has no shrink.em event")
	}
	if shrink.Events[0].Name != "shrink.em" {
		t.Errorf("shrink event = %q, want shrink.em", shrink.Events[0].Name)
	}

	res, err := m.Search(context.Background(), SearchRequest{Query: "blood pressure hypertension", MaxDBs: 2, PerDB: 3})
	if err != nil {
		t.Fatal(err)
	}
	search := spanRoot(t, ring, res.TraceID, "search")
	if !search.Ended {
		t.Error("search span never ended")
	}
	var names []string
	for _, ch := range search.Children {
		names = append(names, ch.Name)
	}
	if len(names) < 2 || names[0] != "select" {
		t.Fatalf("search children = %v, want select first then search.db fan-out", names)
	}
	for _, name := range names[1:] {
		if name != "search.db" {
			t.Errorf("unexpected search child %q", name)
		}
	}
	sel := search.Children[0]
	if got, ok := sel.EndAttrs["selected"].(int64); !ok || got < 1 {
		t.Errorf("select span end attr selected = %v", sel.EndAttrs["selected"])
	}

	// The registry saw the same story.
	snap := m.Metrics().Snapshot()
	for name, want := range map[string]int64{
		"em_runs_total":         3,
		"build_runs_total":      1,
		"search_requests_total": 1,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if snap.Counters["sampling_queries_total"] == 0 {
		t.Error("sampling_queries_total stayed 0")
	}
	if snap.Counters["classify_probes_total"] == 0 {
		t.Error("classify_probes_total stayed 0")
	}
	if hist, ok := snap.Histograms["search_latency"]; !ok || hist.Count != 1 {
		t.Errorf("search_latency histogram = %+v (present %v), want count 1", hist, ok)
	}
	// Figure 3's signal, live: one σ/μ observation per adaptive decision
	// whose score rose above the baseline, and above 1 exactly where the
	// rule applied shrinkage.
	applied := snap.Counters["adaptive_shrinkage_applied_total"]
	decided := applied + snap.Counters["adaptive_shrinkage_skipped_total"]
	cv := snap.Histograms["adaptive_score_cv"]
	var above1 int64
	for i, n := range cv.Counts {
		if i >= len(cv.Bounds) || cv.Bounds[i] > 1 {
			above1 += n
		}
	}
	if decided == 0 || cv.Count == 0 || cv.Count > decided || above1 > applied {
		t.Errorf("adaptive_score_cv: %d observations (%d above 1) for %d decisions (%d applied)", cv.Count, above1, decided, applied)
	}
}

// TestSearchSkipsDeadDatabase exercises the graceful degradation of the
// fan-out: a selected database whose node does not answer is skipped
// (and counted) instead of failing the whole search, and the surviving
// databases still answer.
func TestSearchSkipsDeadDatabase(t *testing.T) {
	ring := telemetry.NewRingCapture(testRingSize)
	rng := rand.New(rand.NewSource(2))
	m := New(Options{Seed: 71, Observer: ring, SampleSize: 30})
	// Training extends the QBS seed lexicon with on-topic words (the
	// categories are fixed, so no probe classifier is needed).
	for _, topic := range topicOrder {
		if err := m.Train(topic, topicDocs(rng, topic, 20)); err != nil {
			t.Fatal(err)
		}
	}
	// Two databases share the Heart topic so a query that selects both
	// can still be answered when one goes dark.
	for _, db := range []struct {
		name string
		n    int
	}{{"cardio", 80}, {"cardio2", 60}} {
		if err := m.AddDatabase(NewLocalDatabaseFromTerms(db.name, analyzed(m, topicDocs(rng, "Heart", db.n))), "Heart"); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.AddDatabase(NewLocalDatabaseFromTerms("futbol", analyzed(m, topicDocs(rng, "Soccer", 70))), "Soccer"); err != nil {
		t.Fatal(err)
	}
	if err := m.BuildSummaries(); err != nil {
		t.Fatal(err)
	}
	// Kill the node behind one of the two Heart databases.
	m.update(func(cur *store) (*store, error) {
		dbs := append([]*registeredDB(nil), cur.dbs...)
		for i, r := range dbs {
			if r.src.Name == "cardio" {
				dead := *r
				dead.db = deadDB{r.db}
				dbs[i] = &dead
			}
		}
		return cur.withHandles(dbs), nil
	})
	results, err := m.Search(context.Background(), SearchRequest{Query: "blood pressure hypertension", MaxDBs: 2, PerDB: 5})
	if err != nil {
		t.Fatalf("Search with one dead database failed: %v", err)
	}
	if len(results.Results) == 0 {
		t.Fatal("no results from the surviving databases")
	}
	for _, r := range results.Results {
		if r.Database == "cardio" {
			t.Errorf("result from the dead database: %+v", r)
		}
	}
	if got := m.Metrics().Snapshot().Counters["search_db_unavailable_total"]; got != 1 {
		t.Errorf("search_db_unavailable_total = %d, want 1", got)
	}
	search := spanRoot(t, ring, results.TraceID, "search")
	found := false
	for _, e := range search.Events {
		if e.Name == "search.db_unavailable" {
			if db := e.Attrs["db"]; db != "cardio" {
				t.Errorf("search.db_unavailable for %v, want cardio", db)
			}
			found = true
		}
	}
	if !found {
		t.Error("no search.db_unavailable event on the search span")
	}
}

// deadDB is a remote database whose node no longer answers.
type deadDB struct{ SearchableDatabase }

var errNodeDown = errors.New("node down")

func (deadDB) QueryContext(context.Context, []string, int) (int, []int, error) {
	return 0, nil, errNodeDown
}

func (deadDB) FetchContext(context.Context, int) ([]string, error) { return nil, errNodeDown }
