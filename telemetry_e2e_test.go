package repro

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/telemetry"
)

// TestPipelineTraceEndToEnd asserts the span sequence one build+search
// emits: sample → classify → shrink under the build span, then
// select → search.db fan-out under the search span. The default
// sequential Parallelism makes the order deterministic.
func TestPipelineTraceEndToEnd(t *testing.T) {
	cap := &telemetry.Capture{}
	m := buildTestMetasearcher(t, Options{Seed: 70, Observer: cap})

	build := cap.Find("build")
	if build == nil {
		t.Fatal("no build span recorded")
	}
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
		db := ch.Start.Attr("db")
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
	shrink := cap.Find("shrink")
	if shrink == nil || len(shrink.Events) == 0 {
		t.Fatal("shrink span has no shrink.em event")
	}
	if shrink.Events[0].Name != "shrink.em" {
		t.Errorf("shrink event = %q, want shrink.em", shrink.Events[0].Name)
	}

	cap.Reset()
	if _, err := m.Search(context.Background(), SearchRequest{Query: "blood pressure hypertension", MaxDBs: 2, PerDB: 3}); err != nil {
		t.Fatal(err)
	}
	search := cap.Find("search")
	if search == nil {
		t.Fatal("no search span recorded")
	}
	if !search.Ended() {
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
	if got, ok := sel.End.Attr("selected").(int64); !ok || got < 1 {
		t.Errorf("select span end attr selected = %v", sel.End.Attr("selected"))
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
	cap := &telemetry.Capture{}
	rng := rand.New(rand.NewSource(2))
	m := New(Options{Seed: 71, Observer: cap, SampleSize: 30})
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
		if err := m.AddDatabase(m.NewLocalDatabase(db.name, topicDocs(rng, "Heart", db.n)), "Heart"); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.AddDatabase(m.NewLocalDatabase("futbol", topicDocs(rng, "Soccer", 70)), "Soccer"); err != nil {
		t.Fatal(err)
	}
	if err := m.BuildSummaries(); err != nil {
		t.Fatal(err)
	}
	// Kill the node behind one of the two Heart databases.
	m.update(func(cur *store) (*store, error) {
		dbs := append([]*registeredDB(nil), cur.dbs...)
		for i, r := range dbs {
			if r.name == "cardio" {
				dead := *r
				dead.db = deadDB{r.db}
				dbs[i] = &dead
			}
		}
		return cur.withHandles(dbs), nil
	})
	cap.Reset()
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
	search := cap.Find("search")
	if search == nil {
		t.Fatal("no search span recorded")
	}
	found := false
	for _, e := range search.Events {
		if e.Name == "search.db_unavailable" {
			if db := e.Attr("db"); db != "cardio" {
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
