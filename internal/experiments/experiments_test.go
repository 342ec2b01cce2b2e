package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/selection"
	"repro/internal/stats"
)

// Worlds are expensive to build; share them across tests.
var (
	webWorld  *World
	trecWorld *World
)

func getWebWorld(t testing.TB) *World {
	t.Helper()
	if webWorld == nil {
		w, err := BuildWorld(Web, TestScale())
		if err != nil {
			t.Fatal(err)
		}
		webWorld = w
	}
	return webWorld
}

func getTRECWorld(t testing.TB) *World {
	t.Helper()
	if trecWorld == nil {
		sc := TestScale()
		sc.Queries = 6
		w, err := BuildWorld(TREC4, sc)
		if err != nil {
			t.Fatal(err)
		}
		trecWorld = w
	}
	return trecWorld
}

func TestBuildWorldWeb(t *testing.T) {
	w := getWebWorld(t)
	sc := TestScale()
	wantDBs := 54*sc.WebPerLeaf + sc.WebExtra
	if len(w.Bed.Databases) != wantDBs {
		t.Errorf("databases = %d, want %d", len(w.Bed.Databases), wantDBs)
	}
	if len(w.Bed.Queries) != sc.Queries {
		t.Errorf("queries = %d", len(w.Bed.Queries))
	}
	if len(w.Truth) != wantDBs || len(w.Relevant) != sc.Queries {
		t.Error("ground truth incomplete")
	}
	// Each query has at least one relevant document somewhere.
	for qi, row := range w.Relevant {
		var total int
		for _, r := range row {
			total += r
		}
		if total == 0 {
			t.Errorf("query %d has no relevant documents", qi)
		}
	}
}

func TestBuildWorldTREC(t *testing.T) {
	w := getTRECWorld(t)
	if len(w.Bed.Databases) == 0 {
		t.Fatal("no databases")
	}
	if w.Bed.Name != "TREC4" {
		t.Errorf("bed name = %s", w.Bed.Name)
	}
	// TREC4-style queries are long.
	for _, q := range w.Bed.Queries {
		if len(q.Terms) < 8 {
			t.Errorf("query %d has %d terms, want >= 8", q.ID, len(q.Terms))
		}
	}
}

func TestBuildSummariesQBS(t *testing.T) {
	w := getWebWorld(t)
	sums, err := w.BuildSummaries(Config{Sampler: QBS})
	if err != nil {
		t.Fatal(err)
	}
	n := len(w.Bed.Databases)
	if len(sums.Unshrunk) != n || len(sums.Shrunk) != n {
		t.Fatal("summary slices wrong length")
	}
	for i := range w.Bed.Databases {
		un := sums.Unshrunk[i]
		if un.Len() == 0 {
			t.Errorf("db %d: empty unshrunk summary", i)
			continue
		}
		// Raw configuration: |D̂| = |S|.
		if un.NumDocs != float64(un.SampleSize) {
			t.Errorf("db %d: raw summary NumDocs %v != sample size %d", i, un.NumDocs, un.SampleSize)
		}
		// Web QBS classification is the directory's (true) one.
		if sums.Class[i] != w.Bed.Databases[i].Category {
			t.Errorf("db %d: class %v, want true category %v", i, sums.Class[i], w.Bed.Databases[i].Category)
		}
		if sums.SizeEst[i] < float64(un.SampleSize) {
			t.Errorf("db %d: size estimate %v below sample size", i, sums.SizeEst[i])
		}
		if sums.Gamma[i] >= 0 {
			t.Errorf("db %d: gamma %v, want negative", i, sums.Gamma[i])
		}
	}
}

func TestBuildSummariesFreqEst(t *testing.T) {
	w := getWebWorld(t)
	sums, err := w.BuildSummaries(Config{Sampler: QBS, FreqEst: true})
	if err != nil {
		t.Fatal(err)
	}
	// With frequency estimation the summary's size is the
	// sample-resample estimate, not |S|.
	larger := 0
	for i := range w.Bed.Databases {
		if sums.Unshrunk[i].NumDocs > float64(sums.Unshrunk[i].SampleSize) {
			larger++
		}
	}
	if larger < len(w.Bed.Databases)/2 {
		t.Errorf("only %d/%d databases got a size estimate above |S|", larger, len(w.Bed.Databases))
	}
}

func TestBuildSummariesFPSClassifiesReasonably(t *testing.T) {
	w := getWebWorld(t)
	sums, err := w.BuildSummaries(Config{Sampler: FPS})
	if err != nil {
		t.Fatal(err)
	}
	// FPS-derived classification should usually land on the true
	// category's root-path (exact or an ancestor).
	onPath := 0
	for i, db := range w.Bed.Databases {
		if w.Bed.Tree.IsAncestorOrSelf(sums.Class[i], db.Category) {
			onPath++
		}
	}
	if frac := float64(onPath) / float64(len(w.Bed.Databases)); frac < 0.6 {
		t.Errorf("FPS classification on true path for only %.0f%% of databases", 100*frac)
	}
}

func TestQualityShapes(t *testing.T) {
	// The headline content-summary result (Tables 4-7): shrinkage
	// raises recall and costs a little precision; unshrunk summaries
	// have perfect precision.
	w := getWebWorld(t)
	row, err := w.Quality(QBS, false)
	if err != nil {
		t.Fatal(err)
	}
	if row.WR.Shrunk <= row.WR.Unshrunk {
		t.Errorf("weighted recall: shrunk %v <= unshrunk %v", row.WR.Shrunk, row.WR.Unshrunk)
	}
	if row.UR.Shrunk <= row.UR.Unshrunk {
		t.Errorf("unweighted recall: shrunk %v <= unshrunk %v", row.UR.Shrunk, row.UR.Unshrunk)
	}
	if row.WP.Unshrunk != 1 || row.UP.Unshrunk != 1 {
		t.Errorf("unshrunk precision should be 1, got wp=%v up=%v", row.WP.Unshrunk, row.UP.Unshrunk)
	}
	if row.WP.Shrunk >= 1 || row.WP.Shrunk < 0.5 {
		t.Errorf("shrunk weighted precision = %v, want in [0.5, 1)", row.WP.Shrunk)
	}
	if row.WR.Unshrunk < 0.5 {
		t.Errorf("unshrunk weighted recall = %v, sampling looks broken", row.WR.Unshrunk)
	}
	if row.UR.Unshrunk > 0.95 {
		t.Errorf("unshrunk unweighted recall = %v; testbed too easy for the sparse-data problem", row.UR.Unshrunk)
	}
}

// shapeWorlds are the TestScale TREC testbeds the shape gate reads,
// built once.
var shapeWorlds = map[BedKind]*World{}

func getShapeWorld(t testing.TB, kind BedKind) *World {
	t.Helper()
	if shapeWorlds[kind] == nil {
		w, err := BuildWorld(kind, TestScale())
		if err != nil {
			t.Fatal(err)
		}
		shapeWorlds[kind] = w
	}
	return shapeWorlds[kind]
}

// TestSelectionAccuracyStrategies is the shape gate for Table 10 and
// Figures 4–5 (DESIGN §4's expected shape), asserted as orderings on
// the TestScale TREC4 and TREC6 testbeds under both samplers:
//
//   - Table 10: shrinkage fires at least as often for bGlOSS as for LM,
//     and more often for LM than for CORI, on every (testbed, sampler);
//     at least as often for bGlOSS on long-query TREC4 as on TREC6; and
//     CORI fires on no TREC4 query-database pair (Figure 4).
//   - Figure 5a (bGlOSS, TREC4, QBS): Shrinkage's mean Rk is above
//     Plain's, and Plain's R20 stays below 1.
//
// Ties occur at this scale (bGlOSS fires on every TREC4 pair), hence
// ≥ where the paper's columns can meet.
func TestSelectionAccuracyStrategies(t *testing.T) {
	scorers := []selection.Scorer{selection.BGloss{}, selection.LM{}, selection.CORI{}}
	rate := map[string]float64{} // "bed/sampler/algo" → Table 10 rate
	key := func(bed BedKind, s SamplerKind, algo string) string { return fmt.Sprintf("%v/%v/%s", bed, s, algo) }
	var fig5a []AccuracyResult // Shrinkage, Hierarchical, Plain
	for _, bed := range []BedKind{TREC4, TREC6} {
		w := getShapeWorld(t, bed)
		for _, sampler := range []SamplerKind{QBS, FPS} {
			sums, err := w.BuildSummaries(Config{Sampler: sampler, FreqEst: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, scorer := range scorers {
				res := w.SelectionAccuracy(sums, scorer, Shrinkage, MaxK)
				rate[key(bed, sampler, scorer.Name())] = res.ShrinkRate
			}
			if bed == TREC4 && sampler == QBS {
				fig5a = w.AccuracySweep(sums, selection.BGloss{}, MaxK)
			}
		}
	}
	t.Logf("Table 10 rates: %v", rate)
	t.Logf("Figure 5a mean Rk: Shrinkage %.3f, Plain %.3f (Plain R20 %.3f)",
		stats.Mean(fig5a[0].Rk), stats.Mean(fig5a[2].Rk), fig5a[2].Rk[MaxK-1])

	for _, bed := range []BedKind{TREC4, TREC6} {
		for _, sampler := range []SamplerKind{QBS, FPS} {
			bg, lm, cori := rate[key(bed, sampler, "bGlOSS")], rate[key(bed, sampler, "LM")], rate[key(bed, sampler, "CORI")]
			if !(bg >= lm && lm > cori) {
				t.Errorf("Table 10 %v/%v: rates bGlOSS %.3f, LM %.3f, CORI %.3f; want bGlOSS ≥ LM > CORI", bed, sampler, bg, lm, cori)
			}
		}
	}
	for _, sampler := range []SamplerKind{QBS, FPS} {
		if t4, t6 := rate[key(TREC4, sampler, "bGlOSS")], rate[key(TREC6, sampler, "bGlOSS")]; t4 < t6 {
			t.Errorf("Table 10 bGlOSS/%v: TREC4 rate %.3f below TREC6's %.3f", sampler, t4, t6)
		}
		if r := rate[key(TREC4, sampler, "CORI")]; r != 0 {
			t.Errorf("Figure 4: CORI shrank %.3f of the TREC4/%v pairs, want none", r, sampler)
		}
	}

	shrink, plain := fig5a[0], fig5a[2]
	for _, res := range fig5a {
		if len(res.Rk) != MaxK {
			t.Fatalf("%v Rk curve length = %d", res.Strategy, len(res.Rk))
		}
		for k, v := range res.Rk {
			if v < 0 || v > 1 {
				t.Errorf("%v R%d = %v out of range", res.Strategy, k+1, v)
			}
		}
	}
	if plain.ShrinkRate != 0 {
		t.Errorf("plain strategy reported shrinkage rate %v", plain.ShrinkRate)
	}
	if ms, mp := stats.Mean(shrink.Rk), stats.Mean(plain.Rk); ms <= mp {
		t.Errorf("Figure 5a: Shrinkage mean Rk %.3f not above Plain's %.3f", ms, mp)
	}
	if r20 := plain.Rk[MaxK-1]; r20 >= 1 {
		t.Errorf("Figure 5a: Plain R20 = %.3f, want its plateau below 1", r20)
	}
}

func TestAccuracySweepReturnsThreeStrategies(t *testing.T) {
	w := getTRECWorld(t)
	sums, err := w.BuildSummaries(Config{Sampler: QBS, FreqEst: true})
	if err != nil {
		t.Fatal(err)
	}
	res := w.AccuracySweep(sums, selection.BGloss{}, MaxK)
	if len(res) != 3 {
		t.Fatalf("sweep results = %d", len(res))
	}
	seen := map[Strategy]bool{}
	for _, r := range res {
		seen[r.Strategy] = true
		if r.Algo != "bGlOSS" {
			t.Errorf("algo = %s", r.Algo)
		}
	}
	if !seen[Plain] || !seen[Shrinkage] || !seen[Hierarchical] {
		t.Errorf("strategies missing: %v", seen)
	}
}

func TestKindAndConfigStrings(t *testing.T) {
	if Web.String() != "Web" || TREC4.String() != "TREC4" || TREC6.String() != "TREC6" {
		t.Error("BedKind strings wrong")
	}
	c := Config{Sampler: FPS, FreqEst: true, Run: 2}
	if c.String() != "FPS/freqest/run2" {
		t.Errorf("Config string = %s", c)
	}
	if Plain.String() != "Plain" || Shrinkage.String() != "Shrinkage" {
		t.Error("Strategy strings wrong")
	}
}

func TestReDDEAccuracy(t *testing.T) {
	w := getTRECWorld(t)
	sums, err := w.BuildSummaries(Config{Sampler: QBS, FreqEst: true, KeepSampleDocs: true})
	if err != nil {
		t.Fatal(err)
	}
	if sums.SampleDocs == nil {
		t.Fatal("sample docs not retained")
	}
	res, err := w.ReDDEAccuracy(sums, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Algo != "ReDDE" || res.SeriesLabel() != "QBS-ReDDE" {
		t.Errorf("labels = %s / %s", res.Algo, res.SeriesLabel())
	}
	for k, v := range res.Rk {
		if v < 0 || v > 1 {
			t.Errorf("R%d = %v", k+1, v)
		}
	}
	// Built without sample docs -> clear error.
	plain, err := w.BuildSummaries(Config{Sampler: QBS, FreqEst: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.ReDDEAccuracy(plain, 0, 5); err == nil {
		t.Error("missing sample docs accepted")
	}
}

// TestBuildSummariesParallelMatchesSequential: one worker and four
// build the same summaries — sampling, classification and the EM fits
// alike.
func TestBuildSummariesParallelMatchesSequential(t *testing.T) {
	w := getWebWorld(t)
	w1 := *w
	w1.Scale.Workers = 1
	seq, err := w1.BuildSummaries(Config{Sampler: QBS, FreqEst: true})
	if err != nil {
		t.Fatal(err)
	}
	w4 := *w
	w4.Scale.Workers = 4
	par, err := w4.BuildSummaries(Config{Sampler: QBS, FreqEst: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Bed.Databases {
		if seq.Class[i] != par.Class[i] || seq.SizeEst[i] != par.SizeEst[i] ||
			seq.Unshrunk[i].Len() != par.Unshrunk[i].Len() {
			t.Fatalf("db %d differs between sequential and parallel builds", i)
		}
		if a, b := seq.Shrunk[i].EMIterations(), par.Shrunk[i].EMIterations(); a != b {
			t.Fatalf("db %d: %d EM iterations sequentially, %d in parallel", i, a, b)
		}
		if a, b := seq.Shrunk[i].Lambdas(), par.Shrunk[i].Lambdas(); !reflect.DeepEqual(a, b) {
			t.Fatalf("db %d: λ %v sequentially, %v in parallel", i, a, b)
		}
	}
}

func TestCompareRk(t *testing.T) {
	w := getTRECWorld(t)
	sums, err := w.BuildSummaries(Config{Sampler: QBS, FreqEst: true})
	if err != nil {
		t.Fatal(err)
	}
	a := w.SelectionAccuracy(sums, selection.BGloss{}, Shrinkage, 5)
	b := w.SelectionAccuracy(sums, selection.BGloss{}, Plain, 5)
	if len(a.PerQueryMeanRk) != len(w.Bed.Queries) {
		t.Fatalf("per-query samples = %d", len(a.PerQueryMeanRk))
	}
	res, err := CompareRk(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0 || res.P > 1 {
		t.Errorf("p = %v", res.P)
	}
	// Self comparison: no difference.
	self, err := CompareRk(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if self.T != 0 || self.P != 1 {
		t.Errorf("self comparison t=%v p=%v", self.T, self.P)
	}
}
