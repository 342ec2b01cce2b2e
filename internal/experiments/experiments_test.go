package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/selection"
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

// smallRunner is the -scale small Runner every shape test shares, so
// each world, summary set and curve is built once for the package.
var smallRunner = &Runner{Scale: SmallScale(), MaxK: MaxK}

// checkShapes runs the shape check of each named section on smallRunner.
func checkShapes(t *testing.T, names ...string) {
	t.Helper()
	for _, name := range names {
		s, ok := Find(name)
		if !ok {
			t.Fatalf("no section %q", name)
		}
		if err := smallRunner.Shape(s); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestSectionShapes runs every section of cmd/experiments once at
// -scale small, checks that together they print docs/results-small.txt
// byte for byte, and then checks each section's shape: the direction of
// the paper's claim, or of a known deviation, that its numbers show.
func TestSectionShapes(t *testing.T) {
	var out bytes.Buffer
	for _, s := range Sections {
		if err := smallRunner.Run(s, &out); err != nil {
			t.Fatalf("%s: %v", s.Names[0], err)
		}
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "docs", "results-small.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("the sections no longer print docs/results-small.txt: run `make results-small` and review the diff")
	}
	for _, s := range Sections {
		checkShapes(t, s.Names[0])
	}
}

// TestQualityShapes checks the headline content-summary result (Tables
// 4-7) on the Web/QBS row: shrinkage raises recall and costs a little
// precision; unshrunk summaries have perfect precision.
func TestQualityShapes(t *testing.T) {
	checkShapes(t, "table 4", "table 5", "table 6", "table 7")
}

// TestSelectionAccuracyStrategies checks the selection-accuracy claims:
// Table 10's shrinkage rates order bGlOSS ≥ LM > CORI, CORI never
// shrinks on TREC4 (Figure 4), and Shrinkage beats Plain (Figure 5a).
func TestSelectionAccuracyStrategies(t *testing.T) {
	checkShapes(t, "table 10", "figure 4", "figure 5")
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
