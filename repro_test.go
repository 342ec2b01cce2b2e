package repro

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"
)

// topicOrder fixes topic iteration order: a shared rng makes map-order
// iteration nondeterministic across runs.
var topicOrder = []string{"Heart", "Cancer", "Soccer"}

var testTopics = map[string][]string{
	"Heart": {
		"blood pressure hypertension cardiology artery",
		"cardiac valve surgery coronary bypass",
		"heart rate arrhythmia electrocardiogram monitoring",
	},
	"Cancer": {
		"tumor oncology chemotherapy radiation malignant",
		"biopsy carcinoma metastasis lymphoma screening",
		"melanoma leukemia remission survival prognosis",
	},
	"Soccer": {
		"goal penalty striker midfielder goalkeeper",
		"match league championship referee offside",
		"stadium supporters trophy tournament qualifier",
	},
}

func topicDocs(rng *rand.Rand, topic string, n int) []string {
	phrases := testTopics[topic]
	docs := make([]string, n)
	for i := range docs {
		var sb strings.Builder
		for j := 0; j < 3+rng.Intn(3); j++ {
			sb.WriteString(phrases[rng.Intn(len(phrases))])
			sb.WriteString(". ")
		}
		docs[i] = sb.String()
	}
	return docs
}

// buildTestMetasearcher assembles a small three-database system.
func buildTestMetasearcher(t *testing.T, opts Options) *Metasearcher {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	if opts.SampleSize == 0 {
		opts.SampleSize = 30
	}
	m := New(opts)
	for _, topic := range topicOrder {
		if err := m.Train(topic, topicDocs(rng, topic, 20)); err != nil {
			t.Fatal(err)
		}
	}
	add := func(name, topic, cat string, n int) {
		t.Helper()
		if err := m.AddDatabase(m.NewLocalDatabase(name, topicDocs(rng, topic, n)), cat); err != nil {
			t.Fatal(err)
		}
	}
	add("cardio", "Heart", "Heart", 80)
	add("onco", "Cancer", "", 90) // probe-classified
	add("futbol", "Soccer", "Soccer", 70)
	if err := m.BuildSummaries(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMetasearcherEndToEnd(t *testing.T) {
	m := buildTestMetasearcher(t, Options{Seed: 5})
	sels, err := m.Select("blood pressure hypertension", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sels) == 0 || sels[0].Database != "cardio" {
		t.Errorf("selection = %+v, want cardio first", sels)
	}
	sels, err = m.Select("tumor chemotherapy", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sels) == 0 || sels[0].Database != "onco" {
		t.Errorf("selection = %+v, want onco first", sels)
	}
}

func TestMetasearcherProbeClassification(t *testing.T) {
	m := buildTestMetasearcher(t, Options{Seed: 6})
	info, err := m.Info("onco")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(info.Category, "Cancer") && !strings.Contains(info.Category, "Health") {
		t.Errorf("onco classified as %q", info.Category)
	}
	if info.EstimatedSize < float64(info.SampleSize) {
		t.Errorf("size estimate %v below sample size %d", info.EstimatedSize, info.SampleSize)
	}
	if len(info.MixtureWeights) == 0 {
		t.Error("no mixture weights reported")
	}
	var sum float64
	for _, mw := range info.MixtureWeights {
		sum += mw.Weight
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("mixture weights sum to %v", sum)
	}
}

func TestMetasearcherScorers(t *testing.T) {
	for _, scorer := range []string{"cori", "bgloss", "lm"} {
		m := buildTestMetasearcher(t, Options{Seed: 7, Scorer: scorer})
		sels, err := m.Select("goal penalty match", 3)
		if err != nil {
			t.Fatalf("%s: %v", scorer, err)
		}
		if len(sels) == 0 {
			t.Fatalf("%s: nothing selected", scorer)
		}
		if sels[0].Database != "futbol" {
			t.Errorf("%s: top = %s, want futbol", scorer, sels[0].Database)
		}
	}
}

func TestMetasearcherErrors(t *testing.T) {
	m := New(Options{})
	if _, err := m.Select("x", 1); err == nil {
		t.Error("Select before BuildSummaries accepted")
	}
	if err := m.BuildSummaries(); err == nil {
		t.Error("BuildSummaries with no databases accepted")
	}
	if err := m.Train("NoSuchCategory", []string{"doc"}); err == nil {
		t.Error("unknown training category accepted")
	}
	if err := m.AddDatabase(NewLocalDatabaseFromTerms("d", [][]string{{"a"}}), "NoSuchCategory"); err == nil {
		t.Error("unknown database category accepted")
	}
	if err := m.AddDatabase(NewLocalDatabaseFromTerms("d", [][]string{{"a"}}), "Heart"); err != nil {
		t.Errorf("valid AddDatabase failed: %v", err)
	}
	if err := m.AddDatabase(NewLocalDatabaseFromTerms("d", [][]string{{"a"}}), "Heart"); err == nil {
		t.Error("duplicate database name accepted")
	}
	// Probe classification without training data must fail clearly.
	m2 := New(Options{})
	if err := m2.AddDatabase(NewLocalDatabaseFromTerms("x", [][]string{{"a"}}), ""); err != nil {
		t.Fatal(err)
	}
	if err := m2.BuildSummaries(); err == nil {
		t.Error("probe classification without Train accepted")
	}
	m3 := buildTestMetasearcher(t, Options{Seed: 9})
	if _, err := m3.Select("", 3); err == nil {
		t.Error("empty query accepted")
	}
	if _, err := m3.Info("nope"); err == nil {
		t.Error("Info on unknown database accepted")
	}
}

func TestMetasearcherCustomHierarchy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := New(Options{
		SampleSize: 25,
		Categories: &CategorySpec{
			Name: "Root",
			Children: []*CategorySpec{
				{Name: "Medicine", Children: []*CategorySpec{{Name: "Heart"}, {Name: "Cancer"}}},
				{Name: "Sport", Children: []*CategorySpec{{Name: "Soccer"}}},
			},
		},
	})
	if n := m.tree.Len(); n != 6 {
		t.Fatalf("hierarchy nodes = %d, want 6", n)
	}
	for _, topic := range topicOrder {
		if err := m.Train(topic, topicDocs(rng, topic, 15)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.AddDatabase(m.NewLocalDatabase("c1", topicDocs(rng, "Heart", 60)), "Heart"); err != nil {
		t.Fatal(err)
	}
	if err := m.AddDatabase(m.NewLocalDatabase("c2", topicDocs(rng, "Cancer", 60)), "Cancer"); err != nil {
		t.Fatal(err)
	}
	if err := m.BuildSummaries(); err != nil {
		t.Fatal(err)
	}
	sels, err := m.Select("tumor biopsy", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sels) == 0 || sels[0].Database != "c2" {
		t.Errorf("selection = %+v", sels)
	}
}

func TestLocalDatabase(t *testing.T) {
	db := NewLocalDatabaseFromTerms("test", [][]string{
		{"alpha", "beta"},
		{"alpha"},
	})
	if db.Name() != "test" || db.NumDocs() != 2 {
		t.Error("metadata wrong")
	}
	matches, ids := db.Query([]string{"alpha"}, 10)
	if matches != 2 || len(ids) != 2 {
		t.Errorf("Query = %d, %v", matches, ids)
	}
	doc := db.Fetch(ids[0])
	if len(doc) == 0 {
		t.Error("Fetch returned nothing")
	}
}

func TestDefaultLexiconIsStemmed(t *testing.T) {
	for _, w := range defaultLexicon() {
		if w == "people" { // stem of "people" is "peopl"
			t.Errorf("lexicon not stemmed: %q", w)
		}
	}
}

// TestUnknownScorerFailsClosed: a scorer name the library does not know
// — a typo, or a baseline that lives only in the experiment harness — is
// an error from every entry point that would rank with it, never a
// silent fall back to CORI.
func TestUnknownScorerFailsClosed(t *testing.T) {
	var saved bytes.Buffer
	if err := buildTestMetasearcher(t, Options{Seed: 40, Scorer: "BGloss"}).save(&saved); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"bglos", "okapi"} {
		m := New(Options{Seed: 40, SampleSize: 30, Scorer: name})
		if err := m.AddDatabase(m.NewLocalDatabase("cardio", topicDocs(rand.New(rand.NewSource(1)), "Heart", 20)), "Heart"); err != nil {
			t.Fatal(err)
		}
		_, selectErr := m.Select("blood pressure", 2)
		_, searchErr := m.Search(context.Background(), SearchRequest{Query: "blood pressure", MaxDBs: 2, PerDB: 3})
		for call, err := range map[string]error{
			"BuildSummaries": m.BuildSummaries(),
			"Load":           m.load(bytes.NewReader(saved.Bytes())),
			"Select":         selectErr,
			"Search":         searchErr,
		} {
			if err == nil || !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), "cori | bgloss | lm") {
				t.Errorf("Scorer %q: %s error = %v, want one naming the scorer and the choices", name, call, err)
			}
		}
	}
}

func TestMetasearcherParallelBuildMatchesSequential(t *testing.T) {
	seq := buildTestMetasearcher(t, Options{Seed: 50})
	par := buildTestMetasearcher(t, Options{Seed: 50, Parallelism: 4})
	for _, name := range []string{"cardio", "onco", "futbol"} {
		a, err := seq.Info(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := par.Info(name)
		if err != nil {
			t.Fatal(err)
		}
		if a.EstimatedSize != b.EstimatedSize || a.SummaryWords != b.SummaryWords || a.Category != b.Category {
			t.Errorf("%s differs: %+v vs %+v", name, a, b)
		}
	}
}

func TestParseHierarchy(t *testing.T) {
	spec, err := ParseHierarchy(strings.NewReader("Root\n\tMedicine\n\t\tHeart\n\tSport\n"))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "Root" || len(spec.Children) != 2 {
		t.Fatalf("spec = %+v", spec)
	}
	if spec.Children[0].Name != "Medicine" || spec.Children[0].Children[0].Name != "Heart" {
		t.Errorf("nested spec wrong: %+v", spec.Children[0])
	}
	m := New(Options{Categories: spec})
	if n := m.tree.Len(); n != 4 {
		t.Errorf("hierarchy nodes = %d", n)
	}
	if _, err := ParseHierarchy(strings.NewReader("")); err == nil {
		t.Error("empty taxonomy accepted")
	}
}

func TestMetasearcherAnalyzerToggles(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := New(Options{SampleSize: 25, KeepStopwords: true, NoStemming: true})
	for _, topic := range topicOrder {
		if err := m.Train(topic, topicDocs(rng, topic, 15)); err != nil {
			t.Fatal(err)
		}
	}
	// With stemming off, "goals" must NOT match documents containing
	// "goal": the raw surface forms differ.
	if err := m.AddDatabase(m.NewLocalDatabase("futbol", topicDocs(rng, "Soccer", 60)), "Soccer"); err != nil {
		t.Fatal(err)
	}
	if err := m.BuildSummaries(); err != nil {
		t.Fatal(err)
	}
	plural, err := m.Select("goals", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(plural) != 0 {
		t.Errorf("unstemmed metasearcher matched %v for [goals]", plural)
	}
	exact, err := m.Select("goal", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(exact) == 0 {
		t.Error("exact surface form not matched")
	}
	// Stopwords retained: "the" is indexable now.
	if _, err := m.Select("the", 1); err != nil {
		t.Errorf("stopword query rejected with KeepStopwords: %v", err)
	}
}
