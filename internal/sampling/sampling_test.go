package sampling

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/classify"
	"repro/internal/hierarchy"
	"repro/internal/index"
	"repro/internal/summary"
	"repro/internal/synth"
)

func testWorld(t testing.TB, seed int64) (*hierarchy.Tree, *synth.Generator) {
	t.Helper()
	tree := hierarchy.MustNew(hierarchy.Spec{
		Name: "Root",
		Children: []hierarchy.Spec{
			{Name: "Health", Children: []hierarchy.Spec{
				{Name: "Heart"}, {Name: "Cancer"},
			}},
			{Name: "Sports", Children: []hierarchy.Spec{
				{Name: "Soccer"}, {Name: "Tennis"},
			}},
		},
	})
	g, err := synth.NewGenerator(synth.Config{
		Tree:              tree,
		Seed:              seed,
		GlobalVocabSize:   600,
		CategoryVocabBase: 400,
		PrivateVocabSize:  60,
		DocLenMean:        60,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree, g
}

func buildDB(t testing.TB, g *synth.Generator, catName string, size int, seed int64) *index.Index {
	t.Helper()
	cat, ok := g.Tree().Lookup(catName)
	if !ok {
		t.Fatalf("no category %s", catName)
	}
	rng := rand.New(rand.NewSource(seed))
	priv, err := g.NewPrivateVocab("p_")
	if err != nil {
		t.Fatal(err)
	}
	src := g.NewDocSource(cat, priv, rng)
	b := index.NewBuilder(size)
	var buf []string
	for i := 0; i < size; i++ {
		buf = src.GenDoc(rng, buf)
		b.Add(buf)
	}
	return b.Build()
}

// seedLexicon returns head words of the global vocabulary, standing in
// for the English dictionary QBS bootstraps from.
func seedLexicon(g *synth.Generator, n int) []string {
	v := g.GlobalVocab()
	if n > v.Len() {
		n = v.Len()
	}
	out := make([]string, n)
	for i := range out {
		out[i] = v.Word(i)
	}
	return out
}

func TestQBSRequiresLexicon(t *testing.T) {
	_, g := testWorld(t, 1)
	db := buildDB(t, g, "Heart", 50, 2)
	if _, err := QBS(context.Background(), IndexSearcher{db}, QBSConfig{}); err == nil {
		t.Fatal("missing lexicon accepted")
	}
}

func TestQBSSamplesTargetDocs(t *testing.T) {
	_, g := testWorld(t, 2)
	db := buildDB(t, g, "Heart", 800, 3)
	s, err := QBS(context.Background(), IndexSearcher{db}, QBSConfig{
		TargetDocs:  100,
		SeedLexicon: seedLexicon(g, 100),
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Docs) != 100 {
		t.Errorf("sampled %d docs, want 100", len(s.Docs))
	}
	if s.Queries == 0 {
		t.Error("no queries recorded")
	}
	if len(s.QueryDF) == 0 {
		t.Error("no query match counts recorded")
	}
	if len(s.Checkpoints) == 0 {
		t.Error("no Mandelbrot checkpoints recorded")
	}
	last := s.Checkpoints[len(s.Checkpoints)-1]
	if last.Size != 100 {
		t.Errorf("terminal checkpoint size = %d", last.Size)
	}
	if last.Law.Alpha >= 0 {
		t.Errorf("fitted alpha = %v, want negative", last.Law.Alpha)
	}
}

func TestQBSNoDuplicateDocs(t *testing.T) {
	_, g := testWorld(t, 3)
	db := buildDB(t, g, "Soccer", 400, 4)
	s, err := QBS(context.Background(), IndexSearcher{db}, QBSConfig{
		TargetDocs:  150,
		SeedLexicon: seedLexicon(g, 100),
		Seed:        8,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The sample cannot exceed the database and QueryDF must hold true
	// df values for probed words.
	if len(s.Docs) > 400 {
		t.Errorf("sampled more docs than exist")
	}
	for w, m := range s.QueryDF {
		if got := db.DocFreq(w); got != m {
			t.Errorf("QueryDF[%s] = %d, true df = %d", w, m, got)
		}
	}
}

func TestQBSSmallDatabaseExhausts(t *testing.T) {
	_, g := testWorld(t, 4)
	db := buildDB(t, g, "Tennis", 25, 5)
	s, err := QBS(context.Background(), IndexSearcher{db}, QBSConfig{
		TargetDocs:  300,
		SeedLexicon: seedLexicon(g, 100),
		MaxBarren:   60,
		Seed:        9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Docs) == 0 {
		t.Fatal("nothing sampled from small database")
	}
	if len(s.Docs) > 25 {
		t.Errorf("sampled %d docs from a 25-doc database", len(s.Docs))
	}
}

func TestQBSEmptyDatabase(t *testing.T) {
	empty := index.NewBuilder(0).Build()
	_, g := testWorld(t, 5)
	s, err := QBS(context.Background(), IndexSearcher{empty}, QBSConfig{
		SeedLexicon: seedLexicon(g, 50),
		MaxBarren:   30,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Docs) != 0 {
		t.Errorf("sampled %d docs from empty database", len(s.Docs))
	}
}

func TestQBSDeterministic(t *testing.T) {
	_, g := testWorld(t, 6)
	db := buildDB(t, g, "Cancer", 300, 6)
	cfg := QBSConfig{TargetDocs: 80, SeedLexicon: seedLexicon(g, 100), Seed: 42}
	s1, err := QBS(context.Background(), IndexSearcher{db}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := QBS(context.Background(), IndexSearcher{db}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1.Docs) != len(s2.Docs) || s1.Queries != s2.Queries {
		t.Fatalf("nondeterministic sampling: %d/%d docs, %d/%d queries",
			len(s1.Docs), len(s2.Docs), s1.Queries, s2.Queries)
	}
}

func TestQBSSampleMissesRareWords(t *testing.T) {
	// The sparse-data problem the paper is built on: a 100-doc sample of
	// a 1000-doc database misses a substantial part of the vocabulary.
	_, g := testWorld(t, 7)
	db := buildDB(t, g, "Heart", 1000, 7)
	s, err := QBS(context.Background(), IndexSearcher{db}, QBSConfig{
		TargetDocs:  100,
		SeedLexicon: seedLexicon(g, 100),
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := summary.FromSample(s.Docs)
	truth := summary.FromIndex(db)
	missing := 0
	for w := range truth.Words {
		if !sum.Contains(w) {
			missing++
		}
	}
	frac := float64(missing) / float64(truth.Len())
	if frac < 0.10 {
		t.Errorf("sample missed only %.1f%% of vocabulary; testbed too easy", 100*frac)
	}
}

func trainClassifier(t testing.TB, tree *hierarchy.Tree, g *synth.Generator) *classify.Classifier {
	t.Helper()
	ts := &classify.TrainingSet{}
	rng := rand.New(rand.NewSource(99))
	for _, leaf := range tree.Leaves() {
		src := g.NewDocSource(leaf, nil, rng)
		var buf []string
		for i := 0; i < 50; i++ {
			buf = src.GenDoc(rng, buf)
			ts.Add(leaf, buf)
		}
	}
	c, err := classify.Train(tree, ts, classify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFPSRequiresClassifier(t *testing.T) {
	_, g := testWorld(t, 8)
	db := buildDB(t, g, "Heart", 50, 2)
	if _, _, err := FPS(context.Background(), IndexSearcher{db}, FPSConfig{}); err == nil {
		t.Fatal("missing classifier accepted")
	}
}

func TestFPSSamplesAndClassifies(t *testing.T) {
	tree, g := testWorld(t, 9)
	c := trainClassifier(t, tree, g)
	db := buildDB(t, g, "Heart", 600, 11)
	s, cat, err := FPS(context.Background(), IndexSearcher{db}, FPSConfig{Classifier: c})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Docs) == 0 {
		t.Fatal("FPS sampled nothing")
	}
	heart, _ := tree.Lookup("Heart")
	health, _ := tree.Lookup("Health")
	if cat != heart && cat != health {
		t.Errorf("classified under %s, want Heart (or its parent)", tree.Node(cat).Name)
	}
	if len(s.Checkpoints) == 0 {
		t.Error("no checkpoints recorded")
	}
}

func TestFPSFocusesQueriesOnTopic(t *testing.T) {
	// FPS should issue more probes for the database's topic subtree
	// than for unrelated subtrees: probing only recurses where matches
	// are generated. We check via the sample's topical composition.
	tree, g := testWorld(t, 10)
	c := trainClassifier(t, tree, g)
	db := buildDB(t, g, "Soccer", 600, 12)
	s, _, err := FPS(context.Background(), IndexSearcher{db}, FPSConfig{Classifier: c})
	if err != nil {
		t.Fatal(err)
	}
	// Every probed word with a positive match count must exist in db.
	for w, m := range s.QueryDF {
		if m != db.DocFreq(w) {
			t.Errorf("QueryDF[%s] = %d, want %d", w, m, db.DocFreq(w))
		}
	}
}

func TestFPSEmptyDatabaseClassifiesAtRoot(t *testing.T) {
	tree, g := testWorld(t, 11)
	c := trainClassifier(t, tree, g)
	empty := index.NewBuilder(0).Build()
	s, cat, err := FPS(context.Background(), IndexSearcher{empty}, FPSConfig{Classifier: c})
	if err != nil {
		t.Fatal(err)
	}
	if cat != hierarchy.Root {
		t.Errorf("empty database classified under %v", cat)
	}
	if len(s.Docs) != 0 {
		t.Error("sampled docs from empty database")
	}
}

func TestIndexSearcherAdapters(t *testing.T) {
	b := index.NewBuilder(2)
	b.Add([]string{"a", "b"})
	b.Add([]string{"a"})
	ix := b.Build()
	s := IndexSearcher{ix}
	ctx := context.Background()
	matches, ids, err := s.Query(ctx, []string{"a"}, 10)
	if err != nil || matches != 2 || len(ids) != 2 {
		t.Errorf("Query = %d matches, %d ids, err %v", matches, len(ids), err)
	}
	if got := s.MatchCount([]string{"b"}); got != 1 {
		t.Errorf("MatchCount = %d", got)
	}
	doc, err := s.Fetch(ctx, ids[0])
	if err != nil || len(doc) == 0 {
		t.Errorf("Fetch = %v, err %v", doc, err)
	}
}

// flakySearcher fails every n-th Query with a transient error.
type flakySearcher struct {
	Searcher
	n     int
	calls int
	fails int
}

func (f *flakySearcher) Query(ctx context.Context, terms []string, limit int) (int, []index.DocID, error) {
	f.calls++
	if f.calls%f.n == 0 {
		f.fails++
		return 0, nil, errors.New("transient node failure")
	}
	return f.Searcher.Query(ctx, terms, limit)
}

func TestQBSSurvivesTransientQueryFailures(t *testing.T) {
	_, g := testWorld(t, 34)
	db := buildDB(t, g, "Cancer", 500, 35)
	flaky := &flakySearcher{Searcher: IndexSearcher{db}, n: 4} // 25% failure
	s, err := QBS(context.Background(), flaky, QBSConfig{
		TargetDocs:  80,
		SeedLexicon: seedLexicon(g, 100),
		Seed:        6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if flaky.fails == 0 {
		t.Fatal("no failures injected")
	}
	if len(s.Docs) != 80 {
		t.Errorf("sampled %d docs despite retries available, want 80", len(s.Docs))
	}
}

func BenchmarkQBS(b *testing.B) {
	_, g := testWorld(b, 12)
	db := buildDB(b, g, "Heart", 1000, 13)
	lex := seedLexicon(g, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := QBS(context.Background(), IndexSearcher{db}, QBSConfig{
			TargetDocs: 100, SeedLexicon: lex, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestQBSResampleProbes(t *testing.T) {
	_, g := testWorld(t, 20)
	db := buildDB(t, g, "Heart", 500, 21)
	s, err := QBS(context.Background(), IndexSearcher{db}, QBSConfig{
		TargetDocs:     60,
		SeedLexicon:    seedLexicon(g, 100),
		ResampleProbes: 5,
		Seed:           22,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.ResampleDF) != 5 {
		t.Fatalf("resample probes = %d, want 5", len(s.ResampleDF))
	}
	for w, df := range s.ResampleDF {
		if got := db.DocFreq(w); got != df {
			t.Errorf("ResampleDF[%s] = %d, true df %d", w, df, got)
		}
		// Resample words are frequent sample words (that is the point).
		if df < 2 {
			t.Errorf("resample word %s has df %d; expected a frequent word", w, df)
		}
	}
}

func TestFPSResampleProbes(t *testing.T) {
	tree, g := testWorld(t, 23)
	c := trainClassifier(t, tree, g)
	db := buildDB(t, g, "Cancer", 400, 24)
	s, _, err := FPS(context.Background(), IndexSearcher{db}, FPSConfig{Classifier: c, ResampleProbes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Docs) == 0 {
		t.Skip("FPS sampled nothing for this seed")
	}
	if len(s.ResampleDF) != 4 {
		t.Fatalf("resample probes = %d, want 4", len(s.ResampleDF))
	}
}

func TestQBSExactTargetNoOvershoot(t *testing.T) {
	_, g := testWorld(t, 25)
	db := buildDB(t, g, "Soccer", 600, 26)
	for _, target := range []int{37, 50, 99} {
		s, err := QBS(context.Background(), IndexSearcher{db}, QBSConfig{
			TargetDocs:  target,
			SeedLexicon: seedLexicon(g, 100),
			Seed:        int64(target),
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Docs) != target {
			t.Errorf("target %d: sampled %d", target, len(s.Docs))
		}
	}
}
