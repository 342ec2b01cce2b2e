package repro_test

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"strings"

	repro "repro"
	"repro/internal/classify"
	"repro/internal/hierarchy"
	"repro/internal/index"
	"repro/internal/synth"
)

// docs builds n documents, each minPhrases to minPhrases+3 phrases
// drawn at random.
func docs(rng *rand.Rand, phrases []string, n, minPhrases int) []string {
	out := make([]string, n)
	for i := range out {
		var sb strings.Builder
		for j := 0; j < minPhrases+rng.Intn(4); j++ {
			sb.WriteString(phrases[rng.Intn(len(phrases))])
			sb.WriteString(". ")
		}
		out[i] = sb.String()
	}
	return out
}

// Example is the quick start: metasearch over three small text
// databases on readable English text. It trains the probe classifier,
// registers the databases (one with a directory category, two
// classified by probing), builds shrinkage-based content summaries,
// selects databases for queries, and runs the full select → query →
// merge loop.
func Example() {
	topics := map[string][]string{
		"Heart": {
			"blood pressure measurements in hypertensive patients",
			"coronary artery disease and cholesterol levels",
			"cardiac surgery outcomes for valve replacement",
			"heart rate variability during exercise stress tests",
			"treatment of arrhythmia with beta blockers",
			"hypertension management and dietary sodium",
		},
		"Cancer": {
			"tumor growth rates under chemotherapy regimens",
			"breast cancer screening with mammography",
			"radiation therapy dosage for lymphoma patients",
			"oncology clinical trials for metastatic melanoma",
			"biopsy results and malignant cell classification",
			"survival rates after early tumor detection",
		},
		"Soccer": {
			"the striker scored a goal in the final minute",
			"the goalkeeper saved a penalty kick during the match",
			"midfield players controlled possession of the ball",
			"the league championship trophy ceremony",
			"offside decisions reviewed by the referee",
			"training drills for passing and dribbling",
		},
	}
	rng := rand.New(rand.NewSource(42))
	m := repro.New(repro.Options{
		SampleSize: 40, // tiny databases; sample most of them
		Scorer:     "cori",
		Seed:       7,
	})

	// Labeled example documents per category teach the classifier (the
	// role of directory-labeled pages in the paper).
	for _, topic := range []string{"Heart", "Cancer", "Soccer"} {
		if err := m.Train(topic, docs(rng, topics[topic], 30, 4)); err != nil {
			log.Fatal(err)
		}
	}
	for _, db := range []struct {
		name, topic, category string
		size                  int
	}{
		{"cardio.example", "Heart", "Heart", 120},
		{"oncology.example", "Cancer", "", 150},
		{"futbol.example", "Soccer", "", 100},
	} {
		local := m.NewLocalDatabase(db.name, docs(rng, topics[db.topic], db.size, 4))
		if err := m.AddDatabase(local, db.category); err != nil {
			log.Fatal(err)
		}
	}
	if err := m.BuildSummaries(); err != nil {
		log.Fatal(err)
	}

	for _, name := range []string{"cardio.example", "oncology.example", "futbol.example"} {
		info, err := m.Info(name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s classified %s, about %.0f docs (sampled %d)\n",
			info.Name, info.Category, info.EstimatedSize, info.SampleSize)
	}
	for _, q := range []string{"blood pressure hypertension", "tumor chemotherapy", "goal penalty match"} {
		sels, err := m.Select(q, 3)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[%s] ->", q)
		for _, s := range sels {
			mark := ""
			if s.Shrinkage {
				mark = "*" // scored with the shrunk summary
			}
			fmt.Printf(" %s%s (%.3g)", s.Database, mark, s.Score)
		}
		fmt.Println()
	}

	resp, err := m.Search(context.Background(), repro.SearchRequest{Query: "blood pressure hypertension", MaxDBs: 2, PerDB: 3})
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range resp.Results {
		fmt.Printf("%d. %s doc#%d (%.3f)\n", i+1, r.Database, r.DocID, r.Score)
	}
	// Output:
	// cardio.example classified Root→ Health→ Diseases→ Heart, about 105 docs (sampled 40)
	// oncology.example classified Root→ Health→ Diseases→ Cancer, about 153 docs (sampled 40)
	// futbol.example classified Root→ Sports→ Soccer, about 79 docs (sampled 40)
	// [blood pressure hypertension] -> cardio.example (0.438) oncology.example* (0.4) futbol.example* (0.4)
	// [tumor chemotherapy] -> oncology.example (0.448) cardio.example* (0.4) futbol.example* (0.4)
	// [goal penalty match] -> futbol.example (0.484) cardio.example* (0.4) oncology.example* (0.4)
	// 1. cardio.example doc#45 (1.000)
	// 2. cardio.example doc#101 (0.500)
	// 3. cardio.example doc#20 (0.333)
}

// Example_rareWord reproduces Example 1 of the paper: a rare but
// important word ("hemophilia" in PubMed) occurs in a fraction of a
// percent of a large database's documents. A 100-document sample
// almost surely misses it, so the unshrunk summary cannot route the
// query [hemophilia] to the database under bGlOSS, which has no
// smoothing; the shrunk summary recovers it from the topically related
// databases, which mention the word more prominently, as specialist
// sites would.
func Example_rareWord() {
	health := []string{
		"clinical treatment outcomes for chronic patients",
		"randomized trial of the new therapy protocol",
		"diagnosis guidelines for primary care physicians",
		"symptoms persisted after the medication course",
		"blood test results and laboratory reference ranges",
		"patient recovery rates across hospital cohorts",
		"dosage adjustment for pediatric cases",
		"epidemiology of the disease in urban populations",
	}
	sports := []string{
		"the team won the championship game decisively",
		"player statistics for the current season",
		"coach announced the starting lineup yesterday",
		"the stadium crowd celebrated the final score",
	}
	rng := rand.New(rand.NewSource(3))
	// healthDocs mentions the rare word in about rareFrac of the documents.
	healthDocs := func(n int, rareFrac float64) []string {
		out := docs(rng, health, n, 5)
		for i := range out {
			if rng.Float64() < rareFrac {
				out[i] += "management of hemophilia with clotting factor concentrate. "
			}
		}
		return out
	}
	m := repro.New(repro.Options{SampleSize: 100, Scorer: "bgloss", Seed: 11})
	pubmed := m.NewLocalDatabase("pubmed.example", healthDocs(4000, 0.005))
	for _, db := range []struct {
		db       *repro.LocalDatabase
		category string
	}{
		{pubmed, "Health"},
		{m.NewLocalDatabase("hematology.example", healthDocs(500, 0.3)), "Health"},
		{m.NewLocalDatabase("bloodcenter.example", healthDocs(400, 0.2)), "Health"},
		{m.NewLocalDatabase("espn.example", docs(rng, sports, 800, 5)), "Sports"},
	} {
		if err := m.AddDatabase(db.db, db.category); err != nil {
			log.Fatal(err)
		}
	}
	if err := m.BuildSummaries(); err != nil {
		log.Fatal(err)
	}

	truth, _ := pubmed.Query([]string{"hemophilia"}, 0)
	fmt.Printf("hemophilia is in %d of %d pubmed.example documents\n", truth, pubmed.NumDocs())
	sels, err := m.Select("hemophilia", 3)
	if err != nil {
		log.Fatal(err)
	}
	for i, s := range sels {
		via := ""
		if s.Shrinkage {
			via = " via shrinkage"
		}
		fmt.Printf("%d. %s%s\n", i+1, s.Database, via)
	}
	// Output:
	// hemophilia is in 27 of 4000 pubmed.example documents
	// 1. pubmed.example via shrinkage
	// 2. hematology.example
	// 3. bloodcenter.example
}

// Example_classifyByProbing shows probe-based database classification
// (the QProber technique the paper relies on for its TREC databases,
// Section 5.2): the classifier learns discriminative probe words per
// category from labeled examples, then classifies an unknown database
// from the match counts of its probes alone — no document is ever
// retrieved.
func Example_classifyByProbing() {
	tree := hierarchy.Default()
	gen, err := synth.NewGenerator(synth.Config{Tree: tree, Seed: 21})
	if err != nil {
		log.Fatal(err)
	}
	ts := &classify.TrainingSet{}
	rng := rand.New(rand.NewSource(5))
	for _, leaf := range tree.Leaves() {
		src := gen.NewDocSource(leaf, nil, rng)
		var buf []string
		for i := 0; i < 40; i++ {
			buf = src.GenDoc(rng, buf)
			ts.Add(leaf, buf)
		}
	}
	cls, err := classify.Train(tree, ts, classify.Options{})
	if err != nil {
		log.Fatal(err)
	}

	for _, name := range []string{"AIDS", "Soccer", "Economics", "Health"} {
		cat, _ := tree.Lookup(name)
		site, err := gen.NewPrivateVocab("site_")
		if err != nil {
			log.Fatal(err)
		}
		src := gen.NewDocSource(cat, site, rng)
		b := index.NewBuilder(400)
		var buf []string
		for i := 0; i < 400; i++ {
			buf = src.GenDoc(rng, buf)
			b.Add(buf)
		}
		// The classifier sees only MatchCount: the uncooperative-database
		// interface.
		fmt.Printf("generated under %s, classified as %s\n",
			tree.PathString(cat), tree.PathString(cls.Classify(b.Build())))
	}
	// Output:
	// generated under Root→ Health→ Diseases→ AIDS, classified as Root→ Health→ Diseases→ AIDS
	// generated under Root→ Sports→ Soccer, classified as Root→ Sports→ Soccer
	// generated under Root→ Science→ Social Sciences→ Economics, classified as Root→ Science→ Social Sciences→ Economics
	// generated under Root→ Health, classified as Root→ Health
}

// ExampleParseHierarchy shows loading a custom taxonomy, the value
// Options.Categories takes.
func ExampleParseHierarchy() {
	spec, err := repro.ParseHierarchy(strings.NewReader(`
Root
	Medicine
		Cardiology
	Sport
`))
	if err != nil {
		log.Fatal(err)
	}
	var walk func(c *repro.CategorySpec, depth int)
	walk = func(c *repro.CategorySpec, depth int) {
		fmt.Printf("%s%s\n", strings.Repeat("  ", depth), c.Name)
		for _, child := range c.Children {
			walk(child, depth+1)
		}
	}
	walk(spec, 0)
	// Output:
	// Root
	//   Medicine
	//     Cardiology
	//   Sport
}
