// Trecbench runs a miniature version of the paper's database selection
// accuracy experiment (Section 6.2) end to end: it generates a
// TREC4-style testbed of topically clustered databases with a long-query
// workload and exact relevance judgments, builds QBS summaries with
// frequency estimation, and compares the Rk curves of Plain,
// Hierarchical, and adaptive Shrinkage selection for a chosen scorer.
//
//	go run ./examples/trecbench [-scorer cori|bgloss|lm] [-full]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/experiments"
	"repro/internal/selection"
)

func main() {
	scorerName := flag.String("scorer", "cori", "selection algorithm: cori | bgloss | lm")
	full := flag.Bool("full", false, "paper-scale testbed (slower)")
	flag.Parse()

	scorer, err := selection.ByName(*scorerName)
	if err != nil {
		log.Fatal(err)
	}

	sc := experiments.TestScale()
	sc.TRECPool = 6000
	sc.TRECDatabases = 20
	sc.Queries = 15
	sc.SampleTarget = 120
	if *full {
		sc = experiments.DefaultScale()
	}

	fmt.Println("building TREC4-style testbed (clustered databases, long queries)...")
	w, err := experiments.BuildWorld(experiments.TREC4, sc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d databases, %d documents, %d queries\n\n",
		len(w.Bed.Databases), w.Bed.TotalDocs(), len(w.Bed.Queries))

	sums, err := w.BuildSummaries(experiments.Config{Sampler: experiments.QBS, FreqEst: true})
	if err != nil {
		log.Fatal(err)
	}

	maxK := 10
	results := []experiments.AccuracyResult{
		w.SelectionAccuracy(sums, scorer, experiments.Shrinkage, maxK),
		w.SelectionAccuracy(sums, scorer, experiments.Hierarchical, maxK),
		w.SelectionAccuracy(sums, scorer, experiments.Plain, maxK),
	}
	fmt.Println(experiments.FormatRkSeries(
		fmt.Sprintf("Rk for %s over the TREC4-style testbed (QBS summaries)", scorer.Name()),
		results))
	fmt.Printf("shrinkage applied for %.1f%% of query-database pairs\n", 100*results[0].ShrinkRate)
}
