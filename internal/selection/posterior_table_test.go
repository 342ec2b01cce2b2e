package selection_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/selection"
)

// TestPosteriorTableMatchesFill: the posterior Derive tabulates per
// database, and each seen word's posterior formed from it, are the ones
// computing grid and logarithms per (word, database) pair gives, bit for
// bit — over every database of a seeded Web and a seeded TREC4 world and
// every s_k ∈ 0..|S| — so selection decisions, their audit trail and
// rankings cannot move. Large databases check the Beta limit.
func TestPosteriorTableMatchesFill(t *testing.T) {
	for _, kind := range []experiments.BedKind{experiments.Web, experiments.TREC4} {
		w, err := experiments.BuildWorld(kind, experiments.TestScale())
		if err != nil {
			t.Fatal(err)
		}
		sums, err := w.BuildSummaries(experiments.Config{Sampler: experiments.QBS, FreqEst: true})
		if err != nil {
			t.Fatal(err)
		}
		q := w.Bed.Queries[0].Terms
		entries := make([]selection.Entry, len(sums.DBs))
		for i, db := range sums.DBs {
			entries[i] = selection.Entry{Name: db.Name, View: db.Unshrunk}
		}
		ctx := selection.NewContext(q, entries, sums.Root)
		for _, db := range sums.DBs {
			selection.CheckTableMatchesFill(t, db, selection.UniqueWords(q), ctx)
		}
	}
	selection.CheckLargeTables(t)
}
