package selection

import (
	"runtime"

	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/pool"
	"repro/internal/summary"
	"repro/internal/telemetry"
)

// Source is one classified database as the offline phase hands it to
// Derive, with the Appendix B statistics of its sample: the
// sample–resample size estimate |D̂| and the power-law exponent γ.
type Source struct {
	core.Classified
	Size, Gamma float64
}

// Derived is the offline phase's result over one summary set (§3.2):
// everything Figure 3 reads at query time, never modified once built.
type Derived struct {
	Cats   *core.CategorySummaries // Definition 3's category summaries
	Root   *summary.Summary        // Cats' root, materialised once: the LM scorer's global model
	Shrunk []*core.ShrunkSummary   // R̂(D) per source, in source order
	DBs    []*DB                   // Figure 3's inputs per source, posterior tables included, in source order
}

// Derive is the one offline derivation, shared by the metasearcher's
// store and the evaluation harness: it aggregates the sources into
// category summaries under weighting, then fits every database's λ by
// Figure 2's EM, shrinks it and tabulates the query-independent part of
// its Appendix B posterior (dfTable), one database per task into its own
// slot. Both passes run on GOMAXPROCS workers and keep the order of
// every float sum (see core.BuildCategorySummaries), so the result is
// bit-identical at any worker count. Each fit runs under a "shrink"
// child of span (db attribute, EM iterations at its end); EM and pool
// series go to reg. Both may be nil.
func Derive(tree *hierarchy.Tree, sources []Source, weighting core.Weighting, span *telemetry.Span, reg *telemetry.Registry) *Derived {
	classified := make([]core.Classified, len(sources))
	for i, s := range sources {
		classified[i] = s.Classified
	}
	d := &Derived{
		Cats:   core.BuildCategorySummaries(tree, classified, weighting),
		Shrunk: make([]*core.ShrunkSummary, len(sources)),
		DBs:    make([]*DB, len(sources)),
	}
	d.Root = d.Cats.Summary(hierarchy.Root)
	pool.ForEach(len(sources), runtime.GOMAXPROCS(0), reg, func(i int) error {
		s := sources[i]
		shrinkSpan := span.Child("shrink", telemetry.String("db", s.Name))
		sh := core.Shrink(d.Cats, s.Classified, core.ShrinkOptions{Span: shrinkSpan, Metrics: reg})
		shrinkSpan.End(telemetry.Int("em_iterations", sh.EMIterations()))
		d.Shrunk[i] = sh
		db := &DB{Name: s.Name, Unshrunk: s.Sum, Shrunk: sh, Gamma: s.Gamma, Size: int(s.Size)}
		db.table = newDFTable(db.size(), s.Sum.SampleSize, db.gamma())
		d.DBs[i] = db
		return nil
	})
	return d
}
