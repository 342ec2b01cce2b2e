package repro

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/selection"
)

// TestPaperSelectionIsServedSelection is the paper ≡ product
// differential: the Shrinkage strategy behind Table 10 and Figures 4–5
// and the metasearcher's served selection are one selector over one
// offline derivation. The evaluation harness's summaries of a TestScale
// testbed reach a metasearcher through the persisted path (Save, then
// Load into a fresh one with caches off), and for every query and
// scorer the served selection must be the figures' — the same
// databases in the same order with bit-equal scores, the same
// per-database verdict, score moments and λ — and the Rk curve and
// application rate the figures report must be what the served order
// yields.
//
// The grid covers both testbeds and both samplers. TREC6/QBS/CORI is
// in it on purpose: there the rule fires on some query-database pairs
// and not on others, so a verdict computed from different inputs shows.
func TestPaperSelectionIsServedSelection(t *testing.T) {
	scorers := []selection.Scorer{selection.CORI{}, selection.BGloss{}, selection.LM{}}
	for _, bed := range []experiments.BedKind{experiments.TREC4, experiments.TREC6} {
		w, err := experiments.BuildWorld(bed, experiments.TestScale())
		if err != nil {
			t.Fatal(err)
		}
		for _, sampler := range []experiments.SamplerKind{experiments.QBS, experiments.FPS} {
			sums, err := w.BuildSummaries(experiments.Config{Sampler: sampler, FreqEst: true})
			if err != nil {
				t.Fatal(err)
			}
			state := savedSummaries(t, w, sums)
			for _, scorer := range scorers {
				t.Run(fmt.Sprintf("%v/%v/%s", bed, sampler, scorer.Name()), func(t *testing.T) {
					m := New(Options{Scorer: scorer.Name(), Cache: CacheConfig{Disable: true}, AuditSize: -1})
					if err := m.load(bytes.NewReader(state)); err != nil {
						t.Fatal(err)
					}
					assertServedIsPaper(t, m, w, sums, scorer)
				})
			}
		}
	}
}

// savedSummaries is the save file of a metasearcher holding sums: the
// unshrunk summaries, classifications, |D̂|, γ and sample sizes the
// harness built for w's databases.
func savedSummaries(t *testing.T, w *experiments.World, sums *experiments.DBSummaries) []byte {
	t.Helper()
	m := New(Options{Cache: CacheConfig{Disable: true}, AuditSize: -1})
	dbs := make([]*registeredDB, len(w.Bed.Databases))
	for i, c := range sums.Classified(w) {
		dbs[i] = &registeredDB{category: c.Category, src: selection.Source{Classified: c, Size: sums.SizeEst[i], Gamma: sums.Gamma[i]}}
	}
	if err := m.update(func(*store) (*store, error) { return m.deriveStore(dbs, nil, 0, nil), nil }); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertServedIsPaper compares m's selection with the figures'
// Shrinkage strategy over every query of w.
func assertServedIsPaper(t *testing.T, m *Metasearcher, w *experiments.World, sums *experiments.DBSummaries, scorer selection.Scorer) {
	t.Helper()
	for i, db := range sums.DBs {
		info, err := m.Info(db.Name)
		if err != nil {
			t.Fatal(err)
		}
		if want := sums.Shrunk[i].Lambdas(); !reflect.DeepEqual(info.MixtureWeights, want) {
			t.Fatalf("%s: served λ %v, the figures' %v", db.Name, info.MixtureWeights, want)
		}
	}
	index := make(map[string]int, len(sums.DBs))
	for i, db := range sums.DBs {
		index[db.Name] = i
	}
	adaptive := &selection.Adaptive{Base: scorer}
	rk := make([]float64, experiments.MaxK)
	var applied, pairs int
	for qi, q := range w.Bed.Queries {
		want, decisions := adaptive.Rank(q.Terms, sums.DBs, sums.Root)
		got, ex, err := m.selectExplained(nil, q.Terms, len(sums.DBs))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: served %d databases, the figures rank %d", qi, len(got), len(want))
		}
		order := make([]int, len(got))
		for j, s := range got {
			if s.Database != want[j].Name || s.Score != want[j].Score || s.Shrinkage != decisions[want[j].Index].Shrinkage {
				t.Fatalf("query %d rank %d: served %s %v (shrinkage %v), the figures %s %v (shrinkage %v)", qi, j+1,
					s.Database, s.Score, s.Shrinkage, want[j].Name, want[j].Score, decisions[want[j].Index].Shrinkage)
			}
			order[j] = index[s.Database]
		}
		for i, c := range ex.candidates {
			d := decisions[i]
			if c.Database != sums.DBs[i].Name || c.Shrinkage != d.Shrinkage || c.Score != d.Score ||
				c.ScoreMean != d.Mean || c.ScoreStdDev != d.StdDev {
				t.Fatalf("query %d, %s: served verdict %+v, the figures' %+v", qi, sums.DBs[i].Name, c, d)
			}
			if d.Shrinkage && !reflect.DeepEqual(c.Lambdas, sums.Shrunk[i].Lambdas()) {
				t.Fatalf("query %d, %s: served λ %v, the figures' %v", qi, c.Database, c.Lambdas, sums.Shrunk[i].Lambdas())
			}
			pairs++
			if c.Shrinkage {
				applied++
			}
		}
		for k, v := range metrics.RkCurve(w.Relevant[qi], order, experiments.MaxK) {
			rk[k] += v
		}
	}
	for k := range rk {
		rk[k] /= float64(len(w.Bed.Queries))
	}
	fig := w.SelectionAccuracy(sums, scorer, experiments.Shrinkage, experiments.MaxK)
	if !reflect.DeepEqual(fig.Rk, rk) {
		t.Errorf("the figures' Rk %v, the served order's %v", fig.Rk, rk)
	}
	if rate := float64(applied) / float64(pairs); fig.ShrinkRate != rate {
		t.Errorf("Table 10 rate %v, the served verdicts' %v", fig.ShrinkRate, rate)
	}
	t.Logf("%d queries agree; shrinkage on %d of %d pairs", len(w.Bed.Queries), applied, pairs)
}
