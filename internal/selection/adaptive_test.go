package selection

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/summary"
)

// sampleSummary builds an Ŝ(D)-style summary: |D̂| docs estimated from
// a sample of sampleSize docs, with per-word sample document counts.
func sampleSummary(numDocs float64, sampleSize int, sampleDF map[string]int) *summary.Summary {
	s := &summary.Summary{
		NumDocs:    numDocs,
		CW:         numDocs * 100,
		SampleSize: sampleSize,
		Words:      map[string]summary.Word{},
	}
	for w, df := range sampleDF {
		p := float64(df) / float64(sampleSize)
		s.Words[w] = summary.Word{P: p, Ptf: p / 50, SampleDF: df}
	}
	return s
}

// tabulatedPosterior is the posterior decide reads for a word seen in
// sk of the sampleSize sample documents of an n-document database: the
// one formed from the table Derive builds.
func tabulatedPosterior(n, sampleSize, sk int, gamma float64) *dfDist {
	return newDFTable(n, sampleSize, gamma).posterior(sk, &dfDist{})
}

// mean returns the distribution's expected document frequency.
func (d *dfDist) mean() float64 {
	var m float64
	for i, pr := range d.pr {
		m += pr * float64(d.ds[i])
	}
	return m
}

func (d *dfDist) sampler() dfSampler { return newSampler(d.ds, d.pr) }

func TestDFDistConcentratesOnObservedFraction(t *testing.T) {
	// A word in half the sample docs of a fully known database: the
	// posterior over d should center near n/2.
	d := tabulatedPosterior(1000, 200, 100, -2)
	m := d.mean()
	if m < 350 || m > 600 {
		t.Errorf("posterior mean = %v, want near 500", m)
	}
}

func TestDFDistZeroSampleCount(t *testing.T) {
	// A word absent from the sample: the posterior should concentrate
	// on small d (power-law prior + binomial miss likelihood), with
	// real mass on d = 0 (the word absent from the database).
	d := tabulatedPosterior(10000, 300, 0, -2)
	m := d.mean()
	if m > 100 {
		t.Errorf("posterior mean for unseen word = %v, want small", m)
	}
	rng := rand.New(rand.NewSource(5))
	zeros := 0
	for i, s := 0, d.sampler(); i < 500; i++ {
		if s.sample(rng) == 0 {
			zeros++
		}
	}
	if zeros == 0 {
		t.Error("d = 0 never sampled for an unseen word")
	}
	// ... but with a tiny sample, large d stays plausible.
	d2 := tabulatedPosterior(10000, 5, 0, -2)
	if d2.mean() <= m {
		t.Errorf("smaller sample should admit larger d: %v vs %v", d2.mean(), m)
	}
}

func TestDFDistFullSampleSaturates(t *testing.T) {
	// Word in every document of a fully sampled database: d must be n.
	d := newRefDist(300, 300, 300, -2, 512, 3)
	rng := rand.New(rand.NewSource(1))
	for i, s := 0, d.sampler(); i < 50; i++ {
		if got := s.sample(rng); got < 295 {
			t.Fatalf("sampled d = %d, want ≈ 300", got)
		}
	}
}

func TestDFDistNoAbsentMassForSeenWords(t *testing.T) {
	d := tabulatedPosterior(1000, 100, 3, -2)
	rng := rand.New(rand.NewSource(2))
	for i, s := 0, d.sampler(); i < 500; i++ {
		if s.sample(rng) == 0 {
			t.Fatal("d = 0 sampled for a word present in the sample")
		}
	}
}

func TestDFDistSamplesWithinSupport(t *testing.T) {
	d := newRefDist(100000, 300, 7, -1.8, 128, 3)
	rng := rand.New(rand.NewSource(2))
	for i, s := 0, d.sampler(); i < 1000; i++ {
		got := s.sample(rng)
		if got < 0 || got > 100000 {
			t.Fatalf("sample out of support: %d", got)
		}
	}
}

func TestOverrideView(t *testing.T) {
	base := sampleSummary(1000, 100, map[string]int{"a": 50, "b": 10})
	v := &overrideView{base: base, p: map[string]float64{"a": 0.8, "zz": 0.01}}
	if v.P("a") != 0.8 {
		t.Errorf("override P = %v", v.P("a"))
	}
	if v.P("b") != base.P("b") {
		t.Error("non-overridden word changed")
	}
	// Ptf scales proportionally with the P override.
	wantPtf := base.Ptf("a") * 0.8 / base.P("a")
	if !approx(v.Ptf("a"), wantPtf, 1e-12) {
		t.Errorf("Ptf = %v, want %v", v.Ptf("a"), wantPtf)
	}
	// Word unknown to the base: the hypothesized document fraction is
	// converted to the term-frequency scale, ptf ≈ p·|D|/cw.
	wantZZ := 0.01 * base.DocCount() / base.WordCount()
	if !approx(v.Ptf("zz"), wantZZ, 1e-15) {
		t.Errorf("Ptf(zz) = %v, want %v", v.Ptf("zz"), wantZZ)
	}
	if v.DocCount() != 1000 {
		t.Error("DocCount not delegated")
	}
}

func TestAdaptiveSkipsShrinkageWhenSampleIsComplete(t *testing.T) {
	// Sample = whole database: no uncertainty, shrinkage must be off.
	unshrunk := sampleSummary(300, 300, map[string]int{"blood": 150})
	shrunk := mkView(300, 30000, map[string]float64{"blood": 0.5, "extra": 0.1})
	db := &DB{Name: "d", Unshrunk: unshrunk, Shrunk: shrunk}
	a := &Adaptive{Base: BGloss{}}
	ctx := NewContext([]string{"blood"}, []Entry{{View: unshrunk}}, nil)
	_, decisions := a.Choose([]string{"blood"}, []*DB{db}, ctx)
	if decisions[0].Shrinkage {
		t.Errorf("shrinkage applied to a fully sampled database (mean %v, std %v)",
			decisions[0].Mean, decisions[0].StdDev)
	}
}

func TestAdaptiveAppliesShrinkageForUnseenWordBGloss(t *testing.T) {
	// A rare query word absent from a small sample of a large database:
	// bGlOSS scores are 0-or-something, std/mean is large, shrinkage on.
	unshrunk := sampleSummary(50000, 300, map[string]int{"common": 250})
	shrunk := mkView(50000, 5e6, map[string]float64{"common": 0.8, "hemophilia": 0.001})
	db := &DB{Name: "pubmed", Unshrunk: unshrunk, Shrunk: shrunk}
	a := &Adaptive{Base: BGloss{}}
	q := []string{"hemophilia"}
	ctx := NewContext(q, []Entry{{View: unshrunk}}, nil)
	views, decisions := a.Choose(q, []*DB{db}, ctx)
	if !decisions[0].Shrinkage {
		t.Errorf("shrinkage not applied for unseen rare word (mean %v, std %v)",
			decisions[0].Mean, decisions[0].StdDev)
	}
	if views[0] != summary.View(shrunk) {
		t.Error("chosen view is not the shrunk summary")
	}
}

func TestAdaptiveNoShrunkSummaryAvailable(t *testing.T) {
	unshrunk := sampleSummary(50000, 300, map[string]int{})
	db := &DB{Name: "d", Unshrunk: unshrunk, Shrunk: nil}
	a := &Adaptive{Base: BGloss{}}
	ctx := NewContext([]string{"w"}, []Entry{{View: unshrunk}}, nil)
	views, decisions := a.Choose([]string{"w"}, []*DB{db}, ctx)
	if decisions[0].Shrinkage {
		t.Error("shrinkage reported without a shrunk summary")
	}
	if views[0] != summary.View(unshrunk) {
		t.Error("must fall back to the unshrunk view")
	}
}

// TestAdaptiveDeterministic: the decision is a pure function of the
// summaries, the query and the scorer — repeating a call, or presenting
// the databases in another order under the same Context, yields the
// same decisions bit for bit.
func TestAdaptiveDeterministic(t *testing.T) {
	q := []string{"a", "b", "c"}
	var dbs []*DB
	var entries []Entry
	for i := 0; i < 7; i++ {
		unshrunk := sampleSummary(float64(500*(i+1)), 100+30*i, map[string]int{"a": 1 + 9*i, "b": i % 3, "c": 60})
		shrunk := mkView(unshrunk.NumDocs, unshrunk.CW, map[string]float64{"a": 0.01, "b": 0.005, "c": 0.5})
		dbs = append(dbs, &DB{Name: string(rune('a' + i)), Unshrunk: unshrunk, Shrunk: shrunk, Gamma: -1.5 - 0.1*float64(i)})
		entries = append(entries, Entry{View: unshrunk})
	}
	reversed := make([]*DB, len(dbs))
	for i, db := range dbs {
		reversed[len(dbs)-1-i] = db
	}
	global := mkView(1e6, 1e8, map[string]float64{"a": 0.01, "b": 0.002, "c": 0.3})
	ctx := NewContext(q, entries, global)
	bits := func(d Decision) [3]uint64 {
		var s uint64
		if d.Shrinkage {
			s = 1
		}
		return [3]uint64{s, math.Float64bits(d.Mean), math.Float64bits(d.StdDev)}
	}
	for _, s := range []Scorer{BGloss{}, CORI{}, LM{}} {
		a := &Adaptive{Base: s}
		_, forward := a.Choose(q, dbs, ctx)
		_, again := a.Choose(q, dbs, ctx)
		_, backward := a.Choose(q, reversed, ctx)
		for i := range dbs {
			if forward[i].StdDev == 0 {
				t.Errorf("%s db %d: σ = 0, the fixture should carry uncertainty", s.Name(), i)
			}
			if bits(forward[i]) != bits(again[i]) {
				t.Errorf("%s db %d: repeated call differs: %+v vs %+v", s.Name(), i, forward[i], again[i])
			}
			if bits(forward[i]) != bits(backward[len(dbs)-1-i]) {
				t.Errorf("%s db %d: decision depends on slice position: %+v vs %+v",
					s.Name(), i, forward[i], backward[len(dbs)-1-i])
			}
		}
	}
}

func TestAdaptiveRankEndToEnd(t *testing.T) {
	// Two databases; the relevant word was missed in db1's sample but
	// exists in its shrunk summary. Adaptive bGlOSS should select db1
	// via shrinkage while a plain bGlOSS ranking would drop it.
	db1Un := sampleSummary(20000, 300, map[string]int{"filler": 200})
	db1Sh := mkView(20000, 2e6, map[string]float64{"filler": 0.7, "rare": 0.002})
	db2Un := sampleSummary(400, 300, map[string]int{"other": 100})
	dbs := []*DB{
		{Name: "big", Unshrunk: db1Un, Shrunk: db1Sh},
		{Name: "small", Unshrunk: db2Un, Shrunk: nil},
	}
	a := &Adaptive{Base: BGloss{}}
	ranked, decisions := a.Rank([]string{"rare"}, dbs, nil)
	if !decisions[0].Shrinkage {
		t.Fatal("expected shrinkage for the big database")
	}
	if len(ranked) != 1 || ranked[0].Name != "big" {
		t.Errorf("ranked = %v, want [big]", ranked)
	}

	// Plain ranking for contrast: nothing is selected.
	entries := []Entry{{Name: "big", View: db1Un}, {Name: "small", View: db2Un}}
	ctx := NewContext([]string{"rare"}, entries, nil)
	if plain := Rank(BGloss{}, []string{"rare"}, entries, ctx); len(plain) != 0 {
		t.Errorf("plain rank = %v, want empty", plain)
	}
}

// BenchmarkAdaptiveDecide measures one database's Figure 3 decision for
// a three-word query (one word the sample never saw), with the posterior
// table Derive builds and, untabulated, for a DB built by hand, whose
// grid each query builds into scratch.
func BenchmarkAdaptiveDecide(b *testing.B) {
	unshrunk := sampleSummary(50000, 300, map[string]int{"a": 3, "b": 0, "c": 120})
	shrunk := mkView(50000, 5e6, map[string]float64{"a": 0.01, "b": 0.005, "c": 0.4})
	a := &Adaptive{Base: CORI{}}
	q := []string{"a", "b", "c"}
	ctx := NewContext(q, []Entry{{View: unshrunk}}, nil)
	tabulated := &DB{Name: "d", Unshrunk: unshrunk, Shrunk: shrunk}
	tabulated.table = newDFTable(tabulated.size(), unshrunk.SampleSize, tabulated.gamma())
	for _, bc := range []struct {
		name string
		db   *DB
	}{
		{"tabulated", tabulated},
		{"untabulated", &DB{Name: "d", Unshrunk: unshrunk, Shrunk: shrunk}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a.Choose(q, []*DB{bc.db}, ctx)
			}
		})
	}
}
