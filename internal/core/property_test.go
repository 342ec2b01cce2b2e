package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hierarchy"
	"repro/internal/summary"
)

// randomClassified builds a random pair of sibling databases plus one
// cross-topic database from a seeded generator.
func randomWorld(seed int64) (*CategorySummaries, []Classified) {
	rng := rand.New(rand.NewSource(seed))
	tree := tinyTree()
	heart, _ := tree.Lookup("Heart")
	sports, _ := tree.Lookup("Sports")

	mk := func(cat, n int) Classified {
		words := map[string]float64{}
		vocab := 20 + rng.Intn(200)
		for i := 0; i < vocab; i++ {
			w := "w" + itoa(cat*1000+rng.Intn(300))
			words[w] = math.Min(1, rng.Float64())
		}
		var c Classified
		c.Name = "db" + itoa(n)
		if cat == 0 {
			c.Category = heart
		} else {
			c.Category = sports
		}
		c.Sum = mkSum(float64(50+rng.Intn(1000)), words)
		return c
	}
	dbs := []Classified{mk(0, 1), mk(0, 2), mk(1, 3)}
	return BuildCategorySummaries(tree, dbs, SizeWeighted), dbs
}

// Property: λ is a probability distribution and p̂R stays in [0, 1] for
// every word of every component, for arbitrary random worlds.
func TestShrinkProbabilityInvariants(t *testing.T) {
	f := func(seed int64) bool {
		cs, dbs := randomWorld(seed)
		for _, db := range dbs {
			sh := Shrink(cs, db, ShrinkOptions{})
			var sum float64
			for _, l := range sh.Lambdas() {
				if l.Weight < -1e-12 || l.Weight > 1+1e-12 {
					return false
				}
				sum += l.Weight
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
			// Spot-check p̂R bounds over the database's own words and a
			// few foreign ones.
			for w := range db.Sum.Words {
				p := sh.P(w)
				if p < 0 || p > 1 {
					return false
				}
			}
			for _, w := range []string{"w1", "w1005", "nonexistent"} {
				if p := sh.P(w); p < 0 || p > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: p̂R is a convex combination, so it never exceeds the
// largest component probability for that word.
func TestShrinkConvexCombination(t *testing.T) {
	f := func(seed int64) bool {
		cs, dbs := randomWorld(seed)
		db := dbs[0]
		sh := Shrink(cs, db, ShrinkOptions{})
		levels := cs.levels(db)
		for w := range db.Sum.Words {
			max := cs.UniformP()
			if p := db.Sum.P(w); p > max {
				max = p
			}
			for _, l := range levels {
				if p := l.p(w); p > max {
					max = p
				}
			}
			if sh.P(w) > max+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the materialized summary agrees with the lazy view on every
// word it keeps, and keeps exactly the words passing the round rule.
func TestMaterializeAgreesWithLazy(t *testing.T) {
	f := func(seed int64) bool {
		cs, dbs := randomWorld(seed)
		db := dbs[1]
		sh := Shrink(cs, db, ShrinkOptions{})
		mat := sh.Materialize(1)
		for w, st := range mat.Words {
			if math.Abs(st.P-sh.P(w)) > 1e-12 {
				return false
			}
			if int(mat.NumDocs*st.P+0.5) < 1 {
				return false
			}
		}
		// Every word of the database's own summary that passes the
		// rule must be present.
		for w := range db.Sum.Words {
			if int(db.Sum.NumDocs*sh.P(w)+0.5) >= 1 && !mat.Contains(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: aggregation is order-independent.
func TestBuildCategorySummariesOrderIndependent(t *testing.T) {
	cs1, dbs := randomWorld(77)
	tree := cs1.Tree()
	rev := make([]Classified, len(dbs))
	for i, db := range dbs {
		rev[len(dbs)-1-i] = db
	}
	cs2 := BuildCategorySummaries(tree, rev, SizeWeighted)
	for _, id := range tree.All() {
		s1, s2 := cs1.Summary(id), cs2.Summary(id)
		if s1.NumDocs != s2.NumDocs || s1.Len() != s2.Len() {
			t.Fatalf("category %v differs across orders", id)
		}
		for w, st := range s1.Words {
			if math.Abs(st.P-s2.Words[w].P) > 1e-12 {
				t.Fatalf("category %v word %s differs", id, w)
			}
		}
	}
}

// Property: shrinking twice with identical inputs is deterministic, and
// the shrunk Ptf stays a valid probability too.
func TestShrinkPtfBounds(t *testing.T) {
	f := func(seed int64) bool {
		cs, dbs := randomWorld(seed)
		sh := Shrink(cs, dbs[0], ShrinkOptions{})
		for w := range dbs[0].Sum.Words {
			if p := sh.Ptf(w); p < 0 || p > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// randomHierarchyWorld draws a hierarchy (up to three levels under the
// root, one to three children per node) and three to eight databases
// classified under random nodes of it, internal ones included, whose
// vocabularies overlap through a shared word pool.
func randomHierarchyWorld(rng *rand.Rand) (*CategorySummaries, []Classified) {
	next := 0
	var grow func(depth int) hierarchy.Spec
	grow = func(depth int) hierarchy.Spec {
		s := hierarchy.Spec{Name: "c" + itoa(next)}
		next++
		if depth < 3 {
			for i := rng.Intn(3) + 1; i > 0 && (depth == 0 || rng.Intn(3) > 0); i-- {
				s.Children = append(s.Children, grow(depth+1))
			}
		}
		return s
	}
	tree := hierarchy.MustNew(grow(0))
	nodes := tree.All()
	dbs := make([]Classified, 3+rng.Intn(6))
	for i := range dbs {
		words := map[string]float64{}
		for j := 10 + rng.Intn(150); j > 0; j-- {
			words["w"+itoa(rng.Intn(400))] = math.Min(1, rng.Float64()+0.001)
		}
		dbs[i] = Classified{
			Name:     "db" + itoa(i),
			Category: nodes[rng.Intn(len(nodes))],
			Sum:      mkSum(float64(20+rng.Intn(1000)), words),
		}
	}
	return BuildCategorySummaries(tree, dbs, SizeWeighted), dbs
}

// looLogLikelihood is the objective of the Figure 2 EM as Shrink runs
// it: Σ_w weight_w · log Σ_i λ_i p_i(w) over the database's own words,
// each weighted by its sample document frequency, with the database's
// own component predicting a word leave-one-out.
func looLogLikelihood(ss *ShrunkSummary) float64 {
	m := len(ss.levels)
	var ll float64
	for w, st := range ss.db.Sum.Words {
		weight, loo := 1.0, st.P
		if st.SampleDF > 0 {
			weight = float64(st.SampleDF)
			loo = st.P * float64(st.SampleDF-1) / float64(st.SampleDF)
		}
		pr := ss.lambdas[0].Weight*ss.uniform + ss.lambdas[m+1].Weight*loo
		for i, l := range ss.levels {
			pr += ss.lambdas[i+1].Weight * l.p(w)
		}
		if pr > 0 {
			ll += weight * math.Log(pr)
		}
	}
	return ll
}

// Property (Figure 2): every EM iteration leaves λ a probability
// distribution and never lowers the likelihood it climbs. Shrink with
// MaxIter = n stops after exactly n iterations (Epsilon is set below
// any step it will take), so running it for n = 1, 2, … walks the
// iterates of one EM run.
func TestEMLikelihoodNeverDecreases(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		cs, dbs := randomHierarchyWorld(rand.New(rand.NewSource(seed)))
		for _, db := range dbs {
			prev := math.Inf(-1)
			for n := 1; n <= 30; n++ {
				ss := Shrink(cs, db, ShrinkOptions{MaxIter: n, Epsilon: 1e-300})
				var sum float64
				for _, l := range ss.Lambdas() {
					if l.Weight < 0 || l.Weight > 1 {
						t.Fatalf("seed %d, %s, iteration %d: λ(%s) = %v", seed, db.Name, n, l.Component, l.Weight)
					}
					sum += l.Weight
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Fatalf("seed %d, %s, iteration %d: Σλ = %v", seed, db.Name, n, sum)
				}
				ll := looLogLikelihood(ss)
				// Rounding in the sums is the only way down.
				if ll < prev-1e-9*math.Abs(prev) {
					t.Fatalf("seed %d, %s: likelihood fell from %v to %v at iteration %d", seed, db.Name, prev, ll, n)
				}
				prev = ll
			}
		}
	}
}

var _ = summary.Summary{} // keep the import for mkSum's package
