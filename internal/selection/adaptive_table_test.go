package selection

import (
	"math"
	"testing"
)

// checkTableMatchesFill checks db's tabulated posterior, as Derive built
// it, against refDist.fill for every s_k ∈ 0..|S|: the support and the
// probabilities bit for bit, and the moments of each query word's term
// under bGlOSS, CORI and LM bit for bit.
func checkTableMatchesFill(t *testing.T, db *DB, words []string, ctx *Context) {
	t.Helper()
	if db.table == nil {
		t.Fatalf("%s: Derive built no table", db.Name)
	}
	var terms []func(float64) float64
	for _, s := range []Scorer{BGloss{}, CORI{}, LM{}} {
		for _, w := range words {
			terms = append(terms, s.Term(w, db.Unshrunk, ctx))
		}
	}
	compareTable(t, db.Name, db.table, db.gamma(), terms)
}

// compareTable compares every s_k's posterior formed from table, built
// under exponent gamma, with refDist.fill's, and the moments of each
// term over the two.
func compareTable(t *testing.T, name string, table *dfTable, gamma float64, terms []func(float64) float64) {
	t.Helper()
	var ref refDist
	var dist dfDist
	for sk := 0; sk <= table.sampleSize; sk++ {
		ref.fill(table.n, table.sampleSize, sk, gamma, gridMax, absentPrior)
		post := table.posterior(sk, &dist)
		if !sameDist(post, &ref) {
			t.Fatalf("%s (|D̂| = %d, |S| = %d, γ = %g), s_k = %d: tabulated posterior differs from fill's",
				name, table.n, table.sampleSize, gamma, sk)
		}
		for k, term := range terms {
			m, v := post.moments(term)
			rm, rv := ref.moments(table.n, term)
			if math.Float64bits(m) != math.Float64bits(rm) || math.Float64bits(v) != math.Float64bits(rv) {
				t.Fatalf("%s, s_k = %d, term %d: moments %v/%v, fill's %v/%v", name, sk, k, m, v, rm, rv)
			}
		}
	}
}

// sameDist reports whether d and ref have the same support and the same
// probabilities bit for bit.
func sameDist(d *dfDist, ref *refDist) bool {
	if len(d.ds) != len(ref.ds) || len(d.pr) != len(ref.pr) || len(d.frac) != len(d.ds) {
		return false
	}
	for i := range d.ds {
		if d.ds[i] != ref.ds[i] || math.Float64bits(d.pr[i]) != math.Float64bits(ref.pr[i]) {
			return false
		}
	}
	return true
}

// checkLargeTables covers what the test worlds' few hundred documents do
// not reach: geometric grids, and one scratch table rebuilt in turn for
// every configuration (as decide rebuilds it for databases without a
// table), checked against refDist.fill bit for bit; then the Beta limit.
// For large |D̂| the grid is fine enough that p = d/|D̂| is effectively
// continuous, and the posterior ∝ p^(s_k+γ)·(1−p)^(|S|−s_k) is
// Beta(s_k+γ+1, |S|−s_k+1) with mean (s_k+γ+1)/(|S|+γ+2). The check
// holds for 2 ≤ s_k ≤ |S|/2: below, the grid's floor at d = 1 truncates
// a prior that diverges at 0; above, its geometric steps thin out
// towards d = |D̂| (4.6 % apart at |D̂| = 10⁸).
func checkLargeTables(t *testing.T) {
	t.Helper()
	const betaTol = 2e-5 // relative; the worst case, s_k = 2 at γ = −1.5, is 1.2e-5
	identity := func(p float64) float64 { return p }
	square := func(p float64) float64 { return p * p }
	var scratch dfTable
	var dist dfDist
	for _, n := range []int{1e8, 257, 1 << 20, 5000, 40} {
		for _, sampleSize := range []int{300, 1, 60} {
			for _, gamma := range []float64{-2, -1.5, -1.2} {
				scratch.build(n, sampleSize, gamma)
				compareTable(t, "scratch", &scratch, gamma, []func(float64) float64{identity, square})
				if n < 1<<20 || sampleSize < 300 {
					continue
				}
				for sk := 2; sk <= sampleSize/2; sk++ {
					mean, _ := scratch.posterior(sk, &dist).moments(identity)
					beta := (float64(sk) + gamma + 1) / (float64(sampleSize) + gamma + 2)
					if relErr(mean, beta) > betaTol {
						t.Errorf("|D̂| = %d, |S| = %d, γ = %g, s_k = %d: E[p] = %g, Beta mean %g", n, sampleSize, gamma, sk, mean, beta)
					}
				}
			}
		}
	}
}
