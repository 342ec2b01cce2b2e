// Package selection implements database selection: given a query and
// the content summaries of the available databases, produce a ranking
// of the databases by their estimated relevance (Section 2.1).
//
// Three "base" scorers from the literature are provided — bGlOSS, CORI,
// and LM (Section 5.3) — together with the hierarchical selection
// baseline of Ipeirotis & Gravano [17] and the paper's adaptive
// algorithm (Figure 3), which decides per query and per database
// whether to score with the shrunk or the unshrunk content summary.
package selection

import (
	"sort"

	"repro/internal/summary"
)

// Entry is one database as seen by a selection algorithm: a name and
// the content-summary view to score it with.
type Entry struct {
	Name string
	View summary.View
}

// Context carries the corpus-level statistics some scorers need.
type Context struct {
	// M is the number of databases being ranked.
	M int
	// MeanCW is the mean collection word count across databases (CORI's mcw).
	MeanCW float64
	// CF maps each query word to the number of databases whose summary
	// "contains" it: round(|D̂|·p̂(w|D)) >= 1, the rule Section 5.3
	// introduces so that shrunk summaries (where every word has
	// non-zero probability) do not degenerate cf(w) to M.
	CF map[string]int
	// Global is the summary the LM scorer smooths against — the "Root"
	// category summary in the paper's setup. May be nil if LM is unused.
	Global summary.View
}

// NewContext computes the statistics for one query over the entries.
func NewContext(q []string, entries []Entry, global summary.View) *Context {
	ctx := &Context{
		M:      len(entries),
		CF:     make(map[string]int, len(q)),
		Global: global,
	}
	var cwSum float64
	for _, e := range entries {
		cwSum += e.View.WordCount()
	}
	if len(entries) > 0 {
		ctx.MeanCW = cwSum / float64(len(entries))
	}
	for _, w := range q {
		if _, done := ctx.CF[w]; done {
			continue
		}
		n := 0
		for _, e := range entries {
			if summary.EffectiveDocFreq(e.View, w) >= 1 {
				n++
			}
		}
		ctx.CF[w] = n
	}
	return ctx
}

// Scorer assigns a relevance score s(q, D) to a database given its
// content summary.
type Scorer interface {
	// Name identifies the algorithm ("bGlOSS", "CORI", "LM").
	Name() string
	// Score computes s(q, D).
	Score(q []string, v summary.View, ctx *Context) float64
	// Term returns what query word w contributes to Score, as a function
	// of a hypothesised document fraction p = d/|D| standing in for
	// v.P(w). A score is the empty query's score times the product of
	// its words' terms — or, for an AdditiveBaseline scorer, the terms'
	// mean — so the adaptive algorithm can integrate each word's term
	// over that word's document-frequency posterior separately.
	Term(w string, v summary.View, ctx *Context) func(p float64) float64
	// DefaultScore is the score a database receives when its summary
	// carries no information about any query word. Following the paper
	// (Section 6.2), a database whose score does not exceed this
	// default is considered not selected.
	DefaultScore(q []string, v summary.View, ctx *Context) float64
}

// Ranked is one entry of a database ranking.
type Ranked struct {
	// Index is the entry's position in the input slice.
	Index int
	Name  string
	Score float64
}

// Rank scores every entry and returns the selected databases in
// decreasing score order. Databases at or below their default score are
// excluded (not selected), which can yield fewer databases than were
// given — exactly as in the paper's evaluation.
func Rank(s Scorer, q []string, entries []Entry, ctx *Context) []Ranked {
	ranked, _ := RankWithScores(s, q, entries, ctx)
	return ranked
}

// RankWithScores is Rank plus the raw score of every entry in input
// order, including the entries the selection cut excluded — the
// per-query audit trail records why a database was *not* selected,
// which the Ranked slice alone cannot show.
func RankWithScores(s Scorer, q []string, entries []Entry, ctx *Context) ([]Ranked, []float64) {
	scores := make([]float64, len(entries))
	out := make([]Ranked, 0, len(entries))
	for i, e := range entries {
		score := s.Score(q, e.View, ctx)
		scores[i] = score
		def := s.DefaultScore(q, e.View, ctx)
		if !aboveDefault(score, def) {
			continue
		}
		out = append(out, Ranked{Index: i, Name: e.Name, Score: score})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].Name < out[b].Name
	})
	return out, scores
}

// aboveDefault reports whether a score meaningfully exceeds the
// scorer's default. The comparison must be relative: probability
// products over long queries are legitimately minuscule (1e-80 for a
// 25-word bGlOSS query), so any absolute epsilon would misclassify
// genuinely selected databases as unselected.
func aboveDefault(score, def float64) bool {
	if def == 0 {
		return score > 0
	}
	return score > def*(1+1e-9)
}

// UniqueWords deduplicates a query's words preserving order; scorers
// treat queries as word sets. A query without duplicates is returned as
// is, so the result must not be modified.
func UniqueWords(q []string) []string {
	dup := false
	for i := 1; i < len(q) && !dup; i++ {
		for _, w := range q[:i] {
			if w == q[i] {
				dup = true
				break
			}
		}
	}
	if !dup {
		return q
	}
	seen := make(map[string]bool, len(q))
	out := make([]string, 0, len(q))
	for _, w := range q {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}
