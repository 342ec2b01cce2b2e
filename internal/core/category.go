// Package core implements the paper's primary contribution: shrinkage
// over a topic hierarchy for database content summaries (Section 3).
//
// Databases classified under similar topics have related content
// summaries, so the incomplete, sample-derived summary of a database D
// can be "shrunk" towards the summaries of the categories D is
// classified under. The shrunk summary
//
//	p̂R(w|D) = λ_{m+1}·p̂(w|D) + Σ_{i=0..m} λ_i·p̂(w|C_i)   (Equation 2)
//
// mixes D's own summary with the summaries of its ancestor categories
// C1 ⊃ C2 ⊃ ... ⊃ Cm (Definition 4) and a uniform dummy category C0,
// with mixture weights λ computed per database by expectation
// maximization (Figure 2).
package core

import (
	"runtime"

	"repro/internal/hierarchy"
	"repro/internal/pool"
	"repro/internal/summary"
)

// Classified pairs a database's (approximate) content summary with the
// category it is classified under.
type Classified struct {
	Name     string
	Category hierarchy.NodeID
	Sum      *summary.Summary
}

// Weighting selects how database summaries aggregate into category
// summaries (Definition 3).
type Weighting int

const (
	// SizeWeighted is Equation 1: each database weighted by |D̂|.
	SizeWeighted Weighting = iota
	// EqualWeighted is the footnote-5 alternative: every database
	// weighted equally regardless of size. The paper found the two
	// "virtually identical"; the ablation harness compares them.
	EqualWeighted
)

// catAgg accumulates the weighted sums of one category's subtree.
type catAgg struct {
	sumPW   map[string]float64 // Σ weight_D · p̂(w|D)
	sumPtfW map[string]float64 // Σ tokenWeight_D · p̂tf(w|D)
	weight  float64            // Σ weight_D   (denominator for P)
	tokens  float64            // Σ tokenWeight_D (denominator for Ptf)
	docs    float64            // Σ |D̂| (category "size" for selection)
	nDBs    int
}

func newCatAgg() *catAgg {
	return &catAgg{
		sumPW:   make(map[string]float64),
		sumPtfW: make(map[string]float64),
	}
}

// CategorySummaries holds, for every category C, the aggregate of the
// content summaries of all databases classified under C's subtree
// (db(C) of Definition 3). It is immutable after construction and safe
// for concurrent use.
type CategorySummaries struct {
	tree      *hierarchy.Tree
	weighting Weighting
	aggs      []*catAgg // indexed by NodeID
	vocab     int       // |V|: union vocabulary size (for the uniform C0)
}

// BuildCategorySummaries aggregates the classified database summaries
// up the hierarchy. A database classified under C contributes to C and
// to every ancestor of C, per Definition 3.
//
// The aggregation fans out over category nodes (GOMAXPROCS workers: it
// is CPU-bound), one node's aggregate per task, and every node adds its
// databases in the order dbs lists them. Each float sum is therefore
// performed in the same order whatever the worker count, and the
// summaries — and the λ vectors EM fits against them — are
// bit-identical to a sequential build's.
func BuildCategorySummaries(tree *hierarchy.Tree, dbs []Classified, w Weighting) *CategorySummaries {
	cs := &CategorySummaries{
		tree:      tree,
		weighting: w,
		aggs:      make([]*catAgg, tree.Len()),
	}
	members := make([][]*summary.Summary, tree.Len()) // db(C) per node, in dbs order
	for _, db := range dbs {
		for _, anc := range tree.Path(db.Category) {
			members[anc] = append(members[anc], db.Sum)
		}
	}
	// The root, the largest aggregate, is node 0 and so starts first.
	pool.ForEach(len(cs.aggs), runtime.GOMAXPROCS(0), nil, func(c int) error {
		agg := newCatAgg()
		for _, s := range members[c] {
			cs.addTo(agg, s)
		}
		cs.aggs[c] = agg
		return nil
	})
	cs.vocab = len(cs.aggs[hierarchy.Root].sumPW)
	return cs
}

// addTo accumulates one database summary into an aggregate.
func (cs *CategorySummaries) addTo(agg *catAgg, s *summary.Summary) {
	pw, tw := cs.weights(s)
	for w, st := range s.Words {
		agg.sumPW[w] += pw * st.P
		agg.sumPtfW[w] += tw * st.Ptf
	}
	agg.weight += pw
	agg.tokens += tw
	agg.docs += s.NumDocs
	agg.nDBs++
}

// weights returns the aggregation weights of one database under the
// configured Weighting.
func (cs *CategorySummaries) weights(s *summary.Summary) (pWeight, tfWeight float64) {
	if cs.weighting == EqualWeighted {
		return 1, 1
	}
	return s.NumDocs, s.CW
}

// Tree returns the hierarchy.
func (cs *CategorySummaries) Tree() *hierarchy.Tree { return cs.tree }

// VocabSize returns |V|, the union vocabulary size across all database
// summaries; the uniform category C0 assigns every word probability
// 1/|V|.
func (cs *CategorySummaries) VocabSize() int { return cs.vocab }

// UniformP returns p̂(w|C0), the probability the dummy uniform category
// assigns to every word.
func (cs *CategorySummaries) UniformP() float64 {
	if cs.vocab == 0 {
		return 0
	}
	return 1 / float64(cs.vocab)
}

// Databases returns the number of databases aggregated under category c.
func (cs *CategorySummaries) Databases(c hierarchy.NodeID) int { return cs.aggs[c].nDBs }

// Summary materializes the category content summary Ŝ(C) of
// Definition 3 (Equation 1, or its equal-weight variant): for each word,
// the aggregate probability over db(C). NumDocs is the total (estimated)
// document count of the category's databases, which hierarchical
// selection uses as the category's size.
func (cs *CategorySummaries) Summary(c hierarchy.NodeID) *summary.Summary {
	agg := cs.aggs[c]
	out := &summary.Summary{
		NumDocs: agg.docs,
		CW:      agg.tokens,
		Words:   make(map[string]summary.Word, len(agg.sumPW)),
	}
	if cs.weighting == EqualWeighted && agg.tokens > 0 {
		// Token denominator is nDBs under equal weighting; keep CW as
		// an absolute token estimate anyway by rescaling below.
		out.CW = agg.docs // best-effort size proxy; CW unused for categories under equal weighting
	}
	if agg.weight == 0 {
		return out
	}
	for w, pw := range agg.sumPW {
		word := summary.Word{P: pw / agg.weight}
		if agg.tokens > 0 {
			word.Ptf = agg.sumPtfW[w] / agg.tokens
		}
		out.Words[w] = word
	}
	return out
}

// levelStats gives O(1) access to the effective (overlap-subtracted)
// category probabilities for one level of a database's path: the data
// of db(C_i) minus the data already counted at level i+1 (and minus the
// database's own summary at the deepest level), as Section 3.2
// prescribes to keep the mixture components disjoint.
type levelStats struct {
	agg      *catAgg // aggregate at C_i
	subPW    map[string]float64
	subPtfW  map[string]float64
	subW     float64
	subT     float64
	excluded *summary.Summary // the database's own summary (deepest level only)
	exPW     float64          // its P weight
	exTW     float64          // its Ptf weight
}

// p returns the effective p̂(w|C_i).
func (l *levelStats) p(w string) float64 {
	den := l.agg.weight - l.subW - l.exPW
	if den <= 0 {
		return 0
	}
	num := l.agg.sumPW[w]
	if l.subPW != nil {
		num -= l.subPW[w]
	}
	if l.excluded != nil {
		num -= l.exPW * l.excluded.P(w)
	}
	p := num / den
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// ptf returns the effective p̂tf(w|C_i).
func (l *levelStats) ptf(w string) float64 {
	den := l.agg.tokens - l.subT - l.exTW
	if den <= 0 {
		return 0
	}
	num := l.agg.sumPtfW[w]
	if l.subPtfW != nil {
		num -= l.subPtfW[w]
	}
	if l.excluded != nil {
		num -= l.exTW * l.excluded.Ptf(w)
	}
	p := num / den
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// empty reports whether the level has no data left after subtraction.
func (l *levelStats) empty() bool { return l.agg.weight-l.subW-l.exPW <= 0 }

// levels builds the per-level effective views for a database classified
// under cat. Level i covers db(C_i) \ db(C_{i+1}), and the deepest
// level excludes the database itself.
func (cs *CategorySummaries) levels(db Classified) []*levelStats {
	path := cs.tree.Path(db.Category)
	out := make([]*levelStats, len(path))
	exPW, exTW := cs.weights(db.Sum)
	for i, c := range path {
		l := &levelStats{agg: cs.aggs[c]}
		if i+1 < len(path) {
			child := cs.aggs[path[i+1]]
			l.subPW = child.sumPW
			l.subPtfW = child.sumPtfW
			l.subW = child.weight
			l.subT = child.tokens
		} else {
			l.excluded = db.Sum
			l.exPW = exPW
			l.exTW = exTW
		}
		out[i] = l
	}
	return out
}
