// Package summary implements database content summaries, the statistics
// that database selection algorithms operate on (Definitions 1 and 2 of
// the paper):
//
//   - the (estimated) number of documents in the database, |D|;
//   - for each word w, the fraction p(w|D) of documents containing w;
//   - additionally, the term-frequency fraction ptf(w|D) =
//     tf(w,D)/Σtf(w',D), which the Language Modelling selection
//     algorithm uses in place of p(w|D) (Section 5.3), and the
//     collection word count cw(D) used by CORI.
//
// A Summary can be the "perfect" S(D), computed by examining every
// document of a database (FromIndex), or the approximate Ŝ(D) derived
// from a document sample (FromSample).
package summary

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/index"
)

// Word holds the per-word statistics of a content summary.
type Word struct {
	// P is the estimated fraction of database documents containing the
	// word, p̂(w|D).
	P float64
	// Ptf is the estimated fraction of database token occurrences that
	// are this word (the LM probability).
	Ptf float64
	// SampleDF is the number of sample documents containing the word
	// (s_k in Section 4); zero for perfect summaries.
	SampleDF int
}

// Summary is a content summary. The zero value is an empty summary.
// Summaries are mutable during construction and must be treated as
// immutable once shared.
type Summary struct {
	// NumDocs is the (estimated) number of documents |D̂|.
	NumDocs float64
	// CW is the (estimated) total number of word occurrences in the
	// database, CORI's cw(D).
	CW float64
	// SampleSize is the number of documents in the sample the summary
	// was derived from (|S|), or 0 for perfect summaries.
	SampleSize int
	// Words maps each known word to its statistics.
	Words map[string]Word
}

// View is the read interface selection algorithms consume. Both
// *Summary and shrunk summaries (package core) implement it.
type View interface {
	// DocCount returns |D̂|.
	DocCount() float64
	// WordCount returns the cw(D) estimate.
	WordCount() float64
	// P returns p̂(w|D), zero for unknown words.
	P(w string) float64
	// Ptf returns the term-frequency probability, zero for unknown words.
	Ptf(w string) float64
}

// DocCount implements View.
func (s *Summary) DocCount() float64 { return s.NumDocs }

// WordCount implements View.
func (s *Summary) WordCount() float64 { return s.CW }

// P implements View.
func (s *Summary) P(w string) float64 { return s.Words[w].P }

// Ptf implements View.
func (s *Summary) Ptf(w string) float64 { return s.Words[w].Ptf }

// SampleDF returns the number of sample documents containing w.
func (s *Summary) SampleDF(w string) int { return s.Words[w].SampleDF }

// Contains reports whether the summary has any statistics for w.
func (s *Summary) Contains(w string) bool {
	_, ok := s.Words[w]
	return ok
}

// Len returns the vocabulary size of the summary.
func (s *Summary) Len() int { return len(s.Words) }

// FromIndex computes the perfect content summary S(D) by examining
// every document in the database.
func FromIndex(ix *index.Index) *Summary {
	n := float64(ix.NumDocs())
	total := float64(ix.CollectionTokens())
	s := &Summary{
		NumDocs: n,
		CW:      total,
		Words:   make(map[string]Word, ix.NumTerms()),
	}
	if n == 0 {
		return s
	}
	ix.ForEachTerm(func(term string, df int, tf int64) {
		w := Word{P: float64(df) / n}
		if total > 0 {
			w.Ptf = float64(tf) / total
		}
		s.Words[term] = w
	})
	return s
}

// FromSample computes the approximate content summary Ŝ(D) from a
// document sample, treating the sample as the database (Callan &
// Connell): |D̂| = |S|, p̂(w|D) = fraction of sample documents with w.
// Size and frequency estimation (package freqest) can refine the
// result afterwards.
func FromSample(docs [][]string) *Summary {
	n := len(docs)
	s := &Summary{
		NumDocs:    float64(n),
		SampleSize: n,
		Words:      make(map[string]Word, 1024),
	}
	if n == 0 {
		return s
	}
	var total float64
	seen := make(map[string]bool, 256)
	for _, doc := range docs {
		for k := range seen {
			delete(seen, k)
		}
		for _, t := range doc {
			total++
			w := s.Words[t]
			w.Ptf++ // temporarily: raw tf
			if !seen[t] {
				seen[t] = true
				w.SampleDF++
			}
			s.Words[t] = w
		}
	}
	for t, w := range s.Words {
		w.P = float64(w.SampleDF) / float64(n)
		if total > 0 {
			w.Ptf /= total
		}
		s.Words[t] = w
	}
	s.CW = total
	return s
}

// TopWords returns the n highest-p̂ words, for display. Ties are broken
// alphabetically for determinism.
func (s *Summary) TopWords(n int) []string {
	// Sort (word, p̂) pairs gathered once: the comparator runs
	// O(|V| log |V|) times and must not go back to the map.
	type wordP struct {
		w string
		p float64
	}
	pairs := make([]wordP, 0, len(s.Words))
	for w, st := range s.Words {
		pairs = append(pairs, wordP{w, st.P})
	}
	slices.SortFunc(pairs, func(a, b wordP) int {
		if a.p != b.p {
			return cmp.Compare(b.p, a.p)
		}
		return strings.Compare(a.w, b.w)
	})
	if n < len(pairs) {
		pairs = pairs[:n]
	}
	words := make([]string, len(pairs))
	for i, pr := range pairs {
		words[i] = pr.w
	}
	return words
}

// Clone returns a deep copy of the summary.
func (s *Summary) Clone() *Summary {
	out := &Summary{
		NumDocs:    s.NumDocs,
		CW:         s.CW,
		SampleSize: s.SampleSize,
		Words:      make(map[string]Word, len(s.Words)),
	}
	for w, st := range s.Words {
		out.Words[w] = st
	}
	return out
}

// EffectiveDocFreq returns round(|D̂| · p̂(w|D)), the estimated number of
// documents containing w. The paper's evaluation counts a word as
// present in a summary only when this is at least 1 (Section 6.1), and
// CORI's cf statistic uses the same rule (Section 5.3).
func EffectiveDocFreq(v View, w string) int {
	return int(v.DocCount()*v.P(w) + 0.5)
}
