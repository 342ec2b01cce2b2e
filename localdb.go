package repro

import (
	"repro/internal/index"
	"repro/internal/textproc"
)

// LocalDatabase is an in-memory SearchableDatabase backed by the
// library's own inverted index — handy for testing, for examples, and
// for metasearching over local corpora. It plays the role Jakarta
// Lucene plays in the paper's testbed.
type LocalDatabase struct {
	name string
	ix   *index.Index
}

// NewLocalDatabaseFromTerms indexes pre-analyzed term slices directly.
// Queries reach the database through the Metasearcher's text analysis
// (by default: stopwords dropped, Porter stems, terms of two letters or
// more), so raw text should be analyzed the same way before indexing.
func NewLocalDatabaseFromTerms(name string, docs [][]string) *LocalDatabase {
	b := index.NewBuilder(len(docs))
	for _, d := range docs {
		b.Add(d)
	}
	return &LocalDatabase{name: name, ix: b.Build()}
}

// Name implements SearchableDatabase.
func (d *LocalDatabase) Name() string { return d.name }

// Query implements SearchableDatabase.
func (d *LocalDatabase) Query(terms []string, limit int) (int, []int) {
	matches, top := d.ix.Search(terms, limit)
	ids := make([]int, len(top))
	for i, r := range top {
		ids[i] = int(r.Doc)
	}
	return matches, ids
}

// Fetch implements SearchableDatabase.
func (d *LocalDatabase) Fetch(id int) []string { return d.ix.Doc(index.DocID(id)) }

// NumDocs returns the database's true size (not visible to the
// metasearcher, which must estimate it by sample–resample).
func (d *LocalDatabase) NumDocs() int { return d.ix.NumDocs() }

// defaultLexicon is a compact list of common English content words for
// bootstrapping query-based sampling when the caller provides none.
func defaultLexicon() []string {
	words := []string{
		"time", "year", "people", "way", "day", "man", "thing", "woman",
		"life", "child", "world", "school", "state", "family", "student",
		"group", "country", "problem", "hand", "part", "place", "case",
		"week", "company", "system", "program", "question", "work",
		"government", "number", "night", "point", "home", "water", "room",
		"mother", "area", "money", "story", "fact", "month", "lot",
		"right", "study", "book", "eye", "job", "word", "business",
		"issue", "side", "kind", "head", "house", "service", "friend",
		"father", "power", "hour", "game", "line", "end", "member", "law",
		"car", "city", "community", "name", "president", "team", "minute",
		"idea", "kid", "body", "information", "back", "parent", "face",
		"others", "level", "office", "door", "health", "person", "art",
		"war", "history", "party", "result", "change", "morning",
		"reason", "research", "girl", "guy", "moment", "air", "teacher",
		"force", "education",
	}
	// Stem the lexicon so it matches the analyzed term space, deduping
	// afterwards (distinct words can share a stem, and duplicates would
	// bias QBS's uniform bootstrap draw towards them).
	out := make([]string, 0, len(words))
	seen := make(map[string]bool, len(words))
	for _, w := range words {
		s := textproc.Stem(w)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
