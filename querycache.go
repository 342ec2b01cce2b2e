package repro

import (
	"context"
	"strconv"
	"strings"

	"repro/internal/telemetry"
)

// The selection decision (Figure 3's adaptive choice, including the
// score moments over the document-frequency posterior) is a pure
// function of the analyzed query terms, k, the current summaries and the
// scorer — fixed for the life of the Metasearcher that owns the caches —
// so between summary rebuilds it is safe to cache. This file
// holds the cache keys and the cached selection step; the cached search
// path (result tier + singleflight) lives in search.go.

// selectionKey builds the selection-tier cache key from the analyzed
// (stemmed, stopped) terms and k. The summaries generation is not part
// of the key: the cache's generation counter carries it.
func selectionKey(terms []string, k int) string {
	var sb strings.Builder
	sb.WriteString("k=")
	sb.WriteString(strconv.Itoa(k))
	sb.WriteString(";q=")
	for i, t := range terms {
		if i > 0 {
			sb.WriteByte(0) // terms never contain NUL
		}
		sb.WriteString(t)
	}
	return sb.String()
}

// resultKey extends a selection key to the result tier, which
// additionally depends on the per-database retrieval depth.
func resultKey(selKey string, perDB int) string {
	return selKey + ";perdb=" + strconv.Itoa(perDB)
}

// selEntry is one cached selection decision plus the audit evidence it
// was made on. Shared between callers: never mutated after insertion.
type selEntry struct {
	sels    []Selection
	explain *selectionExplain
}

// selectCached is the selection step through the selection cache:
// a hit skips the entire adaptive-selection path (scoring every
// candidate plus the per-database score-uncertainty moments); a
// miss runs selectExplained once, with concurrent identical misses
// collapsed onto that one run. terms are the analyzed query. The
// returned slices are shared with the cache and must not be modified.
func (m *Metasearcher) selectCached(ctx context.Context, parent *telemetry.Span, terms []string, k int) (sels []Selection, ex *selectionExplain, hit bool, err error) {
	if m.selCache == nil || len(terms) == 0 {
		// Uncached, or not cacheable: selectExplained produces the
		// canonical no-terms error.
		sels, ex, err = m.selectExplained(parent, terms, k)
		return sels, ex, false, err
	}
	key := selectionKey(terms, k)
	v, hit, _, err := m.selCache.Do(ctx, key, func() (interface{}, error) {
		s, e, err := m.selectExplained(parent, terms, k)
		if err != nil {
			return nil, err
		}
		return &selEntry{sels: s, explain: e}, nil
	})
	if err != nil {
		return nil, nil, false, err
	}
	e := v.(*selEntry)
	if hit {
		parent.Event("select.cache_hit", telemetry.Int("k", k))
	}
	return e.sels, e.explain, hit, nil
}
