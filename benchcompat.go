package repro

import "context"

// The old spellings benchmark/ compiles against (DESIGN §3, the
// benchcompat rule): one-line forwarders to Search, used by nothing
// else.

// SearchExplained is Search without events.
//
// compiled against by `benchmark/cluster_fanout.go`, `benchmark/layers.go`,
// `benchmark/serve_warm.go` and, through gateway.Searcher,
// `benchmark/select_cold.go` and `benchmark/decorators.go`
func (m *Metasearcher) SearchExplained(ctx context.Context, query string, maxDBs, perDB int) (*SearchResponse, error) {
	return m.Search(ctx, SearchRequest{Query: query, MaxDBs: maxDBs, PerDB: perDB})
}

// SearchExplainedObserved is Search with events.
//
// compiled against by `benchmark/decorators.go` (gateway.StreamSearcher)
func (m *Metasearcher) SearchExplainedObserved(ctx context.Context, query string, maxDBs, perDB int, obs SearchEvents) (*SearchResponse, error) {
	return m.Search(ctx, SearchRequest{Query: query, MaxDBs: maxDBs, PerDB: perDB, Events: obs})
}

// LoadFileFiltered is LoadFile; keep is ignored. A process's search
// scope is the databases it holds live handles for, and the benchmark
// registers handles for exactly the databases its keep admits, so the
// load serves the same slice.
//
// compiled against by `benchmark/cluster_fanout.go`
func (m *Metasearcher) LoadFileFiltered(path string, keep func(name string) bool) error {
	return m.LoadFile(path)
}
