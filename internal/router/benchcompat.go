package router

import (
	"context"

	"repro"
)

// The old spellings benchmark/ compiles against (DESIGN §3, the
// benchcompat rule): one-line forwarders to Search, used by nothing
// else.

// SearchExplained is Search without events.
//
// compiled against by `benchmark/cluster_fanout.go` (through
// gateway.StreamSearcher in `benchmark/decorators.go`)
func (r *Router) SearchExplained(ctx context.Context, query string, maxDBs, perDB int) (*repro.SearchResponse, error) {
	return r.Search(ctx, repro.SearchRequest{Query: query, MaxDBs: maxDBs, PerDB: perDB})
}

// SearchExplainedObserved is Search with events.
//
// compiled against by `benchmark/cluster_fanout.go` (through
// gateway.StreamSearcher in `benchmark/decorators.go`)
func (r *Router) SearchExplainedObserved(ctx context.Context, query string, maxDBs, perDB int, obs repro.SearchEvents) (*repro.SearchResponse, error) {
	return r.Search(ctx, repro.SearchRequest{Query: query, MaxDBs: maxDBs, PerDB: perDB, Events: obs})
}
