package gateway

import (
	"context"

	"repro"
)

// The old spellings benchmark/ compiles against (DESIGN §3, the
// benchcompat rule): the searcher interfaces the gateway was once built
// over, the constructor that took one, and the reply's old name. The
// product builds gateways with For.

// Searcher is the blocking half of the old searcher interface.
//
// compiled against by `benchmark/select_cold.go`
type Searcher interface {
	SearchExplained(ctx context.Context, query string, maxDBs, perDB int) (*repro.SearchResponse, error)
}

// StreamSearcher is the old searcher interface New took.
//
// compiled against by `benchmark/decorators.go` and `benchmark/trace_test.go`
type StreamSearcher interface {
	Searcher
	SearchExplainedObserved(ctx context.Context, query string, maxDBs, perDB int, obs repro.SearchEvents) (*repro.SearchResponse, error)
}

// New is For over a StreamSearcher's methods.
//
// compiled against by `benchmark/cluster_fanout.go`, `benchmark/serve_warm.go`
// and `benchmark/trace_test.go`
func New(s StreamSearcher, opts Options) *Gateway {
	return For(func(ctx context.Context, r repro.SearchRequest) (*repro.SearchResponse, error) {
		return s.SearchExplainedObserved(ctx, r.Query, r.MaxDBs, r.PerDB, r.Events)
	}, opts)
}

// SearchReply is the reply's old name.
//
// compiled against by `benchmark/client.go` and `benchmark/serve_warm.go`
type SearchReply = repro.SearchResponse
