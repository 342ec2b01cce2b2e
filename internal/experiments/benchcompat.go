package experiments

import "repro/internal/summary"

// The old spelling benchmark/ compiles against (DESIGN §3, the
// benchcompat rule), used by nothing else.

// GlobalSummary is the derivation's Root summary.
//
// compiled against by `benchmark/layers.go`
func (s *DBSummaries) GlobalSummary() *summary.Summary { return s.Root }
