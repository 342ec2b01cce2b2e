package repro

import (
	"sync"

	"repro/internal/audit"
)

// SearchEvents observes one search's incremental progress: the
// selection as soon as the configured scorer's adaptive ranking lands,
// each fan-out node's outcome as it arrives, and the partial merged
// ranking after each. It is SearchRequest.Events, the hook the
// streaming gateway (/v1/search/stream) plugs a frame publisher into.
//
// Calls are serialized by the emitter (never concurrent) and ordered:
// Selection once, then for each completed node a NodeResult followed by
// the MergeUpdate reflecting it. Implementations must not block — the
// fan-out worker that completed the node is the goroutine calling —
// and must not retain the slices past the call (they are the
// emitter's snapshots, handed to each observer call fresh).
type SearchEvents interface {
	// Selection delivers the selected database set in rank order,
	// with the analyzed terms and the scorer that ranked them. For a
	// cache-hit or collapsed search this is the only event before the
	// caller's final response: the fan-out it describes already ran.
	Selection(sels []Selection, terms []string, scorer string)
	// NodeResult delivers one selected database's fan-out outcome.
	NodeResult(ev NodeEvent)
	// MergeUpdate delivers the merged ranking over the nodes completed
	// so far, in the final deterministic order (the completed prefix of
	// the eventual answer's evidence).
	MergeUpdate(results []Result)
}

// NodeEvent is one fan-out node's outcome as streamed to observers:
// the outcome the audit record keeps (database, result count, latency,
// error, and the out-of-scope / breaker-open / unavailable marks) plus
// progress. It is the payload of a stream's node_result frame.
type NodeEvent struct {
	audit.NodeOutcome
	// Completed of Total fan-out slots have finished (this one
	// included), so clients can render progress.
	Completed int `json:"completed"`
	Total     int `json:"total"`
}

// searchEmitter serializes observer callbacks from concurrent fan-out
// workers and owns the partial-merge state. A nil emitter is inert, so
// the fan-out calls it unconditionally.
type searchEmitter struct {
	obs      SearchEvents
	sels     []Selection
	maxScore float64

	mu       sync.Mutex
	outcomes []nodeOutcome // emitter-owned copies; slots not yet done are zero (ok=false)
	done     int
}

func newSearchEmitter(obs SearchEvents, sels []Selection, maxScore float64) *searchEmitter {
	if obs == nil {
		return nil
	}
	return &searchEmitter{
		obs:      obs,
		sels:     sels,
		maxScore: maxScore,
		outcomes: make([]nodeOutcome, len(sels)),
	}
}

// record publishes one completed fan-out slot: the node event and the
// partial merge over everything completed so far. Emitting under the
// lock keeps NodeResult/MergeUpdate pairs ordered across workers; the
// observer contract (non-blocking) keeps the hold time trivial.
func (em *searchEmitter) record(i int, o nodeOutcome) {
	if em == nil {
		return
	}
	em.mu.Lock()
	defer em.mu.Unlock()
	em.outcomes[i] = o
	em.done++
	em.obs.NodeResult(NodeEvent{NodeOutcome: o.call.NodeOutcome, Completed: em.done, Total: len(em.outcomes)})
	// Zero-value slots are ok=false, so scoring the whole array merges
	// exactly the completed prefix — in the final answer's order.
	em.obs.MergeUpdate(scoreOutcomes(em.sels, em.maxScore, em.outcomes))
}
