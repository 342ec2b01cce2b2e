// Package audit records per-query selection evidence: for every
// metasearch query, one QueryRecord captures what the selection
// algorithm saw (per-database scores, the score's posterior uncertainty,
// the shrink-or-not verdict with the λ mixture actually used), which
// databases were selected and queried, what each node call cost
// (latency, retries), and where the merged results came from. Records
// live in a bounded lock-free ring served at /debug/queries, and can
// additionally be appended as JSONL to an audit log.
//
// The paper's core contribution is a per-query, per-database decision
// (Figure 3: use the shrunk summary only when the score's standard
// deviation exceeds its mean); this package is the layer that makes
// that decision auditable after the fact.
package audit

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Candidate is the selection evidence for one database.
type Candidate struct {
	// Database names the candidate.
	Database string `json:"database"`
	// Score is s(q, D) under the summary view the decision chose.
	Score float64 `json:"score"`
	// Selected reports whether the database made the selected set.
	Selected bool `json:"selected"`
	// Shrinkage reports the adaptive verdict: whether the shrunk
	// summary was used for this query/database.
	Shrinkage bool `json:"shrinkage"`
	// ScoreMean and ScoreStdDev describe the score distribution the
	// verdict was derived from (Section 4).
	ScoreMean   float64 `json:"score_mean"`
	ScoreStdDev float64 `json:"score_stddev"`
	// Lambdas is the shrinkage mixture actually used (nil when the
	// unshrunk summary was chosen): the vector core.Shrink built, shared,
	// never modified.
	Lambdas []core.Lambda `json:"lambdas,omitempty"`
	// Category is the classification path that mixture was fitted along,
	// root first — whose vocabulary the shrunk summary borrowed ("" when
	// the unshrunk summary was chosen).
	Category string `json:"category,omitempty"`
}

// NodeOutcome is how the call to one selected database ended: the part
// of a node's record that a streaming client is told as it happens
// (repro.NodeEvent, the node_result frame) and that the audit trail
// keeps (NodeCall). The field order is the frame's wire order.
type NodeOutcome struct {
	Database string `json:"database"`
	// Results is how many documents the database returned.
	Results int `json:"results"`
	// LatencySeconds is the wall time of the query call, including any
	// client retries.
	LatencySeconds float64 `json:"latency_seconds"`
	// Error is set when the call failed.
	Error string `json:"error,omitempty"`
	// OutOfScope marks databases the selection ranked but this process
	// deliberately did not query because they live on another shard of
	// the cluster (see the shard-scoped load path). Not a failure: the
	// router merges their results from the shards that own them.
	OutOfScope bool `json:"out_of_scope,omitempty"`
	// BreakerOpen marks calls the breaker short-circuited without
	// touching the node — distinct from Unavailable, which means the
	// node was actually tried and unreachable (or had no live handle).
	BreakerOpen bool `json:"breaker_open,omitempty"`
	Unavailable bool `json:"unavailable,omitempty"`
}

// NodeCall is what evaluating the query at one selected database cost:
// its outcome plus the transport-level evidence only the audit keeps.
type NodeCall struct {
	NodeOutcome
	// Attempts and Retries are the wire-level transport cost (zero for
	// in-process databases).
	Attempts int64 `json:"attempts,omitempty"`
	Retries  int64 `json:"retries,omitempty"`
	// Sheds is how many of those attempts the node's admission gate
	// rejected with 429 (backpressure, not failure).
	Sheds int64 `json:"sheds,omitempty"`
	// Hedged reports that a hedge request was launched against this
	// node (its primary attempt outlived the hedge threshold); HedgeWon
	// that the hedge, not the primary, produced the answer.
	Hedged   bool `json:"hedged,omitempty"`
	HedgeWon bool `json:"hedge_won,omitempty"`
	// BreakerState is the node's circuit-breaker state when the call
	// was admitted ("closed", "half_open", "open"; empty when breakers
	// are disabled).
	BreakerState string `json:"breaker_state,omitempty"`
}

// Hit is one merged document hit: an entry of a search reply's ranking
// (repro.Result is this type) and of a record's TopHits.
type Hit struct {
	// Database names the source database.
	Database string `json:"database"`
	// DocID is the document's id within that database.
	DocID int `json:"doc_id"`
	// Score is the merged ranking score: the database's selection
	// score, normalized across the selected databases, discounted by
	// the document's rank in its database's result list. Uncooperative
	// databases expose only ranked ids — no comparable document scores
	// — so rank-based merging is what a metasearcher actually has.
	Score float64 `json:"score"`
}

// QueryRecord is the full audit trail of one metasearch query.
type QueryRecord struct {
	// ID is the record's sequence number (1-based, monotonically
	// increasing per Log).
	ID uint64 `json:"id"`
	// TraceID links the record to the distributed trace of the same
	// query ("" when tracing is disabled).
	TraceID string `json:"trace_id,omitempty"`
	// Time is when the query arrived.
	Time time.Time `json:"time"`
	// Query is the raw query text; Terms the analyzed words actually
	// scored.
	Query string   `json:"query"`
	Terms []string `json:"terms,omitempty"`
	// Scorer names the base selection algorithm.
	Scorer string `json:"scorer,omitempty"`
	// MaxDBs and PerDB are the request's fan-out parameters.
	MaxDBs int `json:"max_dbs"`
	PerDB  int `json:"per_db"`
	// Candidates is the per-database selection evidence, in
	// registration order.
	Candidates []Candidate `json:"candidates,omitempty"`
	// Selected is the selected set in rank order.
	Selected []string `json:"selected,omitempty"`
	// Nodes records the query evaluation at each selected database.
	Nodes []NodeCall `json:"nodes,omitempty"`
	// Merged is the total merged result count; TopHits the highest
	// ranked merged documents (capped).
	Merged  int   `json:"merged"`
	TopHits []Hit `json:"top_hits,omitempty"`
	// CacheHit reports that the whole answer came from the result cache:
	// no selection ran and no database was queried for this record.
	// Nodes is empty on such records — the fan-out evidence lives in the
	// earlier record that populated the cache.
	CacheHit bool `json:"cache_hit,omitempty"`
	// SelectionCacheHit reports that the selection step was served from
	// the selection cache (the fan-out still ran).
	SelectionCacheHit bool `json:"selection_cache_hit,omitempty"`
	// Collapsed reports that this query piggybacked on an identical
	// concurrent query's in-flight work (singleflight): it received the
	// same answer without issuing its own fan-out.
	Collapsed bool `json:"collapsed,omitempty"`
	// ElapsedSeconds is the end-to-end query latency.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// Error is set when the query failed outright.
	Error string `json:"error,omitempty"`
}

// ShrinkageCount returns how many candidates used the shrunk summary.
func (r *QueryRecord) ShrinkageCount() int {
	n := 0
	for _, c := range r.Candidates {
		if c.Shrinkage {
			n++
		}
	}
	return n
}

// DefaultCapacity is the default ring size: enough recent queries to
// debug live traffic without unbounded growth.
const DefaultCapacity = 256

// Log is a bounded ring of the most recent QueryRecords. Writers are
// lock-free (an atomic sequence claims a slot, an atomic pointer
// publishes the record); readers see each slot atomically. An optional
// sink receives every record as one JSON line. All methods are safe on
// a nil receiver, so auditing can be disabled without conditionals.
type Log struct {
	seq   atomic.Uint64
	slots []slot

	sinkMu sync.Mutex
	sink   io.Writer
}

type slot struct {
	p atomic.Pointer[QueryRecord]
}

// NewLog creates a ring holding the last capacity records (capacity
// <= 0 selects DefaultCapacity).
func NewLog(capacity int) *Log {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Log{slots: make([]slot, capacity)}
}

// SetSink directs every subsequently added record to w as one JSON
// line (JSONL). Pass nil to stop. Writes are serialized; write errors
// are ignored (auditing must never fail a query).
func (l *Log) SetSink(w io.Writer) {
	if l == nil {
		return
	}
	l.sinkMu.Lock()
	l.sink = w
	l.sinkMu.Unlock()
}

// Add assigns the record its sequence ID, publishes it in the ring
// (evicting the oldest record once full), appends it to the sink if one
// is set, and returns the ID.
func (l *Log) Add(r *QueryRecord) uint64 {
	if l == nil || r == nil {
		return 0
	}
	id := l.seq.Add(1)
	r.ID = id
	l.slots[int((id-1)%uint64(len(l.slots)))].p.Store(r)
	l.sinkMu.Lock()
	if l.sink != nil {
		if b, err := json.Marshal(r); err == nil {
			l.sink.Write(append(b, '\n'))
		}
	}
	l.sinkMu.Unlock()
	return id
}

// Len returns how many records were ever added.
func (l *Log) Len() uint64 {
	if l == nil {
		return 0
	}
	return l.seq.Load()
}

// Get returns the record with the given ID, or nil if it never existed
// or has been evicted.
func (l *Log) Get(id uint64) *QueryRecord {
	if l == nil || id == 0 {
		return nil
	}
	r := l.slots[int((id-1)%uint64(len(l.slots)))].p.Load()
	if r == nil || r.ID != id {
		return nil
	}
	return r
}

// Last returns the most recent record (nil when empty). A racing
// writer may have claimed the next sequence number without having
// published yet; Last then falls back to the newest published record.
func (l *Log) Last() *QueryRecord {
	if l == nil {
		return nil
	}
	for id := l.seq.Load(); id > 0; id-- {
		if r := l.Get(id); r != nil {
			return r
		}
	}
	return nil
}

// Recent returns up to n records, newest first.
func (l *Log) Recent(n int) []*QueryRecord {
	if l == nil || n <= 0 {
		return nil
	}
	out := make([]*QueryRecord, 0, n)
	cur := l.seq.Load()
	for id := cur; id > 0 && len(out) < n; id-- {
		if cur-id >= uint64(len(l.slots)) {
			break // older slots have been overwritten
		}
		if r := l.Get(id); r != nil {
			out = append(out, r)
		}
	}
	return out
}
