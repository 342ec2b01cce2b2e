// Package refresh keeps a metasearcher's content summaries tracking the
// live databases they describe. The paper's premise is that a summary is
// a noisy estimate of a collection the metasearcher cannot see whole;
// this package adds the online half of that argument: a background
// manager that periodically draws a small fresh sample from each live
// node, measures how far the node's term distribution has drifted from
// the stored summary (smoothed Kullback-Leibler and Jensen-Shannon
// divergence over the term-frequency distributions), and — past a
// configured threshold — triggers a full rebuild of that node's summary
// plus its shrinkage ancestors, hot-swapped under traffic with a cache
// invalidation.
//
// The divergence test follows the similarity-of-texts literature
// (Altmann et al.): Jensen-Shannon divergence is symmetric and bounded
// by ln 2, so one threshold works across vocabulary sizes; the smoothed
// KL divergence is reported alongside for diagnosis (it is the quantity
// with the information-theoretic reading "bits wasted describing the
// node with the stale summary").
//
// The manager is deliberately decoupled from package repro: it drives
// any Target, so tests exercise drift logic against synthetic summaries
// without a live pipeline.
package refresh

import (
	"context"
	"encoding/json"
	"log/slog"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/stats"
	"repro/internal/summary"
	"repro/internal/telemetry"
)

// Target is the slice of the metasearcher a Manager drives:
// enumerating refreshable nodes, drawing cheap fresh samples to hold
// against the stored summaries, and rebuilding on drift.
// *repro.Metasearcher implements it.
type Target interface {
	// RefreshableDatabases lists the nodes with live connections this
	// process may re-sample (a cluster shard lists only its slice),
	// sorted by name.
	RefreshableDatabases() []string
	// ResampleSummary returns the node's current unshrunk content
	// summary and a fresh one, summarizing a sample of about docs
	// documents drawn from the live node without touching stored state.
	// Both are immutable once returned.
	ResampleSummary(ctx context.Context, name string, docs int) (stored, fresh *summary.Summary, err error)
	// RebuildSummary re-samples the node at full size, recomputes its
	// summary and every shrinkage ancestor, and atomically swaps the new
	// state in, invalidating the query caches.
	RebuildSummary(ctx context.Context, name string) error
}

// Distribution extracts a summary's term distribution: each word's
// average within-document frequency (Ptf), normalized to sum to one.
// Ptf is the summary's estimate of p(w|D), which is exactly the
// distribution the drift test should compare.
func Distribution(s *summary.Summary) map[string]float64 {
	if s == nil {
		return nil
	}
	out := make(map[string]float64, len(s.Words))
	var total float64
	for w, info := range s.Words {
		if info.Ptf > 0 {
			out[w] = info.Ptf
			total += info.Ptf
		}
	}
	if total <= 0 {
		return out
	}
	for w := range out {
		out[w] /= total
	}
	return out
}

// SmoothedKL computes KL(p ‖ q) over the union vocabulary with an
// epsilon floor: every union term gets probability mass at least eps
// before renormalization, so terms seen in one sample but not the other
// — guaranteed with small samples — cost a large-but-finite penalty
// instead of +Inf. eps <= 0 selects 1e-9.
func SmoothedKL(p, q map[string]float64, eps float64) float64 {
	if eps <= 0 {
		eps = 1e-9
	}
	union := unionVocab(p, q)
	pv := make([]float64, len(union))
	qv := make([]float64, len(union))
	for i, w := range union {
		pv[i] = p[w] + eps
		qv[i] = q[w] + eps
	}
	kl, err := stats.KLDivergence(stats.Normalize(pv), stats.Normalize(qv))
	if err != nil {
		return math.NaN()
	}
	return kl
}

// JSDivergence computes the Jensen-Shannon divergence between two term
// distributions over their union vocabulary. Symmetric, finite without
// smoothing (the mixture is positive wherever either input is), and
// bounded by ln 2 ≈ 0.693 — identical distributions score 0, fully
// disjoint vocabularies score ln 2.
func JSDivergence(p, q map[string]float64) float64 {
	var js float64
	for _, w := range unionVocab(p, q) {
		pw, qw := p[w], q[w]
		m := (pw + qw) / 2
		if pw > 0 {
			js += 0.5 * pw * math.Log(pw/m)
		}
		if qw > 0 {
			js += 0.5 * qw * math.Log(qw/m)
		}
	}
	return js
}

// unionVocab returns the sorted union of both maps' keys. Sorting makes
// the float accumulation order deterministic.
func unionVocab(p, q map[string]float64) []string {
	seen := make(map[string]bool, len(p)+len(q))
	out := make([]string, 0, len(p)+len(q))
	for w := range p {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	for w := range q {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	sort.Strings(out)
	return out
}

// Options tunes a Manager.
type Options struct {
	// Threshold is the Jensen-Shannon divergence past which a node's
	// summary is rebuilt (default 0.3; the useful range is (0, ln 2) —
	// small-sample noise against a same-corpus summary typically lands
	// well under 0.3, a topic change near ln 2).
	Threshold float64
	// SampleDocs is the size of the cheap drift-check sample (default
	// 50 — a fraction of the full build's sample, per the stratified
	// corpus-utility argument: a coarse estimate is enough to rank
	// "changed" against "unchanged").
	SampleDocs int
	// Metrics receives the refresh_* series (may be nil).
	Metrics *telemetry.Registry
	// Logger, when non-nil, receives drift detections and swap outcomes.
	Logger *slog.Logger
}

// NodeState is one node's refresh bookkeeping, as served at
// /debug/refresh.
type NodeState struct {
	Database  string    `json:"database"`
	Checks    int64     `json:"checks"`
	LastCheck time.Time `json:"last_check"`
	// LastJS and LastKL are the divergences of the latest check.
	LastJS float64 `json:"last_js_divergence"`
	LastKL float64 `json:"last_kl_divergence"`
	// Drifts counts threshold crossings; Swaps successful rebuilds.
	Drifts    int64     `json:"drifts"`
	Swaps     int64     `json:"swaps"`
	LastSwap  time.Time `json:"last_swap,omitzero"`
	LastError string    `json:"last_error,omitempty"`
}

// Manager drift-checks every refreshable node and rebuilds the drifted
// ones, one RunOnce pass at a time; the owner schedules the passes
// (clock.Every). Safe for concurrent use.
type Manager struct {
	target Target
	opts   Options

	checks, drifts, swaps, errors *telemetry.Counter
	genGauge                      *telemetry.Gauge

	mu         sync.Mutex
	states     map[string]*NodeState
	generation int64
}

// NewManager builds a Manager over target.
func NewManager(target Target, opts Options) *Manager {
	if opts.Threshold <= 0 {
		opts.Threshold = 0.3
	}
	if opts.SampleDocs <= 0 {
		opts.SampleDocs = 50
	}
	reg := opts.Metrics
	return &Manager{
		target: target,
		opts:   opts,

		checks:   reg.DeclareCounter("refresh_checks_total", "Drift checks run against live nodes (one resample + divergence each)."),
		drifts:   reg.DeclareCounter("refresh_drift_detected_total", "Drift checks whose divergence crossed the rebuild threshold."),
		swaps:    reg.DeclareCounter("refresh_swaps_total", "Summary rebuilds hot-swapped into the serving state."),
		errors:   reg.DeclareCounter("refresh_errors_total", "Drift checks or rebuilds that failed (node unreachable, sampling error)."),
		genGauge: reg.DeclareGauge("refresh_generation", "Monotonic count of summary swaps applied by the refresh manager."),

		states: make(map[string]*NodeState),
	}
}

// Generation returns how many summary swaps this manager has applied.
func (m *Manager) Generation() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.generation
}

// RunOnce drift-checks every refreshable node and rebuilds the drifted
// ones, returning how many summaries were swapped. Per-node failures
// are recorded (refresh_errors_total, NodeState.LastError) and do not
// stop the pass; the returned error is ctx's, if it expired mid-pass.
func (m *Manager) RunOnce(ctx context.Context) (int, error) {
	swapped := 0
	for _, name := range m.target.RefreshableDatabases() {
		if err := ctx.Err(); err != nil {
			return swapped, err
		}
		if m.checkOne(ctx, name) {
			swapped++
		}
	}
	return swapped, nil
}

// checkOne runs one node's drift check, rebuilding on threshold. True
// means a swap was applied.
func (m *Manager) checkOne(ctx context.Context, name string) bool {
	m.checks.Inc()
	st := m.state(name)

	stored, fresh, err := m.target.ResampleSummary(ctx, name, m.opts.SampleDocs)
	if err == nil {
		p := Distribution(stored)
		q := Distribution(fresh)
		js := JSDivergence(p, q)
		kl := SmoothedKL(p, q, 0)
		m.mu.Lock()
		st.Checks++
		st.LastCheck = time.Now()
		st.LastJS = js
		st.LastKL = kl
		st.LastError = ""
		m.mu.Unlock()
		if js <= m.opts.Threshold {
			return false
		}
		m.drifts.Inc()
		m.mu.Lock()
		st.Drifts++
		m.mu.Unlock()
		if m.opts.Logger != nil {
			m.opts.Logger.Info("summary drift detected, rebuilding",
				"db", name, "js_divergence", js, "kl_divergence", kl,
				"threshold", m.opts.Threshold)
		}
		if err = m.target.RebuildSummary(ctx, name); err == nil {
			m.swaps.Inc()
			m.mu.Lock()
			st.Swaps++
			st.LastSwap = time.Now()
			m.generation++
			gen := m.generation
			m.mu.Unlock()
			m.genGauge.Set(float64(gen))
			if m.opts.Logger != nil {
				m.opts.Logger.Info("summary rebuilt and swapped",
					"db", name, "refresh_generation", gen)
			}
			return true
		}
	}
	m.errors.Inc()
	m.mu.Lock()
	st.LastError = err.Error()
	m.mu.Unlock()
	if m.opts.Logger != nil {
		m.opts.Logger.Warn("summary refresh failed", "db", name, "error", err)
	}
	return false
}

// state returns (creating if needed) a node's bookkeeping record.
func (m *Manager) state(name string) *NodeState {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.states[name]
	if !ok {
		st = &NodeState{Database: name}
		m.states[name] = st
	}
	return st
}

// Snapshot returns every node's state, sorted by database name.
func (m *Manager) Snapshot() []NodeState {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]NodeState, 0, len(m.states))
	for _, st := range m.states {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Database < out[j].Database })
	return out
}

// Handler serves the manager's state as JSON (mount at /debug/refresh).
func (m *Manager) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		m.mu.Lock()
		gen := m.generation
		m.mu.Unlock()
		resp := struct {
			Generation int64       `json:"generation"`
			Threshold  float64     `json:"threshold"`
			SampleDocs int         `json:"sample_docs"`
			Nodes      []NodeState `json:"nodes"`
		}{
			Generation: gen,
			Threshold:  m.opts.Threshold,
			SampleDocs: m.opts.SampleDocs,
			Nodes:      m.Snapshot(),
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(resp)
	})
}
