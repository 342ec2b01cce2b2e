package shardmap

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"reflect"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Diff is the structured difference between two topologies: which
// shards and database replicas a reconfiguration added, removed, or
// moved. It is what a swap consumer needs to reconcile live state —
// drain removed replicas, lazily dial added ones — without re-deriving
// the change from two full files.
type Diff struct {
	// ShardsAdded/Removed list shard IDs new to / gone from the
	// topology; ShardsMoved lists shards whose gateway address changed.
	ShardsAdded   []string `json:"shards_added,omitempty"`
	ShardsRemoved []string `json:"shards_removed,omitempty"`
	ShardsMoved   []string `json:"shards_moved,omitempty"`
	// DatabasesAdded/Removed list database names that entered or left
	// the federation.
	DatabasesAdded   []string `json:"databases_added,omitempty"`
	DatabasesRemoved []string `json:"databases_removed,omitempty"`
	// ReplicasAdded/Removed map database name → replica addresses that
	// joined or left its replica set (for databases present on both
	// sides).
	ReplicasAdded   map[string][]string `json:"replicas_added,omitempty"`
	ReplicasRemoved map[string][]string `json:"replicas_removed,omitempty"`
}

// Empty reports whether the diff describes no change.
func (d Diff) Empty() bool {
	return len(d.ShardsAdded) == 0 && len(d.ShardsRemoved) == 0 && len(d.ShardsMoved) == 0 &&
		len(d.DatabasesAdded) == 0 && len(d.DatabasesRemoved) == 0 &&
		len(d.ReplicasAdded) == 0 && len(d.ReplicasRemoved) == 0
}

// DiffTopologies computes the structured difference from old to new.
// Both topologies should be validated; a nil old treats everything in
// new as added.
func DiffTopologies(old, new *Topology) Diff {
	var d Diff
	oldShards := make(map[string]string)
	if old != nil {
		for _, s := range old.Shards {
			oldShards[s.ID] = s.Addr
		}
	}
	newShards := make(map[string]string, len(new.Shards))
	for _, s := range new.Shards {
		newShards[s.ID] = s.Addr
		if addr, ok := oldShards[s.ID]; !ok {
			d.ShardsAdded = append(d.ShardsAdded, s.ID)
		} else if addr != s.Addr {
			d.ShardsMoved = append(d.ShardsMoved, s.ID)
		}
	}
	for id := range oldShards {
		if _, ok := newShards[id]; !ok {
			d.ShardsRemoved = append(d.ShardsRemoved, id)
		}
	}

	oldDBs := make(map[string][]string)
	if old != nil {
		for _, db := range old.Databases {
			oldDBs[db.Name] = db.Replicas
		}
	}
	newDBs := make(map[string][]string, len(new.Databases))
	for _, db := range new.Databases {
		newDBs[db.Name] = db.Replicas
		oldReplicas, ok := oldDBs[db.Name]
		if !ok {
			d.DatabasesAdded = append(d.DatabasesAdded, db.Name)
			continue
		}
		added := addrsMissing(db.Replicas, oldReplicas)
		removed := addrsMissing(oldReplicas, db.Replicas)
		if len(added) > 0 {
			if d.ReplicasAdded == nil {
				d.ReplicasAdded = make(map[string][]string)
			}
			d.ReplicasAdded[db.Name] = added
		}
		if len(removed) > 0 {
			if d.ReplicasRemoved == nil {
				d.ReplicasRemoved = make(map[string][]string)
			}
			d.ReplicasRemoved[db.Name] = removed
		}
	}
	for name := range oldDBs {
		if _, ok := newDBs[name]; !ok {
			d.DatabasesRemoved = append(d.DatabasesRemoved, name)
		}
	}
	sort.Strings(d.ShardsAdded)
	sort.Strings(d.ShardsRemoved)
	sort.Strings(d.ShardsMoved)
	sort.Strings(d.DatabasesAdded)
	sort.Strings(d.DatabasesRemoved)
	return d
}

// addrsMissing returns the elements of a not present in b, in a's order.
func addrsMissing(a, b []string) []string {
	in := make(map[string]bool, len(b))
	for _, x := range b {
		in[x] = true
	}
	var out []string
	for _, x := range a {
		if !in[x] {
			out = append(out, x)
		}
	}
	return out
}

// Snapshot is one adopted topology: the validated Topology, the
// monotonically increasing local generation stamped on it, and the diff
// against the previously adopted snapshot. Snapshots are immutable once
// adopted — consumers hold the pointer, never a lock.
//
// Generation is per-process and starts at 1 for the snapshot loaded at
// construction. It is not stored in the file: two processes watching
// the same file count their own reloads, and "the fleet converged"
// means every member reports a generation whose underlying file content
// matches — operationally, every member's generation bumped after the
// same edit.
type Snapshot struct {
	Topology   *Topology
	Generation int64
	LoadedAt   time.Time
	Diff       Diff
}

// Swap is the audit record of one adopted reload: its generation, when
// it was adopted, and what it changed.
type Swap struct {
	Generation int64     `json:"generation"`
	AppliedAt  time.Time `json:"applied_at"`
	Diff       Diff      `json:"diff"`
}

// maxSwaps bounds the audit trail of adopted reloads kept in memory.
const maxSwaps = 64

// WatcherOptions tunes a Watcher.
type WatcherOptions struct {
	// Metrics receives topology_generation (gauge),
	// topology_reloads_total, and topology_reload_errors_total (may be
	// nil).
	Metrics *telemetry.Registry
	// Logger logs adopted and rejected reloads (nil: slog.Default()).
	Logger *slog.Logger
}

// Watcher watches a topology file and is the process's one record of
// which topology it serves. The detection is stat-based (mtime + size
// at each Poll, which the owner schedules with clock.Every); a stat
// change triggers a full read, parse, and Validate. A file that
// validates and differs from the current snapshot is offered to the
// process's apply hook (OnSwap), and adopted — generation bumped,
// topology_generation set, swap appended to the trail — only when the
// hook returns nil. An unreadable or invalid file and a snapshot the
// hook rejects are handled alike: counted in
// topology_reload_errors_total, logged, the file's stat remembered, and
// the old snapshot kept, so the next Diff is taken against what the
// process really applied.
type Watcher struct {
	path   string
	clock  clock.Clock // stamps LoadedAt: real time, a fake in tests
	logger *slog.Logger

	generation *telemetry.Gauge
	reloads    *telemetry.Counter
	reloadErrs *telemetry.Counter

	pollMu   sync.Mutex // serializes Poll, and with it the hook
	lastMod  time.Time
	lastSize int64
	apply    func(*Snapshot) error

	mu    sync.Mutex // guards cur and swaps for readers
	cur   *Snapshot
	swaps []Swap // bounded audit trail, oldest first
}

// NewWatcher loads and validates the topology file and returns a
// watcher whose initial snapshot (generation 1) holds it. Poll checks
// the file once; schedule it with clock.Every for live reconfiguration.
func NewWatcher(path string, opts WatcherOptions) (*Watcher, error) {
	w := &Watcher{
		path:       path,
		clock:      clock.Real,
		logger:     opts.Logger,
		generation: opts.Metrics.DeclareGauge("topology_generation", "Generation of the topology snapshot this process applied and serves."),
		reloads:    opts.Metrics.DeclareCounter("topology_reloads_total", "Topology file reloads applied (snapshot swapped)."),
		reloadErrs: opts.Metrics.DeclareCounter("topology_reload_errors_total", "Topology file reloads rejected (unreadable, invalid, or refused by the process; old snapshot kept)."),
	}
	if w.logger == nil {
		w.logger = slog.Default()
	}
	topo, err := LoadFile(path)
	if err != nil {
		return nil, err
	}
	if st, err := os.Stat(path); err == nil {
		w.lastMod, w.lastSize = st.ModTime(), st.Size()
	}
	w.cur = &Snapshot{Topology: topo, Generation: 1, LoadedAt: w.clock.Now()}
	w.generation.Set(1)
	return w, nil
}

// Snapshot returns the current immutable snapshot (never nil).
func (w *Watcher) Snapshot() *Snapshot {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.cur
}

// Swaps returns the bounded audit trail of adopted reloads, oldest
// first.
func (w *Watcher) Swaps() []Swap {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]Swap(nil), w.swaps...)
}

// OnSwap sets the process's one apply hook: every changed, valid file
// is offered to it before Poll returns, and adopted only if it returns
// nil. The hook must leave the process as it was when it fails. The
// initial snapshot is available via Snapshot, not offered.
func (w *Watcher) OnSwap(apply func(*Snapshot) error) {
	w.pollMu.Lock()
	defer w.pollMu.Unlock()
	w.apply = apply
}

// Poll checks the file once, synchronously: a changed, valid file the
// apply hook accepts is adopted and Poll reports true. An unchanged
// file reports false with no error; a changed file that is unreadable,
// invalid, or refused by the hook reports false with the error and
// keeps the current snapshot.
func (w *Watcher) Poll() (swapped bool, err error) {
	w.pollMu.Lock()
	defer w.pollMu.Unlock()
	st, err := os.Stat(w.path)
	if err != nil {
		w.reloadErrs.Inc() // not logged: a missing file would log every poll
		return false, err
	}
	if st.ModTime().Equal(w.lastMod) && st.Size() == w.lastSize {
		return false, nil
	}
	// Remember the stat whatever the outcome, so an unfixed bad file is
	// not retried every poll; the next edit triggers a fresh try.
	w.lastMod, w.lastSize = st.ModTime(), st.Size()
	topo, err := LoadFile(w.path)
	if err != nil {
		return false, w.reject(err)
	}
	cur := w.Snapshot()
	if reflect.DeepEqual(topo, cur.Topology) {
		// A touch or rewrite with identical content is not a topology
		// change; offering it would churn the process for nothing.
		return false, nil
	}
	snap := &Snapshot{
		Topology:   topo,
		Generation: cur.Generation + 1,
		LoadedAt:   w.clock.Now(),
		Diff:       DiffTopologies(cur.Topology, topo),
	}
	if w.apply != nil {
		if err := w.apply(snap); err != nil {
			return false, w.reject(fmt.Errorf("generation %d not applied: %w", snap.Generation, err))
		}
	}

	w.mu.Lock()
	w.cur = snap
	w.swaps = append(w.swaps, Swap{Generation: snap.Generation, AppliedAt: snap.LoadedAt, Diff: snap.Diff})
	if len(w.swaps) > maxSwaps {
		w.swaps = w.swaps[len(w.swaps)-maxSwaps:]
	}
	w.mu.Unlock()
	w.generation.Set(float64(snap.Generation))
	w.reloads.Inc()
	w.logger.Info("topology swapped", "path", w.path, "generation", snap.Generation,
		"shards", len(topo.Shards), "databases", len(topo.Databases))
	return true, nil
}

// reject counts and logs a reload that was not adopted and returns err.
func (w *Watcher) reject(err error) error {
	w.reloadErrs.Inc()
	w.logger.Warn("topology reload rejected; keeping current snapshot", "path", w.path, "err", err)
	return err
}

// Status reports the adopted generation and when it was adopted (zero
// before the first swap) — gateway.Options.Topology's /v1/healthz view.
func (w *Watcher) Status() *wire.TopologyStatus { return status(w.Snapshot()) }

func status(snap *Snapshot) *wire.TopologyStatus {
	st := &wire.TopologyStatus{Generation: snap.Generation}
	if snap.Generation > 1 {
		st.LastSwapUnixMs = snap.LoadedAt.UnixMilli()
	}
	return st
}

// Handler serves the adopted topology and the swap trail as JSON — the
// /debug/topology endpoint of every process that watches the file:
//
//	{"path": ..., "generation": 3, "last_swap_unix_ms": ..., "shards": [{"id", "addr"}],
//	 "databases": 12, "swaps": [{"generation": 2, "applied_at": ..., "diff": {...}}, ...]}
func (w *Watcher) Handler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		w.mu.Lock()
		snap, swaps := w.cur, append([]Swap{}, w.swaps...)
		w.mu.Unlock()
		st := status(snap)
		rw.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(rw)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Path           string  `json:"path"`
			Generation     int64   `json:"generation"`
			LastSwapUnixMs int64   `json:"last_swap_unix_ms,omitempty"`
			Shards         []Shard `json:"shards"`
			Databases      int     `json:"databases"`
			Swaps          []Swap  `json:"swaps"`
		}{w.path, st.Generation, st.LastSwapUnixMs, snap.Topology.Shards, len(snap.Topology.Databases), swaps})
	})
}
