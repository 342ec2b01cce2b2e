package shardmap

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"os"
	"reflect"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/telemetry"
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

// Snapshot is one published topology: the validated Topology, the
// monotonically increasing local generation stamped on it, and the diff
// against the previously published snapshot. Snapshots are immutable
// once published — consumers hold the pointer, never a lock.
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

// WatcherOptions tunes a Watcher.
type WatcherOptions struct {
	// Metrics receives topology_generation (gauge),
	// topology_reloads_total, and topology_reload_errors_total (may be
	// nil).
	Metrics *telemetry.Registry
	// Logger, when non-nil, logs accepted swaps and rejected files.
	Logger *slog.Logger
	// Clock stamps each snapshot's LoadedAt (nil: real time).
	Clock clock.Clock
}

// Watcher watches a topology file and publishes a new immutable
// Snapshot whenever the file changes to different, valid content. The
// detection is stat-based (mtime + size at each Poll, which the owner
// schedules with clock.Every); a stat change triggers a full read,
// parse, and Validate, and only a file that both parses and validates
// replaces the current snapshot — an invalid or torn edit is rejected
// (counted in topology_reload_errors_total, old snapshot kept) rather
// than splitting the cluster's world view.
//
// Subscribers run synchronously on the Poll caller, in registration
// order, before Poll returns; a subscriber is one process's swap hook
// (router ring swap, shard replica reconciliation, collector
// retargeting) and must not block for long.
type Watcher struct {
	path   string
	clock  clock.Clock
	logger *slog.Logger

	generation *telemetry.Gauge
	reloads    *telemetry.Counter
	reloadErrs *telemetry.Counter

	mu       sync.Mutex
	cur      *Snapshot
	lastMod  time.Time
	lastSize int64
	subs     []func(*Snapshot)
}

// NewWatcher loads and validates the topology file and returns a
// watcher whose initial snapshot (generation 1) holds it. Poll checks
// the file once; schedule it with clock.Every for live reconfiguration.
func NewWatcher(path string, opts WatcherOptions) (*Watcher, error) {
	w := &Watcher{
		path:       path,
		clock:      clock.Or(opts.Clock),
		logger:     opts.Logger,
		generation: opts.Metrics.DeclareGauge("topology_generation", "Generation of the topology snapshot this process is serving."),
		reloads:    opts.Metrics.DeclareCounter("topology_reloads_total", "Topology file reloads accepted (snapshot swapped)."),
		reloadErrs: opts.Metrics.DeclareCounter("topology_reload_errors_total", "Topology file reloads rejected (unreadable or invalid; old snapshot kept)."),
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

// Generation returns the current snapshot's generation.
func (w *Watcher) Generation() int64 { return w.Snapshot().Generation }

// Subscribe registers fn to run on every subsequently accepted swap;
// the initial snapshot is available via Snapshot, not delivered as an
// event.
func (w *Watcher) Subscribe(fn func(*Snapshot)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.subs = append(w.subs, fn)
}

// Poll checks the file once, synchronously: a changed, valid file is
// published (subscribers run before Poll returns) and Poll reports
// true. An unchanged file reports false with no error; a changed but
// unreadable or invalid file reports false with the error and keeps the
// current snapshot.
func (w *Watcher) Poll() (swapped bool, err error) {
	st, err := os.Stat(w.path)
	if err != nil {
		w.reloadErrs.Inc()
		return false, err
	}
	w.mu.Lock()
	unchanged := st.ModTime().Equal(w.lastMod) && st.Size() == w.lastSize
	w.mu.Unlock()
	if unchanged {
		return false, nil
	}
	topo, err := LoadFile(w.path)
	if err != nil {
		// Remember the rejected file's stat so an unfixed bad file is
		// not re-parsed every poll; the next edit triggers a fresh try.
		w.mu.Lock()
		w.lastMod, w.lastSize = st.ModTime(), st.Size()
		w.mu.Unlock()
		w.reloadErrs.Inc()
		if w.logger != nil {
			w.logger.Warn("topology reload rejected; keeping current snapshot", "path", w.path, "err", err)
		}
		return false, err
	}

	w.mu.Lock()
	w.lastMod, w.lastSize = st.ModTime(), st.Size()
	if reflect.DeepEqual(topo, w.cur.Topology) {
		// A touch or rewrite with identical content is not a topology
		// change; publishing it would churn every consumer for nothing.
		w.mu.Unlock()
		return false, nil
	}
	snap := &Snapshot{
		Topology:   topo,
		Generation: w.cur.Generation + 1,
		LoadedAt:   w.clock.Now(),
		Diff:       DiffTopologies(w.cur.Topology, topo),
	}
	w.cur = snap
	subs := append([]func(*Snapshot){}, w.subs...)
	w.mu.Unlock()

	w.generation.Set(float64(snap.Generation))
	w.reloads.Inc()
	if w.logger != nil {
		w.logger.Info("topology swapped", "path", w.path, "generation", snap.Generation,
			"shards", len(snap.Topology.Shards), "databases", len(snap.Topology.Databases))
	}
	for _, fn := range subs {
		fn(snap)
	}
	return true, nil
}

// Handler serves the watcher's state as JSON — the shard-side
// /debug/topology endpoint:
//
//	{"path": ..., "generation": 3, "loaded_at": ..., "last_diff": {...}}
func (w *Watcher) Handler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		snap := w.Snapshot()
		rw.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(rw)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Path       string    `json:"path"`
			Generation int64     `json:"generation"`
			LoadedAt   time.Time `json:"loaded_at"`
			Shards     int       `json:"shards"`
			Databases  int       `json:"databases"`
			LastDiff   Diff      `json:"last_diff"`
		}{w.path, snap.Generation, snap.LoadedAt, len(snap.Topology.Shards), len(snap.Topology.Databases), snap.Diff})
	})
}
