package repro

import (
	"fmt"
	"sort"

	"repro/internal/replica"
	"repro/internal/shardmap"
)

// A remote database's handle is a replica set (internal/replica); the
// store holds it like any other live database.
var _ ContextSearchableDatabase = (*replica.Database)(nil)

// TopologySwapReport is what one ApplyReplicaAssignments call changed
// that only this process knows: which databases it holds live handles
// for. Which replicas joined or left is the topology diff's
// (shardmap.Diff), not repeated here.
type TopologySwapReport struct {
	// Attached lists databases that entered this process's scope (lazy
	// replica handles created); Detached those that left (handles
	// drained and closed).
	Attached []string `json:"attached,omitempty"`
	Detached []string `json:"detached,omitempty"`
	// Unknown lists assigned databases with no summary in the store:
	// they cannot be selected (selection is summary-driven), so they are
	// skipped until a rebuilt summary file is loaded.
	Unknown []string `json:"unknown,omitempty"`
	// ScopeChanged reports whether the search scope itself changed
	// (attach/detach), which also invalidates the query caches.
	ScopeChanged bool `json:"scope_changed"`
}

// ApplyReplicaAssignments reconciles this process's live replica
// handles — its search scope: a database is queried here exactly when
// the process holds its handle — with a topology. It is how a cluster
// shard gets its slice, at start-up (the first snapshot, after Load) as
// on every later swap. assigns is the shard's slice of the topology
// (shardmap.Topology.ShardAssignments). For each assigned database:
//
//   - already holding a replicated handle: the replica set is swapped
//     in place (replica.Database.UpdateReplicas) — surviving replicas
//     keep breaker state, clients, and in-flight counts; removed ones
//     drain and close; added ones get lazy clients with breakers seeded
//     half-open.
//   - otherwise: a lazy replicated handle is attached (no network I/O
//     on the swap path; each replica's identity is checked on first
//     contact, and a Probe sweep is the first contact of all of them).
//   - assigned but absent from the summary store: skipped and reported
//     — a database the selection statistics do not cover cannot serve.
//
// Databases holding a handle but no longer assigned are detached: their
// handles drain and close in the background, their breakers leave the
// set, and they revert to selection-only participation (out of scope).
// In-flight searches finish on the handles of the store they loaded.
//
// The swap is all-or-nothing: every assignment is validated before
// anything is touched, the new handles go into a copy of the store, and
// that copy is published once (staling the query caches — a cached
// merged result describes the old scope). A rejected assignment list
// leaves the handles as they were. Health probes need no retargeting:
// each Probe sweep reads the published store. The wire clients of the
// replicas a swap creates draw their retries from the process's budget.
func (m *Metasearcher) ApplyReplicaAssignments(assigns []shardmap.Assignment) (*TopologySwapReport, error) {
	for _, a := range assigns {
		if len(a.Replicas) == 0 {
			return nil, fmt.Errorf("repro: topology assigns database %q an empty replica set (remove the database instead)", a.Database)
		}
	}
	rep := &TopologySwapReport{}
	var detached []SearchableDatabase
	err := m.update(func(cur *store) (*store, error) {
		// changed maps a database to its new handle (nil = detached). The
		// replica lists were checked above, so neither UpdateReplicas nor
		// replica.New has anything left to reject.
		changed := make(map[string]SearchableDatabase)
		assigned := make(map[string]bool, len(assigns))
		for _, a := range assigns {
			r, _ := cur.lookup(a.Database)
			if r == nil {
				rep.Unknown = append(rep.Unknown, a.Database)
				continue
			}
			assigned[a.Database] = true
			if rd, ok := r.db.(*replica.Database); ok {
				if err := rd.UpdateReplicas(a.Replicas, a.Preferred); err != nil {
					return nil, err
				}
				continue
			}
			// Newly in scope (or a non-replicated handle being promoted):
			// attach a lazy replicated handle.
			rd, err := replica.New(a.Database, a.Category, 0, a.Replicas, replica.Options{
				Preferred: a.Preferred,
				Breakers:  m.breakers,
				Metrics:   m.reg,
				Client:    replica.ClientOptions{Budget: m.budget},
			})
			if err != nil {
				return nil, err
			}
			changed[a.Database] = rd
			rep.Attached = append(rep.Attached, a.Database)
		}

		dbs := make([]*registeredDB, len(cur.dbs))
		for i, old := range cur.dbs {
			name := old.src.Name
			if (old.db != nil) != assigned[name] {
				rep.ScopeChanged = true
			}
			if old.db != nil && !assigned[name] {
				changed[name] = nil
				detached = append(detached, old.db)
				rep.Detached = append(rep.Detached, name)
			}
			dbs[i] = old
			if db, ok := changed[name]; ok {
				r := *old
				r.db = db
				dbs[i] = &r
			}
		}
		return cur.withHandles(dbs), nil
	})
	if err != nil {
		return nil, err
	}
	for _, db := range detached {
		if rd, ok := db.(*replica.Database); ok {
			rd.Close()
		}
		m.breakers.Remove(db.Name())
	}
	sort.Strings(rep.Attached)
	sort.Strings(rep.Detached)
	sort.Strings(rep.Unknown)
	m.logInfo("topology swap applied",
		"attached", len(rep.Attached), "detached", len(rep.Detached),
		"unknown", len(rep.Unknown), "scope_changed", rep.ScopeChanged)
	return rep, nil
}
