package repro

import (
	"fmt"
	"sort"
)

// ReplicaAssignment is one database this process must serve after a
// topology change: the database's name, its advertised category, the
// replica addresses serving it, and which replica this process prefers
// (the topology's owner-rank rotation). cmd/metasearch derives these
// from shardmap.ShardAssignments; the type lives here so the library
// does not depend on the topology-file format.
type ReplicaAssignment struct {
	Database  string
	Category  string
	Replicas  []string
	Preferred int
}

// TopologySwapReport is what one ApplyReplicaAssignments call changed
// that only this process knows: its scope. Which replicas joined or
// left is the topology diff's (shardmap.Diff), not repeated here.
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
// handles and search scope with a new topology — the shard-side half of
// a zero-downtime reconfiguration. For each assigned database:
//
//   - already in scope with a replicated handle: the replica set is
//     swapped in place (ReplicatedDatabase.UpdateReplicas) — surviving
//     replicas keep breaker state, clients, and in-flight counts;
//     removed ones drain and close; added ones get lazy clients with
//     breakers seeded half-open.
//   - newly in scope: a lazy replicated handle is attached (no network
//     I/O on the swap path) and the database joins the search scope.
//   - assigned but absent from the summary store: skipped and reported
//     — a database the selection statistics do not cover cannot serve.
//
// Databases in scope but no longer assigned are detached: their handles
// drain and close in the background, their breakers leave the set, and
// they revert to selection-only participation (exactly like an
// out-of-scope database at load time). In-flight searches finish on the
// handles of the store they loaded.
//
// The swap is all-or-nothing: every assignment is validated before
// anything is touched, the new handles and scope go into a copy of the
// store, and that copy is published once (staling the query caches — a
// cached merged result describes the old scope). A rejected assignment
// list leaves the scope and the handles as they were. Health probes
// need no retargeting: each Probe sweep reads the published store.
//
// client configures the wire clients of replicas created by this swap;
// its Budget defaults to the process's retry budget.
func (m *Metasearcher) ApplyReplicaAssignments(assigns []ReplicaAssignment, client RemoteDatabaseOptions) (*TopologySwapReport, error) {
	if client.Budget == nil {
		client.Budget = m.budget
	}
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
		// NewReplicatedDatabase has anything left to reject.
		changed := make(map[string]SearchableDatabase)
		newScope := make(map[string]bool, len(assigns))
		for _, a := range assigns {
			r := cur.byName[a.Database]
			if r == nil {
				rep.Unknown = append(rep.Unknown, a.Database)
				continue
			}
			newScope[a.Database] = true
			if rd, ok := r.db.(*ReplicatedDatabase); ok {
				if err := rd.UpdateReplicas(a.Replicas, a.Preferred); err != nil {
					return nil, err
				}
				continue
			}
			// Newly in scope (or a non-replicated handle being promoted):
			// attach a lazy replicated handle.
			rd, err := NewReplicatedDatabase(a.Database, a.Category, 0, a.Replicas, ReplicatedDatabaseOptions{
				Preferred: a.Preferred,
				Breakers:  m.breakers,
				Metrics:   m.reg,
				Client:    client,
			})
			if err != nil {
				return nil, err
			}
			changed[a.Database] = rd
			rep.Attached = append(rep.Attached, a.Database)
		}

		// The old effective scope is the explicit scope set when present
		// (cluster shards after LoadFiltered), otherwise every database
		// with a live handle (an unscoped process adopting a topology).
		// What left it is detached.
		dbs := make([]*registeredDB, len(cur.dbs))
		for i, old := range cur.dbs {
			in := old.db != nil
			if cur.scope != nil {
				in = cur.scope[old.name]
			}
			if in != newScope[old.name] {
				rep.ScopeChanged = true
			}
			if in && !newScope[old.name] && old.db != nil {
				changed[old.name] = nil
				detached = append(detached, old.db)
				rep.Detached = append(rep.Detached, old.name)
			}
			dbs[i] = old
			if db, ok := changed[old.name]; ok {
				r := *old
				r.db = db
				dbs[i] = &r
			}
		}
		return cur.withHandles(dbs, newScope), nil
	})
	if err != nil {
		return nil, err
	}
	for _, db := range detached {
		if rd, ok := db.(*ReplicatedDatabase); ok {
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
