// Package shardmap partitions the summary universe across a fleet of
// metasearcher shards. The paper assumes one process holds every
// database summary; past a few hundred thousand databases (or a few
// thousand QPS) one box cannot, so the cluster tier splits the
// federation: a deterministic consistent-hash ring maps every database
// name to N metasearcher shards, and a versioned JSON topology file
// gives the router and every shard an identical view of the mapping —
// no coordination service, no gossip, just the same pure function of
// the same file.
//
// The ring is the bounded-load variant (Mirrokni et al., "Consistent
// Hashing with Bounded Loads"): each shard owns many virtual nodes on a
// 64-bit ring, keys walk clockwise from their hash, and a shard that
// has already reached its load cap (LoadFactor × fair share) is skipped
// — so a skewed key space cannot pile onto one shard, while a shard
// join or leave still moves only O(K/N) keys. Every hash is FNV-64a:
// deterministic across processes, architectures, and restarts, which is
// the property the whole design rests on (hash/maphash is seeded per
// process and would silently split the cluster's view).
//
// Two replication notions coexist and must not be confused:
//
//   - Topology.Replication (R) is how many *shards* own each database.
//     With R ≥ 2 a shard crash loses no coverage: the router's merge
//     deduplicates the overlap.
//   - Database.Replicas are the addresses of the dbnode *processes*
//     serving that database's corpus. Each owning shard dials all of
//     them and prefers "its own" (rotated by owner rank), so replica
//     load spreads and a dead process fails over without losing the
//     database.
package shardmap

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"sort"
	"strconv"

	"repro/internal/atomicfile"
)

// TopologyVersion guards the topology file format: breaking changes
// bump it, additive changes extend the JSON objects.
const TopologyVersion = 1

// Defaults in effect when a topology leaves a field zero.
const (
	// DefaultVirtualNodes is the virtual nodes per shard. More vnodes
	// smooth the partition (each shard's arc becomes many small arcs)
	// at O(N·vnodes·log) ring-build cost; 128 keeps natural placement
	// balanced enough that the load caps rarely bind, which in turn
	// keeps join/leave movement near the ideal K/N (a cap that binds
	// cascades extra keys onto other shards when membership changes).
	DefaultVirtualNodes = 128
	// DefaultLoadFactor is the bounded-load slack c: no shard may own
	// more than ceil(c · K·R / N) databases.
	DefaultLoadFactor = 1.25
)

// maxVirtualNodes caps virtual_nodes. Every Owners call builds a ring
// of shards × virtual_nodes points, so an unbounded value in a
// rewritten file would exhaust a live router's or shard's memory
// instead of being rejected like any other bad edit.
const maxVirtualNodes = 4096

// Shard is one metasearcher shard process.
type Shard struct {
	// ID names the shard; it is what the ring hashes, so renaming a
	// shard moves its keys. IDs must be unique.
	ID string `json:"id"`
	// Addr is the shard's gateway base ("host:port" or a full http://
	// URL) the router fans out to.
	Addr string `json:"addr"`
}

// Database is one federated text database and the dbnode processes
// serving it.
type Database struct {
	// Name is the database's unique name — the ring key.
	Name string `json:"name"`
	// Category, when non-empty, is the known classification passed to
	// AddDatabase (the web-directory case of the paper).
	Category string `json:"category,omitempty"`
	// Replicas are the addresses of the dbnode processes serving this
	// database's corpus. All replicas must serve identical content; an
	// owning shard dials every one and fails over between them.
	Replicas []string `json:"replicas"`
}

// Topology is the cluster's shared world view, serialized as JSON. The
// router and every shard must load the identical file: assignment is a
// pure function of the topology, so agreement on the file is agreement
// on the partition.
type Topology struct {
	Version int `json:"version"`
	// VirtualNodes and LoadFactor tune the ring (zero selects the
	// defaults; VirtualNodes may not exceed 4096). They are part of the
	// file on purpose: two processes disagreeing on either would
	// disagree on the partition.
	VirtualNodes int     `json:"virtual_nodes,omitempty"`
	LoadFactor   float64 `json:"load_factor,omitempty"`
	// Replication is how many shards own each database (default 1,
	// clamped to the shard count).
	Replication int        `json:"replication,omitempty"`
	Shards      []Shard    `json:"shards"`
	Databases   []Database `json:"databases"`
}

// Assignment is one database as seen by one owning shard.
type Assignment struct {
	// Database and Category mirror the topology entry.
	Database string
	Category string
	// Replicas are all dbnode addresses serving the database.
	Replicas []string
	// Preferred is the index into Replicas this shard should try
	// first. Owner ranks rotate the preference, so when R shards own a
	// database their steady-state traffic spreads over its replicas
	// instead of piling onto the first address.
	Preferred int
}

// virtualNodes, loadFactor and replication resolve the ring parameters,
// a zero field meaning its default. They are read through these
// accessors and never written back: topologies are shared between
// goroutines (the watcher's apply hook, shards booting side by side), so
// nothing that reads one may modify it.
func (t *Topology) virtualNodes() int {
	if t.VirtualNodes == 0 {
		return DefaultVirtualNodes
	}
	return t.VirtualNodes
}

func (t *Topology) loadFactor() float64 {
	if t.LoadFactor == 0 {
		return DefaultLoadFactor
	}
	return t.LoadFactor
}

func (t *Topology) replication() int {
	if t.Replication == 0 {
		return 1
	}
	return t.Replication
}

// Validate checks the topology. It does not modify it.
func (t *Topology) Validate() error {
	if t.Version != TopologyVersion {
		return fmt.Errorf("shardmap: unsupported topology version %d (want %d)", t.Version, TopologyVersion)
	}
	if n := t.virtualNodes(); n < 1 || n > maxVirtualNodes {
		return fmt.Errorf("shardmap: virtual_nodes must be in [1, %d], got %d", maxVirtualNodes, t.VirtualNodes)
	}
	if t.loadFactor() < 1 {
		return fmt.Errorf("shardmap: load_factor must be >= 1, got %g", t.LoadFactor)
	}
	if len(t.Shards) == 0 {
		return errors.New("shardmap: topology has no shards")
	}
	if t.replication() < 1 {
		return fmt.Errorf("shardmap: replication must be positive, got %d", t.Replication)
	}
	if t.Replication > len(t.Shards) {
		return fmt.Errorf("shardmap: replication %d exceeds shard count %d", t.Replication, len(t.Shards))
	}
	seen := make(map[string]bool, len(t.Shards))
	for i, s := range t.Shards {
		if s.ID == "" {
			return fmt.Errorf("shardmap: shard %d has no id", i)
		}
		if seen[s.ID] {
			return fmt.Errorf("shardmap: duplicate shard id %q", s.ID)
		}
		seen[s.ID] = true
		if s.Addr == "" {
			return fmt.Errorf("shardmap: shard %q has no addr", s.ID)
		}
	}
	if len(t.Databases) == 0 {
		return errors.New("shardmap: topology has no databases")
	}
	names := make(map[string]bool, len(t.Databases))
	for i, d := range t.Databases {
		if d.Name == "" {
			return fmt.Errorf("shardmap: database %d has no name", i)
		}
		if names[d.Name] {
			return fmt.Errorf("shardmap: duplicate database %q", d.Name)
		}
		names[d.Name] = true
		if len(d.Replicas) == 0 {
			return fmt.Errorf("shardmap: database %q has no replicas", d.Name)
		}
		for _, addr := range d.Replicas {
			if addr == "" {
				return fmt.Errorf("shardmap: database %q has an empty replica address", d.Name)
			}
		}
	}
	return nil
}

// Load reads and validates a topology.
func Load(r io.Reader) (*Topology, error) {
	var t Topology
	if err := json.NewDecoder(bufio.NewReader(r)).Decode(&t); err != nil {
		return nil, fmt.Errorf("shardmap: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// LoadFile reads and validates a topology file.
func LoadFile(path string) (*Topology, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("shardmap: %w", err)
	}
	defer f.Close()
	return Load(f)
}

// Save writes the topology as indented JSON.
func (t *Topology) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(t); err != nil {
		return fmt.Errorf("shardmap: save: %w", err)
	}
	return nil
}

// SaveFile writes the topology crash-safely (temp file + rename), like
// every other state file in this repo: a torn topology would split the
// cluster's world view, which is the one thing the design forbids.
func (t *Topology) SaveFile(path string) error {
	return atomicfile.Write(path, 0o644, func(f *os.File) error {
		return t.Save(f)
	})
}

// hashString is FNV-64a — stable across processes, which maphash is
// not. Assignment determinism is a correctness property here, not a
// nicety: a router and a shard hashing differently would route queries
// to shards that skip them as out of scope.
func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// ring is the sorted virtual-node circle.
type ring struct {
	hashes []uint64 // sorted
	owner  []int    // owner[i] is the shard index owning hashes[i]
}

// buildRing places VirtualNodes points per shard. Shards are indexed in
// sorted-ID order so the ring is independent of the file's shard order.
func buildRing(shardIDs []string, vnodes int) *ring {
	type pt struct {
		h     uint64
		shard int
	}
	pts := make([]pt, 0, len(shardIDs)*vnodes)
	for si, id := range shardIDs {
		for v := 0; v < vnodes; v++ {
			pts = append(pts, pt{hashString(id + "#" + strconv.Itoa(v)), si})
		}
	}
	sort.Slice(pts, func(a, b int) bool {
		if pts[a].h != pts[b].h {
			return pts[a].h < pts[b].h
		}
		// A 64-bit collision between vnode labels is vanishingly rare
		// but must still order deterministically.
		return pts[a].shard < pts[b].shard
	})
	r := &ring{hashes: make([]uint64, len(pts)), owner: make([]int, len(pts))}
	for i, p := range pts {
		r.hashes[i] = p.h
		r.owner[i] = p.shard
	}
	return r
}

// walk calls fn with the shard index of each virtual node clockwise
// from key's hash (wrapping), until fn returns false or the ring is
// exhausted. The same shard is visited once per virtual node; fn is
// expected to dedupe.
func (r *ring) walk(key string, fn func(shard int) bool) {
	h := hashString(key)
	start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	for i := 0; i < len(r.hashes); i++ {
		if !fn(r.owner[(start+i)%len(r.hashes)]) {
			return
		}
	}
}

// Owners assigns every database to Replication distinct shards and
// returns name → owning shard IDs, in owner-rank order. The assignment
// is a pure function of the topology: keys are processed in sorted
// order, every hash is FNV-64a, and ties break on sorted positions, so
// any two processes holding the same file compute the same map.
//
// Bounded load: a shard already holding ceil(LoadFactor·K·R/N)
// databases is skipped on the first pass. If the caps leave a key with
// fewer than R distinct owners (only possible near the cap boundary),
// a second pass admits over-cap shards — coverage beats balance.
func (t *Topology) Owners() (map[string][]string, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	shardIDs := make([]string, len(t.Shards))
	for i, s := range t.Shards {
		shardIDs[i] = s.ID
	}
	sort.Strings(shardIDs)

	keys := make([]string, len(t.Databases))
	for i, d := range t.Databases {
		keys[i] = d.Name
	}
	sort.Strings(keys)

	rep := t.replication()
	r := buildRing(shardIDs, t.virtualNodes())
	n := len(shardIDs)
	cap_ := int(math.Ceil(t.loadFactor() * float64(len(keys)*rep) / float64(n)))
	load := make([]int, n)

	owners := make(map[string][]string, len(keys))
	for _, key := range keys {
		chosen := make([]int, 0, rep)
		taken := make([]bool, n)
		r.walk(key, func(shard int) bool {
			if taken[shard] || load[shard] >= cap_ {
				return true
			}
			taken[shard] = true
			chosen = append(chosen, shard)
			return len(chosen) < rep
		})
		if len(chosen) < rep {
			r.walk(key, func(shard int) bool {
				if taken[shard] {
					return true
				}
				taken[shard] = true
				chosen = append(chosen, shard)
				return len(chosen) < rep
			})
		}
		ids := make([]string, len(chosen))
		for j, si := range chosen {
			load[si]++
			ids[j] = shardIDs[si]
		}
		owners[key] = ids
	}
	return owners, nil
}

// ShardAssignments returns the databases the given shard owns, sorted
// by name, each with its replica list and this shard's preferred
// replica index (the owner rank rotated over the replicas).
func (t *Topology) ShardAssignments(shardID string) ([]Assignment, error) {
	found := false
	for _, s := range t.Shards {
		if s.ID == shardID {
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("shardmap: topology has no shard %q", shardID)
	}
	owners, err := t.Owners()
	if err != nil {
		return nil, err
	}
	var out []Assignment
	for _, d := range t.Databases {
		for rank, id := range owners[d.Name] {
			if id != shardID {
				continue
			}
			out = append(out, Assignment{
				Database:  d.Name,
				Category:  d.Category,
				Replicas:  append([]string(nil), d.Replicas...),
				Preferred: rank % len(d.Replicas),
			})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Database < out[b].Database })
	return out, nil
}
