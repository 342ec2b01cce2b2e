package repro

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"runtime"

	"repro/internal/atomicfile"
	"repro/internal/pool"
	"repro/internal/summary"
)

// Sampling a remote database costs hundreds of queries, so deployments
// build content summaries offline and load them at query time (the
// paper computes the λ weights offline for the same reason). Save and
// Load persist a built Metasearcher's summaries; a loaded metasearcher
// can Select immediately without any live database connection, because
// selection consults only the summaries.

// persistVersion guards the on-disk format.
const persistVersion = 1

// The save file is one JSON object,
//
//	{"version":1,"databases":[…],"training_docs":N,"checksum":"sha256:…"}
//
// whose checksum is the sha256 of the canonical (encoding/json, compact)
// encoding of the databases array. Save writes the array in that form,
// so it hashes the bytes as they stream out; Load re-encodes what it
// decoded, so a re-indented file still verifies and a torn or corrupted
// one is rejected loudly instead of loading garbage summaries. Both
// work database by database on GOMAXPROCS workers (encoding and
// decoding are CPU-bound) and put the pieces together in file order.
type persistEnvelope struct {
	Version   int         `json:"version"`
	Databases []persistDB `json:"databases"`
	Training  int         `json:"training_docs"` // informational
	Checksum  string      `json:"checksum"`
}

// ErrNoChecksum is Load's error for a save file without a content
// checksum: there is nothing to verify the summaries against, so the
// file is refused rather than trusted. Every Save writes one.
var ErrNoChecksum = errors.New("repro: load: save file carries no content checksum")

// writeDatabases writes the canonical JSON array whose elements are
// pieces, letting go of each piece once it is written. It is handed a
// hash, which cannot fail, and a bufio.Writer, whose Flush reports the
// first failed write; so it returns nothing.
func writeDatabases(w io.Writer, pieces [][]byte) {
	io.WriteString(w, "[")
	for i, p := range pieces {
		if i > 0 {
			io.WriteString(w, ",")
		}
		w.Write(p)
		pieces[i] = nil
	}
	io.WriteString(w, "]")
}

func checksumString(h hash.Hash) string {
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

type persistDB struct {
	Name     string          `json:"name"`
	Category string          `json:"category"` // assigned classification (unique name)
	SizeEst  float64         `json:"size_estimate"`
	Gamma    float64         `json:"gamma"`
	Sample   int             `json:"sample_size"`
	Summary  json.RawMessage `json:"summary"`
	// Telemetry is the build provenance (sampling cost, EM convergence,
	// λ vector). Optional: save files written before it existed load
	// fine, leaving the provenance zero.
	Telemetry *BuildTelemetry `json:"telemetry,omitempty"`
}

// Save writes the built summaries. BuildSummaries must have succeeded.
func (m *Metasearcher) Save(w io.Writer) error {
	st := m.state.Load()
	if !st.built {
		return errors.New("repro: nothing to save; run BuildSummaries first")
	}
	pieces := make([][]byte, len(st.dbs))
	err := pool.ForEach(len(st.dbs), runtime.GOMAXPROCS(0), m.reg, func(i int) (err error) {
		pieces[i], err = m.encodeDB(st.dbs[i])
		return err
	})
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	h := sha256.New()
	fmt.Fprintf(bw, `{"version":%d,"databases":`, persistVersion)
	writeDatabases(io.MultiWriter(bw, h), pieces)
	fmt.Fprintf(bw, `,"training_docs":%d,"checksum":"%s"}`+"\n", st.trainingDocs, checksumString(h))
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("repro: save: %w", err)
	}
	// A save marks a summary state the operator may re-Load or ship to
	// other processes; bumping the generation here keeps "what the cache
	// answers from" never older than "what is on disk".
	m.InvalidateCaches()
	return nil
}

// encodeDB is one database's element of the save file's databases
// array, in canonical form.
func (m *Metasearcher) encodeDB(r *registeredDB) ([]byte, error) {
	var buf bytes.Buffer
	if err := r.unshrunk.Encode(&buf); err != nil {
		return nil, fmt.Errorf("repro: encoding %s: %w", r.name, err)
	}
	pd := persistDB{
		Name:      r.name,
		Category:  m.tree.Node(r.assigned).Name,
		SizeEst:   r.sizeEst,
		Gamma:     r.gamma,
		Sample:    r.sampleLen,
		Summary:   json.RawMessage(buf.Bytes()),
		Telemetry: r.prov,
	}
	piece, err := json.Marshal(pd)
	if err != nil {
		return nil, fmt.Errorf("repro: save: %w", err)
	}
	return piece, nil
}

// SaveFile writes the built summaries to path crash-safely: the bytes
// land in a temp file first and are renamed over path only once fully
// written, so a crash mid-save cannot leave a truncated state file
// behind (Load would reject one anyway, via the checksum).
func (m *Metasearcher) SaveFile(path string) error {
	return atomicfile.Write(path, 0o644, func(f *os.File) error {
		return m.Save(f)
	})
}

// LoadFile restores summaries previously written by SaveFile (or any
// Save output on disk).
func (m *Metasearcher) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("repro: load: %w", err)
	}
	defer f.Close()
	return m.Load(f)
}

// Load restores summaries previously written by Save into this
// metasearcher, replacing any registered databases, and rebuilds the
// category summaries and shrunk summaries. The metasearcher must have
// been created with the same hierarchy the state was saved under
// (category names are matched by name). A database already registered
// under a name the save file mentions keeps its live handle, so a
// deployment can dial remote nodes first, Load offline-built
// summaries second, and Search immediately; one the file names but
// this process holds no handle for is ranked and never queried here
// (out of scope). The file's content checksum is verified; a file
// without one is refused (ErrNoChecksum).
//
// The complete store is what every cluster shard loads, and this is
// the shrinkage invariant the cluster tier rests on: selection scores
// are functions of collection-wide statistics (the CORI context's mean
// document counts and collection frequencies, the category summaries
// every shrunk summary was EM-fit against, and the LM root model).
// Every shard therefore computes bit-identical selections from the
// identical file, and the router can merge per-shard rankings into
// exactly the single-process answer. A shard's slice is its live
// handles, which ApplyReplicaAssignments attaches after the load:
// summaries are kilobytes; connections, probes, and query fan-out are
// what sharding actually divides.
//
// The file is decoded, verified and shrunk into a complete new store
// before anything is published, and the publish bumps the cache
// generation: queries answer from the previous summaries until then,
// and a rejected file changes nothing.
func (m *Metasearcher) Load(r io.Reader) error {
	if m.scorerErr != nil {
		return m.scorerErr
	}
	var env persistEnvelope
	if err := json.NewDecoder(bufio.NewReader(r)).Decode(&env); err != nil {
		return fmt.Errorf("repro: load: %w", err)
	}
	if env.Version != persistVersion {
		return fmt.Errorf("repro: unsupported save version %d", env.Version)
	}
	if env.Checksum == "" {
		return ErrNoChecksum
	}

	// Per database: re-encode canonically for the checksum (the summary,
	// a RawMessage, passes through compacted), decode the summary, and
	// let the file's bytes go. What is wrong with a database's content
	// (invalid) is held back until the checksum has verified — a
	// corrupted file is reported as corrupted — and then reported for
	// the first database in file order.
	n := len(env.Databases)
	dbs := make([]*registeredDB, n)
	persisted := make([]*BuildTelemetry, n)
	invalid := make([]error, n)
	canonical := make([][]byte, n)
	err := pool.ForEach(n, runtime.GOMAXPROCS(0), m.reg, func(i int) (err error) {
		if canonical[i], err = json.Marshal(env.Databases[i]); err != nil {
			return fmt.Errorf("repro: load: %w", err)
		}
		dbs[i], persisted[i], invalid[i] = m.decodeDB(env.Databases[i])
		env.Databases[i].Summary = nil
		return nil
	})
	if err != nil {
		return err
	}
	h := sha256.New()
	writeDatabases(h, canonical)
	if sum := checksumString(h); sum != env.Checksum {
		return fmt.Errorf("repro: load: checksum mismatch (file says %s, content is %s) — save file is corrupted or was torn mid-write", env.Checksum, sum)
	}
	seen := make(map[string]bool, n)
	for i, pd := range env.Databases {
		if pd.Name == "" || seen[pd.Name] {
			return fmt.Errorf("repro: invalid or duplicate database name %q", pd.Name)
		}
		seen[pd.Name] = true
		if invalid[i] != nil {
			return invalid[i]
		}
	}
	if n == 0 {
		return errors.New("repro: save file contains no databases")
	}

	return m.update(func(cur *store) (*store, error) {
		// Registered databases the file names keep their live handles.
		for _, r := range dbs {
			if live := cur.byName[r.name]; live != nil {
				r.db = live.db
			}
		}
		st := m.deriveStore(dbs, m.seedLexicon(), env.Training, nil)
		// The persisted provenance is that of the deployed summaries,
		// even though the EM re-run above converges equally.
		for i, r := range dbs {
			r.prov = persisted[i]
		}
		return st, nil
	})
}

// decodeDB turns one element of the save file into a registered
// database (no live handle) and its persisted provenance, or says what
// is wrong with its content.
func (m *Metasearcher) decodeDB(pd persistDB) (*registeredDB, *BuildTelemetry, error) {
	cat, ok := m.tree.Lookup(pd.Category)
	if !ok {
		return nil, nil, fmt.Errorf("repro: database %q references unknown category %q", pd.Name, pd.Category)
	}
	sum, err := summary.Decode(bytes.NewReader(pd.Summary))
	if err != nil {
		return nil, nil, fmt.Errorf("repro: database %q: %w", pd.Name, err)
	}
	r := &registeredDB{
		name:      pd.Name,
		category:  cat,
		fixedCat:  true,
		assigned:  cat,
		unshrunk:  sum,
		sizeEst:   pd.SizeEst,
		gamma:     pd.Gamma,
		sampleLen: pd.Sample,
	}
	return r, pd.Telemetry, nil
}
