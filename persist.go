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
	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/summary"
	"repro/internal/zipf"
)

// Sampling a remote database costs hundreds of queries, so deployments
// build content summaries offline and load them at query time (the
// paper computes the λ weights offline for the same reason). SaveFile
// and LoadFile persist a built Metasearcher's summaries; a loaded
// metasearcher can Select immediately without any live database
// connection, because selection consults only the summaries.

// persistVersion guards the on-disk format.
const persistVersion = 1

// maxSizeEst bounds a loaded size estimate: up to 2^53 a float64 holds
// every integer, so selection's int(|D̂|) is the count the file says.
const maxSizeEst = 1 << 53

// The save file is one JSON object,
//
//	{"version":1,"databases":[…],"training_docs":N,"checksum":"sha256:…"}
//
// whose checksum is the sha256 of the canonical (encoding/json, compact)
// encoding of the databases array. SaveFile writes the array in that
// form, so it hashes the bytes as they stream out; LoadFile re-encodes
// what it decoded, so a re-indented file still verifies and a torn or
// corrupted one is rejected loudly instead of loading garbage
// summaries. Both work database by database on GOMAXPROCS workers
// (encoding and decoding are CPU-bound) and put the pieces together in
// file order.
type persistEnvelope struct {
	Version   int         `json:"version"`
	Databases []persistDB `json:"databases"`
	Training  int         `json:"training_docs"` // informational
	Checksum  string      `json:"checksum"`
}

// ErrNoChecksum is LoadFile's error for a save file without a content
// checksum: there is nothing to verify the summaries against, so the
// file is refused rather than trusted. Every SaveFile writes one.
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
	// Telemetry is optional: save files written before it existed load
	// fine, with zero sampling queries.
	Telemetry *buildTelemetry `json:"telemetry,omitempty"`
}

// buildTelemetry is a database's "telemetry" object in the save file.
// LoadFile reads only SampleQueries, the provenance the summary cannot
// tell: the EM count and λ are the derivation's over the file's
// summaries, which LoadFile re-runs, so SaveFile writes them for the
// file's readers and LoadFile's re-derivation reproduces them.
type buildTelemetry struct {
	// SampleQueries is the number of queries the sampler (and its
	// resample probes) sent to the database.
	SampleQueries int `json:"sample_queries"`
	// EMIterations is the Figure 2 iteration count to convergence.
	EMIterations int `json:"em_iterations"`
	// Lambdas is the converged mixture-weight vector, uniform component
	// first, the database itself last.
	Lambdas []core.Lambda `json:"lambdas,omitempty"`
}

// save writes the built summaries to w (SaveFile's body).
func (m *Metasearcher) save(w io.Writer) error {
	st := m.state.Load()
	if st.derived == nil {
		return errors.New("repro: nothing to save; run BuildSummaries first")
	}
	pieces := make([][]byte, len(st.dbs))
	err := pool.ForEach(len(st.dbs), runtime.GOMAXPROCS(0), m.reg, func(i int) (err error) {
		pieces[i], err = m.encodeDB(st, i)
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
	// A save marks a summary state the operator may re-load or ship to
	// other processes; bumping the generation here keeps "what the cache
	// answers from" never older than "what is on disk".
	m.invalidateCaches()
	return nil
}

// encodeDB is the element of the save file's databases array for st's
// i-th database, in canonical form.
func (m *Metasearcher) encodeDB(st *store, i int) ([]byte, error) {
	r, sh := st.dbs[i], st.derived.Shrunk[i]
	var buf bytes.Buffer
	if err := r.src.Sum.Encode(&buf); err != nil {
		return nil, fmt.Errorf("repro: encoding %s: %w", r.src.Name, err)
	}
	pd := persistDB{
		Name:     r.src.Name,
		Category: m.tree.Node(r.src.Category).Name,
		SizeEst:  r.src.Size,
		Gamma:    r.src.Gamma,
		Sample:   r.src.Sum.SampleSize,
		Summary:  json.RawMessage(buf.Bytes()),
		Telemetry: &buildTelemetry{
			SampleQueries: r.sampleQueries,
			EMIterations:  sh.EMIterations(),
			Lambdas:       sh.Lambdas(),
		},
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
// behind (LoadFile would reject one anyway, via the checksum).
// BuildSummaries must have succeeded.
func (m *Metasearcher) SaveFile(path string) error {
	return atomicfile.Write(path, 0o644, func(f *os.File) error {
		return m.save(f)
	})
}

// LoadFile restores summaries previously written by SaveFile into this
// metasearcher, replacing any registered databases, and rebuilds the
// category summaries and shrunk summaries. The metasearcher must have
// been created with the same hierarchy the state was saved under
// (category names are matched by name). A database already registered
// under a name the save file mentions keeps its live handle, so a
// deployment can dial remote nodes first, load offline-built
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
func (m *Metasearcher) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("repro: load: %w", err)
	}
	defer f.Close()
	return m.load(f)
}

// load is LoadFile's body over a reader.
func (m *Metasearcher) load(r io.Reader) error {
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
	invalid := make([]error, n)
	canonical := make([][]byte, n)
	err := pool.ForEach(n, runtime.GOMAXPROCS(0), m.reg, func(i int) (err error) {
		if canonical[i], err = json.Marshal(env.Databases[i]); err != nil {
			return fmt.Errorf("repro: load: %w", err)
		}
		dbs[i], invalid[i] = m.decodeDB(env.Databases[i])
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
			if live, _ := cur.lookup(r.src.Name); live != nil {
				r.db = live.db
			}
		}
		return m.deriveStore(dbs, m.seedLexicon(), env.Training, nil), nil
	})
}

// decodeDB turns one element of the save file into a registered
// database (no live handle), or says what is wrong with its content.
// A summary without a sample size takes the file's sample_size.
func (m *Metasearcher) decodeDB(pd persistDB) (*registeredDB, error) {
	switch {
	case pd.Sample < 0:
		return nil, fmt.Errorf("repro: database %q: sample_size %d is negative", pd.Name, pd.Sample)
	case pd.SizeEst < 0 || pd.SizeEst > maxSizeEst:
		return nil, fmt.Errorf("repro: database %q: size_estimate %g is outside [0, 2^53]", pd.Name, pd.SizeEst)
	case pd.Gamma != 0 && (pd.Gamma < zipf.MinGamma || pd.Gamma > zipf.MaxGamma):
		return nil, fmt.Errorf("repro: database %q: gamma %g is outside [%g, %g] (0 means the default −2)", pd.Name, pd.Gamma, zipf.MinGamma, zipf.MaxGamma)
	case pd.Telemetry != nil && pd.Telemetry.SampleQueries < 0:
		return nil, fmt.Errorf("repro: database %q: sample_queries %d is negative", pd.Name, pd.Telemetry.SampleQueries)
	}
	cat, ok := m.tree.Lookup(pd.Category)
	if !ok {
		return nil, fmt.Errorf("repro: database %q references unknown category %q", pd.Name, pd.Category)
	}
	sum, err := summary.Decode(bytes.NewReader(pd.Summary))
	if err != nil {
		return nil, fmt.Errorf("repro: database %q: %w", pd.Name, err)
	}
	if sum.SampleSize == 0 {
		sum.SampleSize = pd.Sample
	} else if sum.SampleSize != pd.Sample {
		return nil, fmt.Errorf("repro: database %q: sample_size %d disagrees with its summary's %d", pd.Name, pd.Sample, sum.SampleSize)
	}
	r := &registeredDB{category: cat}
	r.src.Name, r.src.Category, r.src.Sum = pd.Name, cat, sum
	r.src.Size, r.src.Gamma = pd.SizeEst, pd.Gamma
	if pd.Telemetry != nil {
		r.sampleQueries = pd.Telemetry.SampleQueries
	}
	return r, nil
}
