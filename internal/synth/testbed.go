package synth

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/hierarchy"
	"repro/internal/index"
)

// Database is one searchable text database of a testbed, together with
// its ground-truth classification (the role the Google Directory plays
// for the paper's Web data set).
type Database struct {
	// Name identifies the database (e.g. "www.heart-2.example" or "all-17").
	Name string
	// Category is the true classification of the database. For
	// cluster-built (TREC-style) databases it is the dominant source
	// category of the cluster's documents.
	Category hierarchy.NodeID
	// Index is the database's search engine.
	Index *index.Index
}

// Size returns the number of documents |D|.
func (d *Database) Size() int { return d.Index.NumDocs() }

// Testbed bundles the databases of one evaluation data set with the
// world they were generated from.
type Testbed struct {
	Name      string
	Tree      *hierarchy.Tree
	Gen       *Generator
	Databases []*Database
	Queries   []Query
}

// TotalDocs returns the number of documents across all databases.
func (t *Testbed) TotalDocs() int {
	var n int
	for _, d := range t.Databases {
		n += d.Size()
	}
	return n
}

// WebConfig controls the Web testbed builder.
type WebConfig struct {
	// PerLeaf databases are created for every leaf category (default 5,
	// as in the paper's "top-5 real web databases from each of the 54
	// leaf categories").
	PerLeaf int
	// Extra arbitrary databases classified under random non-root
	// categories of any depth (default 45, for the paper's total of 315).
	Extra int
	// MinSize and MaxSize bound the log-uniform database size
	// distribution (defaults 100 and 3000; the paper's Web databases
	// span 100 to ~376,000 documents — we keep the two-and-a-half
	// orders of magnitude spread at laptop scale).
	MinSize, MaxSize int
	// Seed drives database composition (sizes, private vocabularies,
	// per-database mixture jitter, documents).
	Seed int64
}

func (c WebConfig) withDefaults() WebConfig {
	if c.PerLeaf == 0 {
		c.PerLeaf = 5
	}
	if c.Extra == 0 {
		c.Extra = 45
	}
	if c.MinSize == 0 {
		c.MinSize = 100
	}
	if c.MaxSize == 0 {
		c.MaxSize = 3000
	}
	return c
}

// BuildWeb generates the Web testbed: PerLeaf databases per leaf
// category plus Extra databases under arbitrary categories, mirroring
// the construction of the paper's 315-database Web set.
func BuildWeb(g *Generator, cfg WebConfig) (*Testbed, error) {
	cfg = cfg.withDefaults()
	if cfg.MinSize <= 0 || cfg.MaxSize < cfg.MinSize {
		return nil, errors.New("synth: invalid Web size bounds")
	}
	tree := g.Tree()
	bed := &Testbed{Name: "Web", Tree: tree, Gen: g}

	type assignment struct {
		cat  hierarchy.NodeID
		name string
	}
	var assigns []assignment
	for _, leaf := range tree.Leaves() {
		base := strings.ToLower(strings.ReplaceAll(tree.Node(leaf).Name, " ", ""))
		for i := 0; i < cfg.PerLeaf; i++ {
			assigns = append(assigns, assignment{
				cat:  leaf,
				name: fmt.Sprintf("www.%s-%d.example", base, i+1),
			})
		}
	}
	pickRng := subRNG(cfg.Seed, 0x5eb)
	nonRoot := tree.All()[1:]
	for i := 0; i < cfg.Extra; i++ {
		cat := nonRoot[pickRng.Intn(len(nonRoot))]
		base := strings.ToLower(strings.ReplaceAll(tree.Node(cat).Name, " ", ""))
		assigns = append(assigns, assignment{
			cat:  cat,
			name: fmt.Sprintf("www.%s-extra%d.example", base, i+1),
		})
	}

	logMin, logMax := math.Log(float64(cfg.MinSize)), math.Log(float64(cfg.MaxSize))
	for i, a := range assigns {
		rng := subRNG(cfg.Seed, 1, int64(i))
		size := int(math.Round(math.Exp(logMin + rng.Float64()*(logMax-logMin))))
		db, err := buildDatabase(g, a.name, a.cat, size, rng)
		if err != nil {
			return nil, err
		}
		bed.Databases = append(bed.Databases, db)
	}
	return bed, nil
}

// buildDatabase generates one database of the given size classified
// under cat, with its own private vocabulary and mixture jitter.
func buildDatabase(g *Generator, name string, cat hierarchy.NodeID, size int, rng *rand.Rand) (*Database, error) {
	private, err := g.NewPrivateVocab("x" + sanitize(name) + "_")
	if err != nil {
		return nil, err
	}
	src := g.NewDocSource(cat, private, rng)
	b := index.NewBuilder(size)
	var buf []string
	for i := 0; i < size; i++ {
		buf = src.GenDoc(rng, buf)
		b.Add(buf)
	}
	return &Database{Name: name, Category: cat, Index: b.Build()}, nil
}

// sanitize reduces a database name to a compact vocabulary prefix.
func sanitize(name string) string {
	var sb strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			sb.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			sb.WriteRune(r - 'A' + 'a')
		}
		if sb.Len() >= 12 {
			break
		}
	}
	return sb.String()
}
