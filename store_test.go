package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/hierarchy"
	"repro/internal/replica"
	"repro/internal/shardmap"
)

// Tests of the summary store's contract (store.go): a query sees one
// published store whole, readers never wait for writers, every way of
// building a store goes through the one deriveStore, and a writer that
// fails publishes nothing.

var (
	storeMedical = []string{"heart", "cancer", "patient", "drug", "clinic", "therapy", "nurse", "dose"}
	storeSpace   = []string{"galaxy", "star", "planet", "orbit", "telescope", "comet", "nebula", "cosmos"}
	storeSports  = []string{"football", "league", "goal", "match", "coach", "season", "striker", "stadium"}
	storeQueries = []string{
		"heart cancer patient",
		"galaxy telescope",
		"football stadium goal",
		"clinic orbit league",
	}
)

// newStoreWorld builds a four-database metasearcher whose "drifty"
// database can have its corpus replaced (swappableDB) and its calls
// held at a gate (gatedDB).
func newStoreWorld(t *testing.T, opts Options) (*Metasearcher, *gatedDB) {
	t.Helper()
	opts.SampleSize = 40
	opts.SeedLexicon = append(append(append([]string{}, storeMedical...), storeSpace...), storeSports...)
	opts.Seed = 1
	opts.KeepStopwords = true
	opts.NoStemming = true
	m := New(opts)
	drifty := &gatedDB{
		swappableDB: &swappableDB{name: "drifty", db: NewLocalDatabaseFromTerms("drifty", corpus(storeMedical, 80))},
		entered:     make(chan struct{}, 1),
	}
	for _, d := range []struct {
		db  SearchableDatabase
		cat string
	}{
		{drifty, "Health"},
		{NewLocalDatabaseFromTerms("ward", corpus(storeMedical[2:], 60)), "Health"},
		{NewLocalDatabaseFromTerms("stable", corpus(storeSpace, 80)), "Science"},
		{NewLocalDatabaseFromTerms("arena", corpus(storeSports[:6], 70)), "Sports"},
	} {
		if err := m.AddDatabase(d.db, d.cat); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.BuildSummaries(); err != nil {
		t.Fatal(err)
	}
	return m, drifty
}

// gatedDB holds every Query at a gate while one is armed.
type gatedDB struct {
	*swappableDB
	gate    atomic.Pointer[chan struct{}]
	entered chan struct{} // signalled (without blocking) by each held call
}

func (g *gatedDB) arm() (open func()) {
	ch := make(chan struct{})
	g.gate.Store(&ch)
	return func() {
		g.gate.Store(nil)
		close(ch)
	}
}

func (g *gatedDB) Query(terms []string, limit int) (int, []int) {
	if ch := g.gate.Load(); ch != nil {
		select {
		case g.entered <- struct{}{}:
		default:
		}
		<-*ch
	}
	return g.swappableDB.Query(terms, limit)
}

// selectionPrint is the bit-exact fingerprint of a selection.
func selectionPrint(sels []Selection) string {
	var sb strings.Builder
	for _, s := range sels {
		fmt.Fprintf(&sb, "%s/%016x/%v;", s.Database, math.Float64bits(s.Score), s.Shrinkage)
	}
	return sb.String()
}

// candidatesPrint is the bit-exact fingerprint of an audit record's
// selection evidence, λ vectors included.
func candidatesPrint(cands []audit.Candidate) string {
	var sb strings.Builder
	for _, c := range cands {
		fmt.Fprintf(&sb, "%s/%016x/%v/%v/%016x/%016x[", c.Database, math.Float64bits(c.Score),
			c.Selected, c.Shrinkage, math.Float64bits(c.ScoreMean), math.Float64bits(c.ScoreStdDev))
		for _, l := range c.Lambdas {
			fmt.Fprintf(&sb, "%s=%016x,", l.Component, math.Float64bits(l.Weight))
		}
		sb.WriteString("];")
	}
	return sb.String()
}

// answers maps each query to its (reply, audit record) fingerprints
// under the currently served store.
func answers(t *testing.T, m *Metasearcher) map[string][2]string {
	t.Helper()
	out := make(map[string][2]string, len(storeQueries))
	for _, q := range storeQueries {
		resp, err := m.Search(context.Background(), SearchRequest{Query: q, MaxDBs: 3, PerDB: 3})
		if err != nil {
			t.Fatalf("search %q: %v", q, err)
		}
		out[q] = [2]string{selectionPrint(resp.Selections), candidatesPrint(m.Audit().Last().Candidates)}
	}
	return out
}

// recordChecker is an audit sink that checks every record's evidence
// against the allowed answers as it is written.
type recordChecker struct {
	mu      sync.Mutex
	allowed map[string]map[string]bool // query → allowed candidate fingerprints (nil = not checking yet)
	seen    int
	bad     []string
}

func (rc *recordChecker) Write(b []byte) (int, error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.allowed == nil {
		return len(b), nil
	}
	var rec audit.QueryRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		rc.bad = append(rc.bad, "undecodable record: "+err.Error())
		return len(b), nil
	}
	rc.seen++
	if !rc.allowed[rec.Query][candidatesPrint(rec.Candidates)] && len(rc.bad) < 5 {
		rc.bad = append(rc.bad, fmt.Sprintf("record %d for %q mixes stores: %s", rec.ID, rec.Query, candidatesPrint(rec.Candidates)))
	}
	return len(b), nil
}

// TestStoreSwapAtomicity: while queries run, the store is swapped by
// RebuildSummary and LoadFile between two known states. Every reply and
// every audit record must be one state's answer or the other's — bit
// for bit, λ vectors included — never a mixture, and once the swaps
// stop the served answers are exactly the last state's (no cache entry
// from an older store survives under the new generation). GOMAXPROCS is
// raised so that every swap's deriveStore (and the LoadFile before it)
// really fans out while the readers read, whatever the machine; run
// under -race this is the check that the fork-join shares nothing with
// them.
func TestStoreSwapAtomicity(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	sink := &recordChecker{}
	m, drifty := newStoreWorld(t, Options{AuditLog: sink}) // caches stay on
	dir := t.TempDir()
	fileA, fileB := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := m.SaveFile(fileA); err != nil {
		t.Fatal(err)
	}
	// The live collection changes; state A keeps the medical summary,
	// state B is the rebuild over the sports contents.
	drifty.swap(NewLocalDatabaseFromTerms("drifty", corpus(storeSports, 80)))
	stateA := answers(t, m)
	if err := m.RebuildSummary(context.Background(), "drifty"); err != nil {
		t.Fatal(err)
	}
	stateB := answers(t, m)
	if err := m.SaveFile(fileB); err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(stateA, stateB) {
		t.Fatal("the rebuild changed no answer; the test cannot tell the two stores apart")
	}
	allowedSel := make(map[string]map[string]bool)
	allowedRec := make(map[string]map[string]bool)
	for _, q := range storeQueries {
		allowedSel[q] = map[string]bool{stateA[q][0]: true, stateB[q][0]: true}
		allowedRec[q] = map[string]bool{stateA[q][1]: true, stateB[q][1]: true}
	}
	sink.mu.Lock()
	sink.allowed = allowedRec
	sink.mu.Unlock()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var replies atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := storeQueries[i%len(storeQueries)]
				resp, err := m.Search(context.Background(), SearchRequest{Query: q, MaxDBs: 3, PerDB: 3})
				if err != nil {
					t.Errorf("search %q during a swap: %v", q, err)
					return
				}
				replies.Add(1)
				if got := selectionPrint(resp.Selections); !allowedSel[q][got] {
					t.Errorf("reply for %q is neither store's answer: %s", q, got)
					return
				}
			}
		}(g)
	}
	for round := 0; round < 5; round++ {
		for _, swap := range []func() error{
			func() error { return m.LoadFile(fileA) },
			func() error { return m.RebuildSummary(context.Background(), "drifty") }, // → B
			func() error { return m.LoadFile(fileA) },
			func() error { return m.LoadFile(fileB) },
		} {
			if err := swap(); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			// Let the readers answer a few queries from each store.
			for target, deadline := replies.Load()+8, time.Now().Add(10*time.Second); replies.Load() < target && !t.Failed() && time.Now().Before(deadline); {
				runtime.Gosched()
			}
		}
	}
	if err := m.LoadFile(fileA); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if replies.Load() == 0 {
		t.Fatal("no query completed during the swaps")
	}
	if got := answers(t, m); !reflect.DeepEqual(got, stateA) {
		t.Errorf("after the last swap (to state A) the served answers are not state A's:\n got %v\nwant %v", got, stateA)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if sink.seen == 0 {
		t.Error("the audit sink saw no record")
	}
	t.Logf("%d replies and %d audit records checked across 21 swaps", replies.Load(), sink.seen)
	for _, b := range sink.bad {
		t.Error(b)
	}
}

// TestReadersDoNotWaitForWriters: a rebuild whose database hangs holds
// the writers' mutex for as long as it likes; Select must keep
// answering from the published store meanwhile, a build that then fails
// must publish nothing, and one that succeeds must be served as soon as
// it returns.
func TestReadersDoNotWaitForWriters(t *testing.T) {
	m, drifty := newStoreWorld(t, Options{})
	const q = "football stadium goal"
	selectNow := func() string {
		t.Helper()
		type res struct {
			sels []Selection
			err  error
		}
		done := make(chan res, 1)
		go func() {
			sels, err := m.Select(q, 3)
			done <- res{sels, err}
		}()
		select {
		case r := <-done:
			if r.err != nil {
				t.Fatalf("Select: %v", r.err)
			}
			return selectionPrint(r.sels)
		case <-time.After(10 * time.Second):
			t.Fatal("Select waited for the in-progress build")
			return ""
		}
	}
	gatedBuild := func(ctx context.Context) (open func(), result chan error) {
		open = drifty.arm()
		result = make(chan error, 1)
		go func() { result <- m.BuildSummariesContext(ctx) }()
		select {
		case <-drifty.entered: // the build is inside, holding the writers' mutex
		case <-time.After(10 * time.Second):
			t.Fatal("the build never reached the gated database")
		}
		return open, result
	}
	before := selectNow()
	served := m.state.Load()
	drifty.swap(NewLocalDatabaseFromTerms("drifty", corpus(storeSports, 80)))

	// A build that fails part-way: the previous store keeps serving.
	ctx, cancel := context.WithCancel(context.Background())
	open, result := gatedBuild(ctx)
	m.invalidateCaches() // make the next Select compute, not hit
	if got := selectNow(); got != before {
		t.Errorf("Select during the build = %s, want the previous store's %s", got, before)
	}
	cancel()
	open()
	if err := <-result; err == nil {
		t.Fatal("the cancelled build reported success")
	}
	if m.state.Load() != served {
		t.Error("a failed build published a store")
	}
	if got := selectNow(); got != before {
		t.Errorf("Select after the failed build = %s, want %s", got, before)
	}

	// A build that succeeds: old answers until it returns, new after.
	open, result = gatedBuild(context.Background())
	m.invalidateCaches()
	if got := selectNow(); got != before {
		t.Errorf("Select during the build = %s, want the previous store's %s", got, before)
	}
	open()
	if err := <-result; err != nil {
		t.Fatalf("build: %v", err)
	}
	if m.state.Load() == served {
		t.Fatal("the build published nothing")
	}
	if got := selectNow(); got == before {
		t.Errorf("Select after the build still answers from the previous store: %s", got)
	}
}

// TestOneDeriveStore: every way a built store comes to be — the
// offline build, Save→Load, RebuildSummary — shrinks through the one
// deriveStore, so the same summaries give bit-identical selections
// whichever path produced the store; and Info after a Load reports the
// λ and EM count selection serves — the one derivation's — even when
// the file's telemetry object says otherwise.
func TestOneDeriveStore(t *testing.T) {
	built, drifty := newStoreWorld(t, Options{})
	loadedFrom := func(src *Metasearcher, edit func(env map[string]interface{})) *Metasearcher {
		t.Helper()
		var buf bytes.Buffer
		if err := src.save(&buf); err != nil {
			t.Fatal(err)
		}
		if edit != nil {
			var env map[string]interface{}
			if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
				t.Fatal(err)
			}
			edit(env)
			edited, err := json.Marshal(env)
			if err != nil {
				t.Fatal(err)
			}
			buf.Reset()
			buf.Write(sealed(t, edited)) // a consistent edit, not a torn file

		}
		m := New(Options{Seed: 1, KeepStopwords: true, NoStemming: true})
		if err := m.load(&buf); err != nil {
			t.Fatal(err)
		}
		return m
	}
	selections := func(m *Metasearcher) string {
		t.Helper()
		var sb strings.Builder
		for _, q := range storeQueries {
			sels, err := m.Select(q, 4)
			if err != nil {
				t.Fatalf("Select %q: %v", q, err)
			}
			sb.WriteString(selectionPrint(sels) + "|")
		}
		return sb.String()
	}

	wantBuilt := selections(built)
	const sentinel = 0.123456789
	loaded := loadedFrom(built, func(env map[string]interface{}) {
		tel := env["databases"].([]interface{})[0].(map[string]interface{})["telemetry"].(map[string]interface{})
		tel["em_iterations"] = 77
		tel["lambdas"].([]interface{})[0].(map[string]interface{})["weight"] = sentinel
	})
	drifty.swap(NewLocalDatabaseFromTerms("drifty", corpus(storeSports, 80)))
	if err := built.RebuildSummary(context.Background(), "drifty"); err != nil {
		t.Fatal(err)
	}
	wantRebuilt := selections(built)
	if wantRebuilt == wantBuilt {
		t.Fatal("the rebuild changed no selection")
	}
	for _, tc := range []struct {
		path string
		m    *Metasearcher
		want string
	}{
		{"Save→Load of the built store", loaded, wantBuilt},
		{"Save→Load of the rebuilt store", loadedFrom(built, nil), wantRebuilt},
	} {
		if got := selections(tc.m); got != tc.want {
			t.Errorf("%s: selections differ from the store it was saved from:\n got %s\nwant %s", tc.path, got, tc.want)
		}
	}
	// The edited λ and EM count are not what selection serves, so Info
	// does not report them either: it reports the one derivation, the
	// built store's, whose λ the audit trail carries.
	info, err := loaded.Info("drifty")
	if err != nil {
		t.Fatal(err)
	}
	if info.EMIterations == 77 || info.MixtureWeights[0].Weight == sentinel {
		t.Errorf("Info after Load = %d EM iterations, λ %v: the edited file's, not the derivation's", info.EMIterations, info.MixtureWeights)
	}
	served := 0
	for _, q := range storeQueries {
		if _, err := loaded.Search(context.Background(), SearchRequest{Query: q, MaxDBs: 4}); err != nil {
			t.Fatal(err)
		}
		for _, c := range loaded.Audit().Last().Candidates {
			if !c.Shrinkage {
				continue
			}
			info, err := loaded.Info(c.Database)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(info.MixtureWeights, c.Lambdas) {
				t.Errorf("%q, %s: Info λ %v, the audit trail's %v", q, c.Database, info.MixtureWeights, c.Lambdas)
			}
			if c.Database == "drifty" {
				served++
			}
		}
	}
	if served == 0 {
		t.Error("no query shrank drifty: the audit trail shows no λ to compare Info's with")
	}
	for _, name := range []string{"drifty", "ward"} {
		want, err := built.Info(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loadedFrom(built, nil).Info(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Info(%s) after Save→Load = %+v, want the rebuilt store's %+v", name, got, want)
		}
	}
}

// storePrint is the bit-exact fingerprint of what deriveStore computed:
// every database's λ vector and EM iteration count, and every category
// summary's probabilities.
func storePrint(m *Metasearcher) string {
	st := m.state.Load()
	var sb strings.Builder
	for i, r := range st.dbs {
		sh := st.derived.Shrunk[i]
		fmt.Fprintf(&sb, "%s/%d[", r.src.Name, sh.EMIterations())
		for _, l := range sh.Lambdas() {
			fmt.Fprintf(&sb, "%s=%016x,", l.Component, math.Float64bits(l.Weight))
		}
		sb.WriteString("];")
	}
	for c := 0; c < m.tree.Len(); c++ {
		sum := st.derived.Cats.Summary(hierarchy.NodeID(c))
		if len(sum.Words) == 0 {
			continue
		}
		fmt.Fprintf(&sb, "\n%s/%016x/%016x:", m.tree.Node(hierarchy.NodeID(c)).Name,
			math.Float64bits(sum.NumDocs), math.Float64bits(sum.CW))
		for _, w := range sum.TopWords(len(sum.Words)) {
			fmt.Fprintf(&sb, "%s=%016x/%016x,", w, math.Float64bits(sum.Words[w].P), math.Float64bits(sum.Words[w].Ptf))
		}
	}
	return sb.String()
}

// TestDeriveStoreParallelEqualsSerial: deriveStore, Save and Load fan
// out over GOMAXPROCS workers, and the worker count changes nothing.
// One seeded nine-database world is built, saved and loaded with one
// worker and with four: the λ vectors and the category summaries are
// equal bit for bit (between the two runs, and between each built store
// and the one loaded from it), the save files are the same bytes, and
// CORI, bGlOSS and LM select the same from all four stores.
func TestDeriveStoreParallelEqualsSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	world := []struct {
		name, cat string
		docs      [][]string
	}{
		{"heart-1", "Heart", corpus(storeMedical, 80)},
		{"heart-2", "Heart", corpus(storeMedical[1:], 50)},
		{"onco", "Cancer", corpus(storeMedical[:5], 60)},
		{"ward", "Health", corpus(append(storeMedical[2:], storeSports[:2]...), 70)},
		{"stable", "Science", corpus(storeSpace, 80)},
		{"comet", "Science", corpus(append(storeSpace[3:], storeMedical[0]), 40)},
		{"arena", "Sports", corpus(storeSports[:6], 70)},
		{"pitch", "Soccer", corpus(storeSports[2:], 90)},
		{"derby", "Soccer", corpus(append(storeSports, storeSpace[0]), 55)},
	}
	type stores struct {
		built, loaded       string // storePrint
		builtSel, loadedSel string // selectionPrint of every query
		saved               []byte
	}
	for _, scorer := range []string{"cori", "bgloss", "lm"} {
		var serial stores
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			opts := Options{
				Scorer: scorer, SampleSize: 40, Seed: 1, Parallelism: procs, KeepStopwords: true, NoStemming: true,
				SeedLexicon: append(append(append([]string{}, storeMedical...), storeSpace...), storeSports...),
			}
			built := New(opts)
			for _, d := range world {
				if err := built.AddDatabase(NewLocalDatabaseFromTerms(d.name, d.docs), d.cat); err != nil {
					t.Fatal(err)
				}
			}
			if err := built.BuildSummaries(); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := built.save(&buf); err != nil {
				t.Fatal(err)
			}
			got := stores{built: storePrint(built), saved: buf.Bytes()}
			loaded := New(opts)
			if err := loaded.load(bytes.NewReader(got.saved)); err != nil {
				t.Fatal(err)
			}
			got.loaded = storePrint(loaded)
			for _, q := range storeQueries {
				fromBuilt, err := built.Select(q, 4)
				if err != nil {
					t.Fatalf("%s, %d workers: Select %q: %v", scorer, procs, q, err)
				}
				fromLoaded, err := loaded.Select(q, 4)
				if err != nil {
					t.Fatalf("%s, %d workers: Select %q after Load: %v", scorer, procs, q, err)
				}
				got.builtSel += selectionPrint(fromBuilt) + "|"
				got.loadedSel += selectionPrint(fromLoaded) + "|"
			}
			if got.loaded != got.built {
				t.Errorf("%s, %d workers: the loaded store's λ vectors or category summaries differ from the built one's", scorer, procs)
			}
			if got.loadedSel != got.builtSel {
				t.Errorf("%s, %d workers: the loaded store selects differently from the built one:\n got %s\nwant %s", scorer, procs, got.loadedSel, got.builtSel)
			}
			if procs == 1 {
				serial = got
				continue
			}
			if got.built != serial.built {
				t.Errorf("%s: λ vectors or category summaries at %d workers differ from the serial build's", scorer, procs)
			}
			if !bytes.Equal(got.saved, serial.saved) {
				t.Errorf("%s: Save at %d workers wrote different bytes from the serial Save", scorer, procs)
			}
			if got.builtSel != serial.builtSel {
				t.Errorf("%s: selections at %d workers differ from the serial ones:\n got %s\nwant %s", scorer, procs, got.builtSel, serial.builtSel)
			}
		}
	}
}

// TestSelectionIndependentOfSeed: selection is a pure function of the
// summaries, the query and the scorer. Two metasearchers that load one
// state under different Options.Seed give the same selections and the
// same audit evidence (score mean and σ included), bit for bit.
func TestSelectionIndependentOfSeed(t *testing.T) {
	built, _ := newStoreWorld(t, Options{})
	var state bytes.Buffer
	if err := built.save(&state); err != nil {
		t.Fatal(err)
	}
	vocab := append(append(append([]string{}, storeMedical...), storeSpace...), storeSports...)
	rng := rand.New(rand.NewSource(20))
	var queries []string
	for len(queries) < 60 {
		words := make([]string, 1+rng.Intn(4))
		for i := range words {
			words[i] = vocab[rng.Intn(len(vocab))]
		}
		queries = append(queries, strings.Join(words, " "))
	}
	for _, scorer := range []string{"bgloss", "cori", "lm"} {
		var loaded [2]*Metasearcher
		for i, seed := range []int64{1, 987654321} {
			loaded[i] = New(Options{Seed: seed, Scorer: scorer, KeepStopwords: true, NoStemming: true})
			if err := loaded[i].load(bytes.NewReader(state.Bytes())); err != nil {
				t.Fatal(err)
			}
		}
		uncertain := false
		for _, q := range queries {
			var got [2]string
			for i, m := range loaded {
				sels, ex, err := m.selectExplained(nil, m.analyze(q), 3)
				if err != nil {
					t.Fatalf("%s %q: %v", scorer, q, err)
				}
				got[i] = selectionPrint(sels) + " " + candidatesPrint(ex.candidates)
			}
			if got[0] != got[1] {
				t.Errorf("%s %q: the answer depends on Options.Seed:\n%s\n%s", scorer, q, got[0], got[1])
			}
			uncertain = uncertain || strings.Contains(got[0], "/true;")
		}
		if !uncertain {
			t.Errorf("%s: no query applied shrinkage; the fixture decides nothing", scorer)
		}
	}
}

// TestApplyReplicaAssignmentsAllOrNothing: a topology whose list holds
// one bad assignment is rejected whole — the probe targets, the live
// handles (the scope) and their replica sets are what they were.
func TestApplyReplicaAssignmentsAllOrNothing(t *testing.T) {
	m, _ := newStoreWorld(t, Options{})
	if _, err := m.ApplyReplicaAssignments([]shardmap.Assignment{
		{Database: "drifty", Replicas: []string{"127.0.0.1:1", "127.0.0.1:2"}},
		{Database: "ward", Replicas: []string{"127.0.0.1:3"}},
	}); err != nil {
		t.Fatal(err)
	}
	type snapshot struct {
		store   *store
		scope   []string
		targets []string
		handles map[string]SearchableDatabase
		addrs   []string
	}
	take := func() snapshot {
		st := m.state.Load()
		s := snapshot{store: st, scope: handled(m), handles: make(map[string]SearchableDatabase)}
		for _, p := range st.probeTargets() {
			s.targets = append(s.targets, p.Name)
		}
		for _, r := range st.dbs {
			s.handles[r.src.Name] = r.db
		}
		s.addrs = st.dbs[st.byName["drifty"]].db.(*replica.Database).ReplicaAddrs()
		return s
	}
	before := take()
	if want := []string{"drifty", "ward"}; !reflect.DeepEqual(before.scope, want) {
		t.Fatalf("scope after the first swap = %v, want %v", before.scope, want)
	}

	rep, err := m.ApplyReplicaAssignments([]shardmap.Assignment{
		{Database: "drifty", Replicas: []string{"127.0.0.1:2", "127.0.0.1:9"}}, // a valid replica swap
		{Database: "ward"}, // no replicas: invalid
		{Database: "stable", Replicas: []string{"127.0.0.1:4"}}, // a valid attach
	})
	if err == nil {
		t.Fatalf("the bad assignment was accepted: %+v", rep)
	}
	if after := take(); !reflect.DeepEqual(after, before) {
		t.Errorf("a rejected swap changed the served state:\n before %+v\n after  %+v", before, after)
	}
}

// TestUnbuiltStoreErrors pins what an unbuilt store answers: before
// BuildSummaries, and again after AddDatabase or Train without a
// rebuild.
func TestUnbuiltStoreErrors(t *testing.T) {
	check := func(when string, m *Metasearcher) {
		t.Helper()
		_, errSelect := m.Select("heart cancer", 2)
		_, errInfo := m.Info("drifty")
		errSave := m.save(&bytes.Buffer{})
		for _, c := range []struct {
			call string
			err  error
			want string
		}{
			{"Select", errSelect, "repro: BuildSummaries has not been run"},
			{"Info", errInfo, "repro: BuildSummaries has not been run"},
			{"Save", errSave, "repro: nothing to save; run BuildSummaries first"},
		} {
			if c.err == nil || c.err.Error() != c.want {
				t.Errorf("%s %s: error %v, want %q", c.call, when, c.err, c.want)
			}
		}
	}
	fresh := New(Options{})
	if err := fresh.AddDatabase(NewLocalDatabaseFromTerms("drifty", corpus(storeMedical, 10)), "Health"); err != nil {
		t.Fatal(err)
	}
	check("before BuildSummaries", fresh)

	m, _ := newStoreWorld(t, Options{})
	if err := m.AddDatabase(NewLocalDatabaseFromTerms("late", corpus(storeSpace, 10)), "Science"); err != nil {
		t.Fatal(err)
	}
	check("after AddDatabase", m)
	if err := m.BuildSummaries(); err != nil {
		t.Fatal(err)
	}
	if err := m.Train("Health", []string{"heart cancer patient"}); err != nil {
		t.Fatal(err)
	}
	check("after Train", m)
	if err := m.AddDatabase(NewLocalDatabaseFromTerms("late", nil), ""); err == nil || err.Error() != `repro: database "late" already registered` {
		t.Errorf("duplicate AddDatabase: error %v", err)
	}
}
