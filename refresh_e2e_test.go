package repro

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/refresh"
)

// The refresh end-to-end test: a live database whose contents change
// out from under its stored summary must be detected by the drift
// check, re-summarized, and hot-swapped — under steady query load with
// zero failed queries — after which rankings reflect the new contents
// and the pre-swap cache entries are gone.

// swappableDB is a SearchableDatabase whose backing corpus can be
// replaced at runtime, simulating a remote collection that changed.
type swappableDB struct {
	name string
	mu   sync.RWMutex
	db   *LocalDatabase
}

func (s *swappableDB) Name() string { return s.name }

func (s *swappableDB) Query(terms []string, limit int) (int, []int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.db.Query(terms, limit)
}

func (s *swappableDB) Fetch(id int) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.db.Fetch(id)
}

func (s *swappableDB) swap(db *LocalDatabase) {
	s.mu.Lock()
	s.db = db
	s.mu.Unlock()
}

// corpus builds n docs cycling through a small vocabulary, with enough
// term variety per doc that sampling reconstructs the distribution.
func corpus(words []string, n int) [][]string {
	docs := make([][]string, n)
	for i := range docs {
		doc := make([]string, 12)
		for j := range doc {
			doc[j] = words[(i+j)%len(words)]
		}
		docs[i] = doc
	}
	return docs
}

func TestRefreshDriftHotSwap(t *testing.T) {
	medical := []string{"heart", "cancer", "patient", "drug", "clinic", "therapy", "nurse", "dose"}
	space := []string{"galaxy", "star", "planet", "orbit", "telescope", "comet", "nebula", "cosmos"}
	sports := []string{"football", "league", "goal", "match", "coach", "season", "striker", "stadium"}
	lexicon := append(append(append([]string{}, medical...), space...), sports...)

	m := New(Options{
		SampleSize:    40,
		SeedLexicon:   lexicon,
		Seed:          1,
		KeepStopwords: true,
		NoStemming:    true,
		// Caches stay ON: the post-swap assertions prove the rebuild
		// invalidated them.
	})
	drifty := &swappableDB{name: "drifty", db: NewLocalDatabaseFromTerms("drifty", corpus(medical, 80))}
	if err := m.AddDatabase(drifty, "Health"); err != nil {
		t.Fatal(err)
	}
	if err := m.AddDatabase(NewLocalDatabaseFromTerms("stable", corpus(space, 80)), "Science"); err != nil {
		t.Fatal(err)
	}
	if err := m.BuildSummaries(); err != nil {
		t.Fatal(err)
	}

	const qSports = "football stadium goal"
	const qSpace = "galaxy telescope"

	driftyResults := func(q string) (selected bool, results int) {
		resp, err := m.SearchExplained(context.Background(), q, 2, 5)
		if err != nil {
			t.Fatalf("search %q: %v", q, err)
		}
		for _, s := range resp.Selections {
			if s.Database == "drifty" {
				selected = true
			}
		}
		for _, r := range resp.Results {
			if r.Database == "drifty" {
				results++
			}
		}
		return selected, results
	}

	// Pre-swap: drifty's summary is medical; a sports query must not
	// rank it. Issue it twice so the answer is sitting in the result
	// cache when the rebuild lands.
	if sel, res := driftyResults(qSports); sel || res != 0 {
		t.Fatalf("pre-swap sports query reached drifty (selected=%v results=%d); summary should be medical", sel, res)
	}
	driftyResults(qSports)

	// The live collection changes out from under the stored summary.
	drifty.swap(NewLocalDatabaseFromTerms("drifty", corpus(sports, 80)))

	// Steady query load across the swap: any failed query fails the
	// test.
	var loadErrs atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := m.SearchExplained(context.Background(), qSpace, 2, 3); err != nil {
					loadErrs.Add(1)
				}
			}
		}()
	}

	mgr := refresh.NewManager(m, refresh.Options{
		Threshold:  0.45,
		SampleDocs: 40,
		Metrics:    m.Metrics(),
	})
	swapped, err := mgr.RunOnce(context.Background())
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("RunOnce: %v", err)
	}
	if swapped != 1 {
		t.Fatalf("RunOnce swapped %d nodes, want 1 (drifty)", swapped)
	}
	if got := mgr.Generation(); got != 1 {
		t.Errorf("Generation = %d, want 1", got)
	}
	if n := loadErrs.Load(); n != 0 {
		t.Errorf("%d queries failed during the hot swap, want 0", n)
	}
	for _, st := range mgr.Snapshot() {
		switch st.Database {
		case "drifty":
			if st.Drifts != 1 || st.Swaps != 1 {
				t.Errorf("drifty state: %+v, want 1 drift and 1 swap", st)
			}
		case "stable":
			if st.Drifts != 0 || st.Swaps != 0 {
				t.Errorf("stable node drifted: %+v", st)
			}
		}
	}

	// Post-swap: the same sports query — cached before the swap — must
	// now select drifty and return its documents. This pins both the
	// re-summarization (selection reflects the sports vocabulary) and
	// the cache invalidation (the cached empty answer is gone).
	if sel, res := driftyResults(qSports); !sel || res == 0 {
		t.Fatalf("post-swap sports query missed drifty (selected=%v results=%d); rebuilt summary not serving", sel, res)
	}

	// A second pass over the now-consistent state must swap nothing.
	if swapped, err := mgr.RunOnce(context.Background()); err != nil || swapped != 0 {
		t.Fatalf("second RunOnce = (%d, %v), want (0, nil)", swapped, err)
	}
}

// heldDB is a swappableDB behind the context-aware interface whose
// match-count-only queries (limit 0: the sampler's closing resample
// probes), once held, wait for the caller's context to end.
type heldDB struct {
	*swappableDB
	hold     atomic.Bool
	held     chan struct{}
	heldOnce sync.Once
}

func (h *heldDB) QueryContext(ctx context.Context, terms []string, limit int) (int, []int, error) {
	if limit == 0 && h.hold.Load() {
		h.heldOnce.Do(func() { close(h.held) })
		<-ctx.Done()
		return 0, nil, ctx.Err()
	}
	n, ids := h.Query(terms, limit)
	return n, ids, nil
}

func (h *heldDB) FetchContext(_ context.Context, id int) ([]string, error) {
	return h.Fetch(id), nil
}

// holdOnRebuild is the metasearcher as a refresh target, holding the
// node's resample probes from the moment a rebuild starts (the drift
// check's own probes pass).
type holdOnRebuild struct {
	*Metasearcher
	db *heldDB
}

func (h holdOnRebuild) RebuildSummary(ctx context.Context, name string) error {
	h.db.hold.Store(true)
	return h.Metasearcher.RebuildSummary(ctx, name)
}

// TestRefreshStopMidRebuildPublishesNothing: stopping the refresh
// schedule while a drifted node's rebuild is still sampling cancels the
// rebuild, and nothing is swapped in. The cancellation lands in the
// sampler's last step — the resample probes, which end early and return
// the sample so far without an error — so it is RebuildSummary's own
// check that keeps the half-finished sample out of the store.
func TestRefreshStopMidRebuildPublishesNothing(t *testing.T) {
	medical := []string{"heart", "cancer", "patient", "drug", "clinic", "therapy", "nurse", "dose"}
	sports := []string{"football", "league", "goal", "match", "coach", "season", "striker", "stadium"}
	m := New(Options{
		SampleSize:    40,
		SeedLexicon:   append(append([]string{}, medical...), sports...),
		Seed:          1,
		KeepStopwords: true,
		NoStemming:    true,
	})
	drifty := &heldDB{
		swappableDB: &swappableDB{name: "drifty", db: NewLocalDatabaseFromTerms("drifty", corpus(medical, 80))},
		held:        make(chan struct{}),
	}
	if err := m.AddDatabase(drifty, "Health"); err != nil {
		t.Fatal(err)
	}
	if err := m.BuildSummaries(); err != nil {
		t.Fatal(err)
	}
	drifty.swap(NewLocalDatabaseFromTerms("drifty", corpus(sports, 80)))
	before := m.state.Load()

	mgr := refresh.NewManager(holdOnRebuild{m, drifty}, refresh.Options{Threshold: 0.45, SampleDocs: 40})
	clk := clock.NewFake()
	stop := clock.Every(clk, time.Minute, func(ctx context.Context) { mgr.RunOnce(ctx) })
	clk.BlockUntil(1)
	clk.Advance(time.Minute)
	<-drifty.held // the drift was detected and the rebuild is sampling
	stop()

	if m.state.Load() != before {
		t.Fatal("a rebuild cancelled by stopping the schedule published a new store")
	}
	if got := mgr.Generation(); got != 0 {
		t.Errorf("Generation = %d after a cancelled rebuild, want 0", got)
	}
}
