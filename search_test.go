package repro

import (
	"bytes"
	"context"
	"reflect"
	"testing"
)

func TestSearchEndToEnd(t *testing.T) {
	m := buildTestMetasearcher(t, Options{Seed: 60})
	results, err := m.Search(context.Background(), SearchRequest{Query: "blood pressure hypertension", MaxDBs: 2, PerDB: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(results.Results) == 0 {
		t.Fatal("no merged results")
	}
	// The top document must come from the top-selected database.
	if results.Results[0].Database != "cardio" {
		t.Errorf("top result from %s, want cardio", results.Results[0].Database)
	}
	// Scores are sorted and positive.
	for i, r := range results.Results {
		if r.Score <= 0 {
			t.Errorf("result %d has score %v", i, r.Score)
		}
		if i > 0 && r.Score > results.Results[i-1].Score {
			t.Errorf("results not sorted at %d", i)
		}
	}
	// Rank-1 documents of the top database score highest within it.
	var cardioDocs int
	for _, r := range results.Results {
		if r.Database == "cardio" {
			cardioDocs++
		}
	}
	if cardioDocs == 0 || cardioDocs > 5 {
		t.Errorf("cardio contributed %d docs, want 1..5", cardioDocs)
	}
}

func TestSearchNoSelection(t *testing.T) {
	m := buildTestMetasearcher(t, Options{Seed: 61, Scorer: "bgloss"})
	results, err := m.Search(context.Background(), SearchRequest{Query: "completelyunknownword", MaxDBs: 3, PerDB: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(results.Results) != 0 {
		t.Errorf("results for an unknown word: %v", results)
	}
}

// TestSearchLoadedStateIsOutOfScope: a process that loaded summaries
// but holds no live handle ranks databases and queries none — an empty
// ranking with every selected database out of scope, not an error.
func TestSearchLoadedStateIsOutOfScope(t *testing.T) {
	m := buildTestMetasearcher(t, Options{Seed: 62})
	var buf bytes.Buffer
	if err := m.save(&buf); err != nil {
		t.Fatal(err)
	}
	m2 := New(Options{})
	if err := m2.load(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := m2.Search(context.Background(), SearchRequest{Query: "blood pressure", MaxDBs: 2, PerDB: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 0 || len(resp.Selections) == 0 {
		t.Fatalf("Search on loaded state without live databases: %d results over %d selections, want none over some", len(resp.Results), len(resp.Selections))
	}
	if got := m2.Metrics().Counter("search_out_of_scope_total").Value(); got != int64(len(resp.Selections)) {
		t.Errorf("search_out_of_scope_total = %d, want %d", got, len(resp.Selections))
	}
	for _, n := range m2.Audit().Last().Nodes {
		if !n.OutOfScope || n.Unavailable {
			t.Errorf("node %+v: want out of scope", n)
		}
	}
}

func TestSearchDefaultPerDB(t *testing.T) {
	m := buildTestMetasearcher(t, Options{Seed: 63})
	if _, err := m.Search(context.Background(), SearchRequest{Query: "goal penalty", MaxDBs: 1, PerDB: 0}); err != nil {
		t.Errorf("perDB=0 should default: %v", err)
	}
}

// TestSearchRequestRule pins the request rule Search shares with the
// cluster router (SearchRequest.Normalize): a MaxDBs — or a Select k —
// of zero or less is an error, not a panic, and a PerDB of zero or less
// is DefaultPerDB. A rejected request leaves its query answerable.
func TestSearchRequestRule(t *testing.T) {
	m := buildTestMetasearcher(t, Options{Seed: 64})
	const query = "blood pressure hypertension"
	ctx := context.Background()
	want, err := m.Search(ctx, SearchRequest{Query: query, MaxDBs: 2, PerDB: DefaultPerDB})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name          string
		maxDBs, perDB int
		wantErr       bool
	}{
		{"zero MaxDBs", 0, 5, true},
		{"negative MaxDBs", -1, 5, true},
		{"zero PerDB", 2, 0, false},
		{"negative PerDB", 2, -3, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := m.Search(ctx, SearchRequest{Query: query, MaxDBs: tc.maxDBs, PerDB: tc.perDB})
			if tc.wantErr {
				if err == nil {
					t.Errorf("Search with MaxDBs %d succeeded, want an error", tc.maxDBs)
				}
				if _, err := m.Select(query, tc.maxDBs); err == nil {
					t.Errorf("Select with k %d succeeded, want an error", tc.maxDBs)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Results, want.Results) {
				t.Errorf("PerDB %d answered %+v, want DefaultPerDB's %+v", tc.perDB, got.Results, want.Results)
			}
		})
	}
	if got, err := m.Search(ctx, SearchRequest{Query: query, MaxDBs: 2}); err != nil || !reflect.DeepEqual(got.Results, want.Results) {
		t.Errorf("Search after the rejected requests = %v; want the first answer", err)
	}
}
