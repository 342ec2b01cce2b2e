package refresh

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/summary"
	"repro/internal/telemetry"
)

// dist builds a summary whose Ptf distribution is exactly the given
// term weights.
func dist(words map[string]float64) *summary.Summary {
	s := &summary.Summary{NumDocs: 10, Words: make(map[string]summary.Word)}
	for w, p := range words {
		s.Words[w] = summary.Word{P: 0.5, Ptf: p, SampleDF: 1}
	}
	return s
}

// KL pinned against hand-computed values.
func TestSmoothedKLPinned(t *testing.T) {
	cases := []struct {
		name string
		p, q map[string]float64
		eps  float64
		want float64
		tol  float64
	}{
		// KL(p‖q) = 0.5·ln(0.5/0.25) + 0.5·ln(0.5/0.75) = 0.5·ln(4/3)
		{"half-vs-quarter", map[string]float64{"a": 0.5, "b": 0.5},
			map[string]float64{"a": 0.25, "b": 0.75}, 1e-12,
			0.5 * math.Log(4.0/3.0), 1e-9},
		{"identical", map[string]float64{"a": 0.3, "b": 0.7},
			map[string]float64{"a": 0.3, "b": 0.7}, 1e-12, 0, 1e-9},
		// Disjoint vocabularies: the stored term's mass is explained only
		// by the floor, so KL ≈ ln(1/eps) = ln(1e6).
		{"disjoint", map[string]float64{"a": 1},
			map[string]float64{"b": 1}, 1e-6,
			math.Log(1e6), 0.01},
	}
	for _, c := range cases {
		if got := SmoothedKL(c.p, c.q, c.eps); math.Abs(got-c.want) > c.tol {
			t.Errorf("%s: SmoothedKL = %v, want %v ± %v", c.name, got, c.want, c.tol)
		}
	}
}

func TestJSDivergence(t *testing.T) {
	same := map[string]float64{"a": 0.4, "b": 0.6}
	if got := JSDivergence(same, same); got != 0 {
		t.Errorf("JS(p, p) = %v, want 0", got)
	}
	p := map[string]float64{"a": 1}
	q := map[string]float64{"b": 1}
	if got := JSDivergence(p, q); math.Abs(got-math.Ln2) > 1e-12 {
		t.Errorf("JS(disjoint) = %v, want ln 2 = %v", got, math.Ln2)
	}
	// Symmetry, on an asymmetric pair.
	x := map[string]float64{"a": 0.9, "b": 0.1}
	y := map[string]float64{"a": 0.2, "b": 0.5, "c": 0.3}
	if d1, d2 := JSDivergence(x, y), JSDivergence(y, x); math.Abs(d1-d2) > 1e-12 {
		t.Errorf("JS not symmetric: %v vs %v", d1, d2)
	}
	// Bounded by ln 2.
	if got := JSDivergence(x, y); got <= 0 || got >= math.Ln2 {
		t.Errorf("JS(x, y) = %v, want in (0, ln 2)", got)
	}
}

func TestDistributionNormalizes(t *testing.T) {
	d := Distribution(dist(map[string]float64{"a": 2, "b": 6}))
	if math.Abs(d["a"]-0.25) > 1e-12 || math.Abs(d["b"]-0.75) > 1e-12 {
		t.Errorf("Distribution = %v, want a:0.25 b:0.75", d)
	}
	if Distribution(nil) != nil {
		t.Error("Distribution(nil) != nil")
	}
}

// fakeTarget serves canned stored/fresh summaries and records rebuilds.
// A rebuild adopts the fresh summary, so the node stops drifting.
type fakeTarget struct {
	mu       sync.Mutex
	stored   map[string]*summary.Summary
	fresh    map[string]*summary.Summary
	rebuilds []string
	errOn    string // ResampleSummary fails for this node
}

func (f *fakeTarget) RefreshableDatabases() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []string
	for name := range f.stored {
		out = append(out, name)
	}
	// map order is fine for tests that sort expectations themselves; keep
	// deterministic anyway
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func (f *fakeTarget) ResampleSummary(_ context.Context, name string, _ int) (stored, fresh *summary.Summary, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if name == f.errOn {
		return nil, nil, errors.New("node unreachable")
	}
	return f.stored[name], f.fresh[name], nil
}

func (f *fakeTarget) RebuildSummary(_ context.Context, name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rebuilds = append(f.rebuilds, name)
	f.stored[name] = f.fresh[name]
	return nil
}

func driftTarget() *fakeTarget {
	med := map[string]float64{"cancer": 0.4, "patient": 0.4, "drug": 0.2}
	return &fakeTarget{
		stored: map[string]*summary.Summary{
			"stable":  dist(med),
			"drifted": dist(med),
		},
		fresh: map[string]*summary.Summary{
			"stable":  dist(med),
			"drifted": dist(map[string]float64{"football": 0.5, "league": 0.5}),
		},
	}
}

// A node mutated past the threshold triggers rebuild + generation bump;
// the unchanged node never swaps, over repeated passes.
func TestManagerDrift(t *testing.T) {
	ft := driftTarget()
	reg := telemetry.NewRegistry()
	mgr := NewManager(ft, Options{Threshold: 0.3, Metrics: reg})

	swapped, err := mgr.RunOnce(context.Background())
	if err != nil || swapped != 1 {
		t.Fatalf("RunOnce = (%d, %v), want (1, nil)", swapped, err)
	}
	if len(ft.rebuilds) != 1 || ft.rebuilds[0] != "drifted" {
		t.Fatalf("rebuilds = %v, want [drifted]", ft.rebuilds)
	}
	if got := mgr.Generation(); got != 1 {
		t.Errorf("Generation = %d, want 1", got)
	}
	if got := reg.Counter("refresh_drift_detected_total").Value(); got != 1 {
		t.Errorf("refresh_drift_detected_total = %d, want 1", got)
	}
	if got := reg.Counter("refresh_swaps_total").Value(); got != 1 {
		t.Errorf("refresh_swaps_total = %d, want 1", got)
	}

	// Second pass: the rebuilt node now matches its live contents, the
	// stable node still does — nothing swaps.
	swapped, err = mgr.RunOnce(context.Background())
	if err != nil || swapped != 0 {
		t.Fatalf("second RunOnce = (%d, %v), want (0, nil)", swapped, err)
	}
	if got := mgr.Generation(); got != 1 {
		t.Errorf("Generation after stable pass = %d, want 1", got)
	}
	if got := reg.Counter("refresh_checks_total").Value(); got != 4 {
		t.Errorf("refresh_checks_total = %d, want 4", got)
	}

	states := mgr.Snapshot()
	if len(states) != 2 {
		t.Fatalf("Snapshot has %d states, want 2", len(states))
	}
	for _, st := range states {
		switch st.Database {
		case "stable":
			if st.Swaps != 0 || st.Drifts != 0 {
				t.Errorf("stable node swapped: %+v", st)
			}
			if st.LastJS != 0 {
				t.Errorf("stable node JS = %v, want 0", st.LastJS)
			}
		case "drifted":
			if st.Swaps != 1 || st.Drifts != 1 || st.Checks != 2 {
				t.Errorf("drifted node state: %+v", st)
			}
		}
	}
}

// A failing node is recorded, does not swap, and does not stop the pass.
func TestManagerResampleError(t *testing.T) {
	ft := driftTarget()
	ft.errOn = "drifted"
	reg := telemetry.NewRegistry()
	mgr := NewManager(ft, Options{Threshold: 0.3, Metrics: reg})
	swapped, err := mgr.RunOnce(context.Background())
	if err != nil || swapped != 0 {
		t.Fatalf("RunOnce = (%d, %v), want (0, nil)", swapped, err)
	}
	if got := reg.Counter("refresh_errors_total").Value(); got != 1 {
		t.Errorf("refresh_errors_total = %d, want 1", got)
	}
	for _, st := range mgr.Snapshot() {
		if st.Database == "drifted" && st.LastError == "" {
			t.Error("failed node has no LastError")
		}
	}
	if len(ft.rebuilds) != 0 {
		t.Errorf("rebuilds = %v, want none", ft.rebuilds)
	}
}

func TestHandler(t *testing.T) {
	mgr := NewManager(driftTarget(), Options{Threshold: 0.3})
	mgr.RunOnce(context.Background())
	rec := httptest.NewRecorder()
	mgr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/refresh", nil))
	var resp struct {
		Generation int64       `json:"generation"`
		Threshold  float64     `json:"threshold"`
		Nodes      []NodeState `json:"nodes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding /debug/refresh: %v\n%s", err, rec.Body.String())
	}
	if resp.Generation != 1 || resp.Threshold != 0.3 || len(resp.Nodes) != 2 {
		t.Errorf("response = %+v", resp)
	}
	// A node that never swapped has no last_swap, not a year-1 one.
	var raw struct {
		Nodes []map[string]json.RawMessage `json:"nodes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for _, n := range raw.Nodes {
		_, swapped := n["last_swap"]
		if db := string(n["database"]); swapped != (db == `"drifted"`) {
			t.Errorf("node %s: last_swap present = %v, want it only on the node that swapped: %s", db, swapped, rec.Body.String())
		}
	}
}
