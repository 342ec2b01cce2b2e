package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro"
	"repro/internal/gateway"
)

func TestUnionLength(t *testing.T) {
	for _, c := range []struct {
		name string
		ivs  []interval
		want int64
	}{
		{"none", nil, 0},
		{"one", []interval{{10, 30}}, 20},
		{"disjoint", []interval{{10, 30}, {40, 45}}, 25},
		{"overlapping", []interval{{10, 30}, {20, 50}}, 40},
		{"nested", []interval{{10, 50}, {20, 30}}, 40},
		{"touching", []interval{{10, 20}, {20, 30}}, 20},
		{"unsorted", []interval{{40, 45}, {0, 5}, {3, 8}}, 13},
	} {
		if got := unionLength(c.ivs); got != c.want {
			t.Errorf("%s: unionLength = %d, want %d", c.name, got, c.want)
		}
	}
	ivs := []interval{{40, 45}, {0, 5}}
	unionLength(ivs)
	if ivs[0].lo != 40 {
		t.Error("unionLength reordered its input")
	}
}

func TestSelfTimes(t *testing.T) {
	// A request: gateway [0,100] calls searcher [10,90], which fans out
	// to two overlapping database calls [20,50] and [30,70]; one of
	// them made a wire call that outlives it, [40,80].
	spans := []span{
		{ID: 1, Parent: 0, Req: 1, Name: "gateway", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: "searcher", Start: 10, End: 90},
		{ID: 3, Parent: 2, Req: 1, Name: "db", Start: 20, End: 50},
		{ID: 4, Parent: 2, Req: 1, Name: "db", Start: 30, End: 70},
		{ID: 5, Parent: 4, Req: 1, Name: "wire", Start: 40, End: 80},
		// Its parent was never recorded: counted for itself only.
		{ID: 6, Parent: 99, Req: 1, Name: "orphan", Start: 0, End: 7},
	}
	self := selfTimes(spans)
	want := map[int64]int64{
		1: 20, // 100 − searcher's 80; grandchildren do not count twice
		2: 30, // 80 − union of [20,50] and [30,70] = 50
		3: 30,
		4: 10, // 40 − the wire call clipped to [40,70]
		5: 40,
		6: 7,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
}

func TestSpanViewQueries(t *testing.T) {
	v := newSpanView([]span{
		{ID: 1, Req: 1, Name: "router", Start: 0, End: 10_000},
		{ID: 2, Parent: 1, Req: 1, Name: "call", Start: 1_000, End: 4_000},
		{ID: 3, Parent: 1, Req: 1, Name: "call", Start: 1_000, End: 9_000},
		{ID: 4, Req: 2, Name: "router", Start: 20_000, End: 26_000},
		{ID: 5, Parent: 4, Req: 2, Name: "call", Start: 21_000, End: 25_000},
		{ID: 6, Parent: 4, Req: 2, Name: "call", Start: 21_000, End: 24_000},
	})
	if got, want := v.selfUs("router"), []float64{2, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("router self = %v us, want %v", got, want)
	}
	if got, want := v.durUs("call"), []float64{3, 8, 4, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("call durations = %v us, want %v", got, want)
	}
	if got, want := v.perRequestGapUs("call"), []float64{1, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("straggler gaps = %v us, want %v", got, want)
	}
	if got := v.selfUs("absent"); len(got) != 0 {
		t.Errorf("self of an absent layer = %v", got)
	}
}

// fakeSearcher answers every query with one fixed response.
type fakeSearcher struct{ calls int }

func (f *fakeSearcher) SearchExplained(ctx context.Context, q string, k, perDB int) (*repro.SearchResponse, error) {
	f.calls++
	return &repro.SearchResponse{
		Query:      q,
		Selections: []repro.Selection{{Database: "db", Score: 1}},
		Stages:     repro.SearchStages{Cache: 1e-6},
	}, nil
}

func (f *fakeSearcher) SearchExplainedObserved(ctx context.Context, q string, k, perDB int, _ repro.SearchEvents) (*repro.SearchResponse, error) {
	return f.SearchExplained(ctx, q, k, perDB)
}

// The decorators must chain client → handler → searcher across a real
// HTTP hop, record nothing while switched off, and vanish entirely when
// there is no recorder.
func TestDecoratorsLinkSpansAcrossAnHTTPHop(t *testing.T) {
	rec := newRecorder()
	stages := &stageLog{}
	inner := &fakeSearcher{}
	gw := gateway.New(traceSearcher(rec, spSearcher, inner, stages, false), gateway.Options{})
	srv := httptest.NewServer(traceHandler(rec, spGateway, gw))
	defer srv.Close()
	hc := &http.Client{Transport: traceTransport(rec, spClient, http.DefaultTransport)}

	get := func(req int64) {
		t.Helper()
		ctx := withSpan(context.Background(), spanRef{req: req})
		r, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+gateway.PathSearch+"?q=x", nil)
		resp, err := hc.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("HTTP %d", resp.StatusCode)
		}
	}

	get(1) // recorder off
	if n := len(rec.take()); n != 0 {
		t.Fatalf("recorded %d spans while switched off", n)
	}
	rec.on.Store(true)
	get(7)
	rec.on.Store(false)

	byName := map[string]span{}
	for _, s := range rec.take() {
		byName[s.Name] = s
	}
	client, handler, searcher := byName[spClient], byName[spGateway], byName[spSearcher]
	if client.ID == 0 || handler.ID == 0 || searcher.ID == 0 {
		t.Fatalf("missing spans: %+v", byName)
	}
	if client.Parent != 0 || handler.Parent != client.ID || searcher.Parent != handler.ID {
		t.Errorf("parents: client %d, gateway %d (want %d), searcher %d (want %d)",
			client.Parent, handler.Parent, client.ID, searcher.Parent, handler.ID)
	}
	for name, s := range byName {
		if s.Req != 7 {
			t.Errorf("%s span filed under request %d, want 7", name, s.Req)
		}
		if s.End < s.Start {
			t.Errorf("%s span ends before it starts", name)
		}
	}
	if client.Start > handler.Start || client.End < handler.End {
		t.Errorf("client span %v does not enclose the handler span %v", client, handler)
	}
	if len(stages.recs) != 1 || stages.recs[0].stages.Cache != 1e-6 {
		t.Errorf("stage log = %+v, want the one traced call's breakdown", stages.recs)
	}
	if inner.calls != 2 {
		t.Errorf("searcher called %d times, want 2", inner.calls)
	}

	// Without a recorder the constructors hand back what they were given.
	if got := traceSearcher(nil, spSearcher, inner, nil, false); got != gateway.StreamSearcher(inner) {
		t.Error("traceSearcher(nil) wrapped the searcher")
	}
	if got := traceTransport(nil, spClient, http.DefaultTransport); got != http.DefaultTransport {
		t.Error("traceTransport(nil) wrapped the transport")
	}
	var h http.Handler = gw
	if got := traceHandler(nil, spGateway, h); got != h {
		t.Error("traceHandler(nil) wrapped the handler")
	}
}
