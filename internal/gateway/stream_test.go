package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
	"repro/internal/audit"
	"repro/internal/evtstream"
	"repro/internal/telemetry"
)

// fakeStreamSearcher narrates a canned event sequence before answering
// from the embedded fakeSearcher's canned response.
type fakeStreamSearcher struct {
	fakeSearcher
	events func(obs repro.SearchEvents)
}

func (f *fakeStreamSearcher) SearchExplainedObserved(ctx context.Context, query string, maxDBs, perDB int, obs repro.SearchEvents) (*repro.SearchResponse, error) {
	if f.events != nil {
		f.events(obs)
	} else if obs != nil {
		obs.Selection([]repro.Selection{{Database: "db-a", Score: 2, Shrinkage: true}}, []string{"whale"}, "cori")
		obs.NodeResult(repro.NodeEvent{NodeOutcome: audit.NodeOutcome{Database: "db-a", Results: 1}, Completed: 1, Total: 1})
		obs.MergeUpdate([]repro.Result{{Database: "db-a", DocID: 3, Score: 0.5}})
	}
	return f.fakeSearcher.SearchExplained(ctx, query, maxDBs, perDB)
}

func TestStreamSSE(t *testing.T) {
	s := &fakeStreamSearcher{}
	reg := telemetry.NewRegistry()
	g := New(s, Options{Metrics: reg})

	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("GET", PathSearchStream+"?q=white+whale&k=2&perdb=7", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	frames := evtstream.ParseSSE(rec.Body.String())
	var types []string
	for _, f := range frames {
		types = append(types, f.Type)
	}
	want := []string{
		evtstream.TypeSelection, evtstream.TypeNodeResult,
		evtstream.TypeMergeUpdate, evtstream.TypeFinal}
	if len(types) != len(want) {
		t.Fatalf("frame types %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("frame types %v, want %v", types, want)
		}
	}

	var sel StreamSelection
	if err := json.Unmarshal(frames[0].Data, &sel); err != nil {
		t.Fatalf("selection payload: %v", err)
	}
	if sel.Scorer != "cori" || len(sel.Selections) != 1 || sel.Selections[0].Database != "db-a" {
		t.Errorf("selection payload = %+v", sel)
	}
	var nr repro.NodeEvent
	if err := json.Unmarshal(frames[1].Data, &nr); err != nil {
		t.Fatalf("node_result payload: %v", err)
	}
	if nr.Database != "db-a" || nr.Completed != 1 || nr.Total != 1 {
		t.Errorf("node_result payload = %+v", nr)
	}

	// The final frame must be byte-identical to the blocking endpoint's
	// body for the same query (the canned response is deterministic).
	blocking := httptest.NewRecorder()
	g.ServeHTTP(blocking, httptest.NewRequest("GET", PathSearch+"?q=white+whale&k=2&perdb=7", nil))
	wantBody := bytes.TrimSuffix(blocking.Body.Bytes(), []byte("\n"))
	if !bytes.Equal([]byte(frames[3].Data), wantBody) {
		t.Errorf("final frame differs from blocking body:\nstream:   %s\nblocking: %s",
			frames[3].Data, wantBody)
	}

	if got := reg.Counter("stream_requests_total").Value(); got != 1 {
		t.Errorf("stream_requests_total = %d, want 1", got)
	}
}

func TestStreamNDJSON(t *testing.T) {
	s := &fakeStreamSearcher{}
	g := New(s, Options{})
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("GET", PathSearchStream+"?q=whale&format=ndjson", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	sc := bufio.NewScanner(rec.Body)
	var last evtstream.Frame
	n := 0
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		n++
	}
	if n != 4 || last.Type != evtstream.TypeFinal {
		t.Fatalf("got %d frames ending in %q, want 4 ending in final", n, last.Type)
	}
}

// A search failure arrives as a terminal error frame with the blocking
// endpoint's code vocabulary (the 200 status is already committed).
func TestStreamError(t *testing.T) {
	s := &fakeStreamSearcher{events: func(repro.SearchEvents) {}}
	s.hook = func(ctx context.Context, query string, maxDBs, perDB int) (*repro.SearchResponse, error) {
		return nil, errors.New("no live databases")
	}
	g := New(s, Options{})
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("GET", PathSearchStream+"?q=whale", nil))
	frames := evtstream.ParseSSE(rec.Body.String())
	if len(frames) != 1 || frames[0].Type != evtstream.TypeError {
		t.Fatalf("frames = %+v, want one error frame", frames)
	}
	var se StreamError
	if err := json.Unmarshal(frames[0].Data, &se); err != nil {
		t.Fatalf("error payload: %v", err)
	}
	if se.Code != "unavailable" || !strings.Contains(se.Message, "no live databases") {
		t.Errorf("error payload = %+v", se)
	}
}

// A Searcher without the streaming capability answers 501.
func TestStreamNotImplemented(t *testing.T) {
	g := New(&fakeSearcher{}, Options{})
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("GET", PathSearchStream+"?q=whale", nil))
	if rec.Code != http.StatusNotImplemented {
		t.Fatalf("status = %d, want 501", rec.Code)
	}
}

// Unknown GET parameters fail loudly, naming the offender — on both the
// blocking and the streaming endpoint.
func TestUnknownQueryParamRejected(t *testing.T) {
	g := New(&fakeStreamSearcher{}, Options{})
	cases := []struct {
		url  string
		want string
	}{
		{PathSearch + "?q=whale&timeot=2s", "timeot"},
		{PathSearch + "?q=whale&kk=2&zz=1", "kk, zz"},
		{PathSearchStream + "?q=whale&formt=ndjson", "formt"},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, httptest.NewRequest("GET", c.url, nil))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", c.url, rec.Code)
			continue
		}
		env := decodeError(t, rec)
		if !strings.Contains(env.Error.Message, c.want) {
			t.Errorf("%s: error %q does not name %q", c.url, env.Error.Message, c.want)
		}
	}
	// format stays stream-only: the blocking endpoint rejects it.
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("GET", PathSearch+"?q=whale&format=ndjson", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("blocking endpoint accepted format=, want 400 (got %d)", rec.Code)
	}
}
