package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// findDBSpan returns the search.db child span for the named database.
func findDBSpan(t *testing.T, root *telemetry.SpanNode, db string) *telemetry.SpanNode {
	t.Helper()
	for _, c := range root.Children {
		if c.Name != "search.db" {
			continue
		}
		if got, _ := c.Start.Attr("db").(string); got == db {
			return c
		}
	}
	t.Fatalf("no search.db span for %q under %q", db, root.Name)
	return nil
}

// requestIDs extracts the request_id of every wire.attempt event on a span.
func requestIDs(n *telemetry.SpanNode) []string {
	var ids []string
	for _, e := range n.Events {
		if e.Name == "wire.attempt" {
			if id, _ := e.Attr("request_id").(string); id != "" {
				ids = append(ids, id)
			}
		}
	}
	return ids
}

// TestEndToEndTraceAcrossProcesses runs a search against two real dbnode
// wire servers, each with its own tracer (standing in for a separate
// process), with exactly one transient 503 injected at the first node.
// It asserts the topology DESIGN.md §10 promises:
//
//   - a single trace ID spans the metasearcher's search span, its
//     search.db children, and the wire.serve spans on both nodes;
//   - each wire.serve span is parented under the metasearcher's
//     search.db span for that node (X-Trace-Id / X-Parent-Span made it
//     across the wire);
//   - the injected failure shows up as two wire.attempt events sharing
//     one request sequence (r<seq>.0 then r<seq>.1), and the node only
//     ever serves the retry (request_id r<seq>.1);
//   - the query's audit record carries the same trace ID, the
//     per-node attempt/retry counts, and shrinkage verdicts matching
//     what the selection code computes for the same query — both
//     in-process via Audit() and over HTTP via /debug/queries.
func TestEndToEndTraceAcrossProcesses(t *testing.T) {
	shards, lexicon := testbedShards(t, 2)
	query := strings.Join([]string{shards[0].docs[0][0], shards[0].docs[0][1]}, " ")

	clientCap := &telemetry.Capture{}
	opts := testbedOptions(lexicon)
	opts.Observer = clientCap
	m := New(opts)

	nodeCaps := make([]*telemetry.Capture, len(shards))
	var fail *wire.FailOnceHandler
	for i, s := range shards {
		nodeCaps[i] = &telemetry.Capture{}
		var h http.Handler = wire.NewServer(
			NewLocalDatabaseFromTerms(s.name, s.docs),
			wire.ServerOptions{
				Category: s.category,
				Tracer:   telemetry.NewTracer(nodeCaps[i]),
			})
		if i == 0 {
			fail = wire.FailOnce(h)
			h = fail
		}
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		rdb, err := DialReplicatedDatabase(context.Background(), []string{srv.URL}, ReplicatedDatabaseOptions{
			Metrics: m.Metrics(),
			clock:   clock.NewInstant(), // the retry of the armed 503 without a backoff wait
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddDatabase(rdb, rdb.Category()); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.BuildSummaries(); err != nil {
		t.Fatal(err)
	}

	// Build traffic is not under test: start the search from clean
	// captures, with exactly one 503 armed at the first node.
	clientCap.Reset()
	for _, c := range nodeCaps {
		c.Reset()
	}
	fail.Arm()

	res, err := m.Search(context.Background(), SearchRequest{Query: query, MaxDBs: 2, PerDB: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) == 0 {
		t.Fatal("search returned no results; query is not exercising the pipeline")
	}
	if got := fail.Injected(); got != 1 {
		t.Fatalf("injected failures = %d, want exactly 1", got)
	}

	// One trace ID covers the whole search on the metasearcher side.
	search := clientCap.Find("search")
	if search == nil {
		t.Fatal("no search span recorded")
	}
	trace := search.Start.Trace
	if trace == "" {
		t.Fatal("search span has no trace id")
	}

	// The failed node's search.db span records both attempts: r<seq>.0
	// (the injected 503) and r<seq>.1 (the retry), sharing one sequence.
	db0 := findDBSpan(t, search, shards[0].name)
	ids0 := requestIDs(db0)
	if len(ids0) != 2 {
		t.Fatalf("node 0 attempts = %v, want r<seq>.0 and r<seq>.1", ids0)
	}
	if !strings.HasSuffix(ids0[0], ".0") || !strings.HasSuffix(ids0[1], ".1") ||
		strings.TrimSuffix(ids0[0], ".0") != strings.TrimSuffix(ids0[1], ".1") {
		t.Fatalf("retry request ids = %v, want same r<seq> base with .0/.1", ids0)
	}
	// The healthy node took one attempt.
	db1 := findDBSpan(t, search, shards[1].name)
	ids1 := requestIDs(db1)
	if len(ids1) != 1 || !strings.HasSuffix(ids1[0], ".0") {
		t.Fatalf("node 1 attempts = %v, want a single r<seq>.0", ids1)
	}

	// Each node's wire.serve span joined the propagated trace, parented
	// under the metasearcher's search.db span for that node. The failed
	// node never served the injected attempt — the only serve span it
	// recorded is the retry, and it carries the retry's request id.
	for i, want := range []struct {
		parent *telemetry.SpanNode
		reqID  string
	}{
		{db0, ids0[1]},
		{db1, ids1[0]},
	} {
		serve := nodeCaps[i].Find("wire.serve")
		if serve == nil {
			t.Fatalf("node %d recorded no wire.serve span", i)
		}
		if len(nodeCaps[i].SpanNames()) != 1 {
			t.Errorf("node %d spans = %v, want exactly one wire.serve", i, nodeCaps[i].SpanNames())
		}
		if serve.Start.Trace != trace {
			t.Errorf("node %d trace = %q, search trace = %q", i, serve.Start.Trace, trace)
		}
		if serve.Start.Parent != want.parent.Start.Span {
			t.Errorf("node %d serve parent = %d, want search.db span %d",
				i, serve.Start.Parent, want.parent.Start.Span)
		}
		if got, _ := serve.Start.Attr("request_id").(string); got != want.reqID {
			t.Errorf("node %d served request_id = %q, want %q", i, got, want.reqID)
		}
	}

	// The audit record for this query ties the same trace ID to the
	// selection evidence and the per-node retry accounting.
	rec := m.Audit().Last()
	if rec == nil {
		t.Fatal("no audit record published")
	}
	if rec.TraceID != trace {
		t.Errorf("audit trace = %q, span trace = %q", rec.TraceID, trace)
	}
	if rec.Query != query || rec.Error != "" {
		t.Errorf("audit record = %q error=%q, want %q with no error", rec.Query, rec.Error, query)
	}
	nodeByDB := make(map[string]audit.NodeCall, len(rec.Nodes))
	for _, n := range rec.Nodes {
		nodeByDB[n.Database] = n
	}
	if n := nodeByDB[shards[0].name]; n.Attempts != 2 || n.Retries != 1 {
		t.Errorf("node 0 audit = %d attempts / %d retries, want 2/1", n.Attempts, n.Retries)
	}
	if n := nodeByDB[shards[1].name]; n.Attempts != 1 || n.Retries != 0 {
		t.Errorf("node 1 audit = %d attempts / %d retries, want 1/0", n.Attempts, n.Retries)
	}

	// The recorded shrinkage verdicts must match what the selection code
	// decides for this query: selection is a pure function of the
	// summaries, so an independent Select reproduces the adaptive
	// criterion exactly.
	sels, err := m.Select(query, len(shards))
	if err != nil {
		t.Fatal(err)
	}
	verdict := make(map[string]Selection, len(sels))
	for _, s := range sels {
		verdict[s.Database] = s
	}
	checkCandidates := func(src string, cands []audit.Candidate) {
		t.Helper()
		if len(cands) != len(shards) {
			t.Fatalf("%s: %d candidates, want %d", src, len(cands), len(shards))
		}
		for _, c := range cands {
			want, ok := verdict[c.Database]
			if !ok {
				t.Errorf("%s: candidate %q not in selection", src, c.Database)
				continue
			}
			if c.Shrinkage != want.Shrinkage {
				t.Errorf("%s: %q shrinkage verdict = %v, selection code says %v",
					src, c.Database, c.Shrinkage, want.Shrinkage)
			}
			if c.Score != want.Score {
				t.Errorf("%s: %q score = %v, selection code says %v",
					src, c.Database, c.Score, want.Score)
			}
			if !c.Selected {
				t.Errorf("%s: %q not marked selected with k = number of databases", src, c.Database)
			}
			// "On whose vocabulary": a shrunk candidate names the λ vector
			// and the category path it was fitted along, an unshrunk one
			// neither.
			info, err := m.Info(c.Database)
			if err != nil {
				t.Fatal(err)
			}
			if c.Shrinkage && (c.Category != info.Category || !reflect.DeepEqual(c.Lambdas, info.MixtureWeights)) {
				t.Errorf("%s: %q shrunk along %q with λ %v, Info says %q with %v",
					src, c.Database, c.Category, c.Lambdas, info.Category, info.MixtureWeights)
			}
			if !c.Shrinkage && (c.Category != "" || c.Lambdas != nil) {
				t.Errorf("%s: unshrunk %q carries category %q and λ %v", src, c.Database, c.Category, c.Lambdas)
			}
		}
	}
	checkCandidates("Audit()", rec.Candidates)

	// The same record is served over HTTP at /debug/queries/{id}.
	ts := httptest.NewServer(m.Audit().Handler())
	defer ts.Close()
	resp, err := http.Get(fmt.Sprintf("%s/debug/queries/%d", ts.URL, rec.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/queries/%d = %d, want 200", rec.ID, resp.StatusCode)
	}
	var got audit.QueryRecord
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.ID != rec.ID || got.TraceID != trace {
		t.Errorf("HTTP record id=%d trace=%q, want id=%d trace=%q", got.ID, got.TraceID, rec.ID, trace)
	}
	checkCandidates("/debug/queries", got.Candidates)
}
