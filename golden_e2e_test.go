package repro_test

import (
	"bufio"
	"bytes"
	"flag"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	repro "repro"
	"repro/internal/gateway"
	"repro/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/wire_golden.txt from this build's output")

// gatedDB holds its queries back until the gate (when one is set)
// closes, so the golden test decides the order fan-out nodes finish in.
type gatedDB struct {
	*repro.LocalDatabase
	gate atomic.Value // chan struct{}
}

func (d *gatedDB) Query(terms []string, limit int) (int, []int) {
	if g, _ := d.gate.Load().(chan struct{}); g != nil {
		<-g
	}
	return d.LocalDatabase.Query(terms, limit)
}

// goldenMasks blank the values that differ from run to run: trace ids
// and every timing. Everything else in a reply is pinned byte for byte.
var goldenMasks = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`"trace_id":"[^"]*"`), `"trace_id":"T"`},
	{regexp.MustCompile(`"(elapsed_seconds|latency_seconds|cache|selection|fanout|merge)":[-+.e0-9]+`), `"$1":0`},
}

func maskGolden(line []byte) []byte {
	for _, m := range goldenMasks {
		line = m.re.ReplaceAll(line, []byte(m.with))
	}
	return bytes.TrimSpace(line)
}

// TestWireGolden pins the bytes a client sees for one fixed query: the
// /v1/search body and every /v1/search/stream frame (selection, two
// node_result + merge_update pairs in a forced completion order,
// final), with trace ids and timings masked and heartbeats skipped. The
// golden file was written by this test at the commit before the reply
// types became the wire types; run with -update only when a wire change
// is intended.
func TestWireGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	heart := []string{
		"blood pressure and hypertension management",
		"coronary artery disease treatment with blood thinners",
		"cardiac valve surgery outcomes and blood pressure",
	}
	soccer := []string{
		"the striker scored a late goal",
		"penalty decisions by the referee",
		"league championship standings",
	}
	m := repro.New(repro.Options{
		SampleSize: 30,
		Seed:       3,
		Observer:   telemetry.NewRingCapture(0),
		Cache:      repro.CacheConfig{Disable: true},
	})
	// The training words seed query-based sampling; without them the
	// built-in lexicon matches nothing in these tiny corpora.
	for _, tr := range []struct {
		topic string
		parts []string
	}{{"Heart", heart}, {"Soccer", soccer}} {
		if err := m.Train(tr.topic, topicDocs(rng, tr.parts, 20)); err != nil {
			t.Fatal(err)
		}
	}
	slow := &gatedDB{LocalDatabase: m.NewLocalDatabase("cardio-b.example", topicDocs(rng, heart, 60))}
	for _, db := range []struct {
		db  repro.SearchableDatabase
		cat string
	}{
		{m.NewLocalDatabase("cardio-a.example", topicDocs(rng, heart, 80)), "Heart"},
		{slow, "Heart"},
		{m.NewLocalDatabase("futbol.example", topicDocs(rng, soccer, 80)), "Soccer"},
	} {
		if err := m.AddDatabase(db.db, db.cat); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.BuildSummaries(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(gateway.For(m.Search, gateway.Options{Metrics: m.Metrics()}))
	defer srv.Close()
	const query = "?q=blood+pressure&k=2&perdb=3"

	var got bytes.Buffer
	resp, err := http.Get(srv.URL + gateway.PathSearch + query)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("blocking search: status %d, err %v, body %s", resp.StatusCode, err, body)
	}
	got.WriteString("search ")
	got.Write(maskGolden(body))
	got.WriteByte('\n')

	// The stream: cardio-b answers only once the client has read the
	// merge_update that follows cardio-a's node_result.
	gate := make(chan struct{})
	slow.gate.Store(gate)
	resp, err = http.Get(srv.URL + gateway.PathSearchStream + query + "&format=ndjson")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	released := false
	for sc.Scan() {
		// Heartbeats are droppable and depend on how long the stream sat
		// idle, so they are not part of the pinned reply.
		if len(sc.Bytes()) == 0 || strings.Contains(sc.Text(), `"type":"heartbeat"`) {
			continue
		}
		got.WriteString("frame ")
		got.Write(maskGolden(sc.Bytes()))
		got.WriteByte('\n')
		if !released && strings.Contains(sc.Text(), `"type":"merge_update"`) {
			released = true
			close(gate)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !released {
		close(gate)
		t.Fatalf("stream carried no merge_update frame:\n%s", got.String())
	}

	const path = "testdata/wire_golden.txt"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("wire bytes changed.\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}
