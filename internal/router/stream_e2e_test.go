package router

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/chaos"
	"repro/internal/evtstream"
	"repro/internal/gateway"
	"repro/internal/shardmap"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// The streaming end-to-end test: with one shard's dbnodes behind a
// chaos latency proxy, a stream through the router must deliver the
// selection frame first, the fast shard's node results well before the
// delayed final frame, and a final frame identical to the blocking
// endpoint's answer; and a client that disconnects mid-stream must
// release the fan-out on every shard (search_inflight drains to zero).

// streamFrame is one received frame with its arrival time.
type streamFrame struct {
	typ  string
	at   time.Duration
	data json.RawMessage
}

// readStream consumes an NDJSON stream to completion.
func readStream(t *testing.T, baseURL, q string) []streamFrame {
	t.Helper()
	start := time.Now()
	resp, err := http.Get(streamURL(baseURL, q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	var frames []streamFrame
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var f evtstream.Frame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("bad frame %q: %v", sc.Text(), err)
		}
		frames = append(frames, streamFrame{typ: f.Type, at: time.Since(start), data: f.Data})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return frames
}

func streamURL(baseURL, q string) string {
	return baseURL + gateway.PathSearchStream + "?" + url.Values{
		"q": {q}, "k": {"3"}, "perdb": {"5"}, "format": {"ndjson"},
	}.Encode()
}

// normalizeReply strips the per-request fields (trace id, timings) so
// two requests for the same query compare on ranking and provenance.
func normalizeReply(t *testing.T, raw json.RawMessage) []byte {
	t.Helper()
	var rep repro.SearchResponse
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("decoding reply: %v", err)
	}
	rep.TraceID = ""
	rep.ElapsedSeconds = 0
	rep.Stages = repro.SearchStages{}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func fetchBlockingRaw(t *testing.T, baseURL, q string) json.RawMessage {
	t.Helper()
	resp, err := http.Get(baseURL + gateway.PathSearch + "?" + url.Values{
		"q": {q}, "k": {"3"}, "perdb": {"5"},
	}.Encode())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("blocking status = %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestClusterStreaming(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a full testbed and cluster")
	}
	dbs, lexicon := clusterTestbed(t, 4)

	builder := repro.New(clusterOptions(lexicon))
	for _, d := range dbs {
		if err := builder.AddDatabase(repro.NewLocalDatabaseFromTerms(d.name, d.docs), d.category); err != nil {
			t.Fatal(err)
		}
	}
	if err := builder.BuildSummaries(); err != nil {
		t.Fatal(err)
	}
	stateFile := filepath.Join(t.TempDir(), "state.json")
	if err := builder.SaveFile(stateFile); err != nil {
		t.Fatal(err)
	}

	// One dbnode per database.
	directAddr := make(map[string]string, len(dbs))
	for _, d := range dbs {
		srv := httptest.NewServer(wire.NewServer(
			repro.NewLocalDatabaseFromTerms(d.name, d.docs),
			wire.ServerOptions{Category: d.category}))
		t.Cleanup(srv.Close)
		directAddr[d.name] = strings.TrimPrefix(srv.URL, "http://")
	}

	topo := &shardmap.Topology{
		Version: shardmap.TopologyVersion,
		Shards: []shardmap.Shard{
			{ID: "shard-00", Addr: "pending:0"},
			{ID: "shard-01", Addr: "pending:0"},
		},
	}
	for _, d := range dbs {
		topo.Databases = append(topo.Databases, shardmap.Database{
			Name: d.name, Category: d.category, Replicas: []string{directAddr[d.name]},
		})
	}

	// Every dbnode on shard-01's slice goes behind a chaos latency
	// proxy: that shard's fan-out stalls, so its node results — and the
	// final merge — arrive long after the fast shard's frames.
	const chaosDelay = 250 * time.Millisecond
	delayed, err := topo.ShardAssignments("shard-01")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range delayed {
		p, err := chaos.New("http://"+directAddr[a.Database], chaos.Options{
			Initial: chaos.Faults{LatencyMs: int(chaosDelay.Milliseconds())},
		})
		if err != nil {
			t.Fatal(err)
		}
		proxy := httptest.NewServer(p)
		t.Cleanup(proxy.Close)
		for i := range topo.Databases {
			if topo.Databases[i].Name == a.Database {
				topo.Databases[i].Replicas = []string{strings.TrimPrefix(proxy.URL, "http://")}
			}
		}
	}

	shardMs := make([]*repro.Metasearcher, len(topo.Shards))
	for i := range topo.Shards {
		assigns, err := topo.ShardAssignments(topo.Shards[i].ID)
		if err != nil {
			t.Fatal(err)
		}
		sm := repro.New(clusterOptions(lexicon))
		for _, a := range assigns {
			rdb, err := repro.DialReplicatedDatabase(context.Background(), a.Replicas, repro.ReplicatedDatabaseOptions{
				Preferred: a.Preferred,
				Breakers:  sm.Breakers(),
				Metrics:   sm.Metrics(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := sm.AddDatabase(rdb, rdb.Category()); err != nil {
				t.Fatal(err)
			}
		}
		if err := sm.LoadFile(stateFile); err != nil {
			t.Fatal(err)
		}
		shardMs[i] = sm
		gw := httptest.NewServer(gateway.For(sm.Search, gateway.Options{ShardID: topo.Shards[i].ID, Metrics: sm.Metrics()}))
		t.Cleanup(gw.Close)
		topo.Shards[i].Addr = strings.TrimPrefix(gw.URL, "http://")
	}

	rt, err := New(topo, Options{Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	rgw := httptest.NewServer(gateway.For(rt.Search, gateway.Options{Metrics: telemetry.NewRegistry()}))
	t.Cleanup(rgw.Close)

	q := dbs[0].docs[0][0] + " " + dbs[0].docs[0][1]

	t.Run("frame ordering and final identity", func(t *testing.T) {
		frames := readStream(t, rgw.URL, q)
		if len(frames) == 0 {
			t.Fatal("stream produced no frames")
		}
		if frames[0].typ != evtstream.TypeSelection {
			t.Fatalf("first frame = %q, want selection", frames[0].typ)
		}
		var firstNode, final time.Duration
		var sawMerge bool
		var finalData json.RawMessage
		for _, f := range frames {
			switch f.typ {
			case evtstream.TypeNodeResult:
				if firstNode == 0 {
					firstNode = f.at
				}
			case evtstream.TypeMergeUpdate:
				sawMerge = true
			case evtstream.TypeFinal:
				final = f.at
				finalData = f.data
			}
		}
		if firstNode == 0 || final == 0 {
			t.Fatalf("stream missing node_result or final; frames: %+v", frameTypes(frames))
		}
		if !sawMerge {
			t.Errorf("stream carried no merge_update; frames: %+v", frameTypes(frames))
		}
		// The fast shard's first node result must beat the chaos-delayed
		// final by most of the injected latency.
		if final-firstNode < chaosDelay/2 {
			t.Errorf("first node_result at %v, final at %v: streaming bought < %v of early delivery",
				firstNode, final, chaosDelay/2)
		}

		// The final frame must be the blocking endpoint's answer — same
		// ranking, selections, terms, scorer — on the router plane...
		got := normalizeReply(t, finalData)
		want := normalizeReply(t, fetchBlockingRaw(t, rgw.URL, q))
		if !bytes.Equal(got, want) {
			t.Errorf("router streamed final != blocking:\n stream: %s\n block:  %s", got, want)
		}

		// ...and on the shard plane.
		shardURL := "http://" + topo.Shards[0].Addr
		sFrames := readStream(t, shardURL, q)
		var sFinal json.RawMessage
		for _, f := range sFrames {
			if f.typ == evtstream.TypeFinal {
				sFinal = f.data
			}
		}
		if sFinal == nil {
			t.Fatalf("shard stream has no final frame; frames: %+v", frameTypes(sFrames))
		}
		sGot := normalizeReply(t, sFinal)
		sWant := normalizeReply(t, fetchBlockingRaw(t, shardURL, q))
		if !bytes.Equal(sGot, sWant) {
			t.Errorf("shard streamed final != blocking:\n stream: %s\n block:  %s", sGot, sWant)
		}
	})

	t.Run("disconnect cancels fan-out", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, streamURL(rgw.URL, q), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		// Read the first frame so the stream is live, then wait until
		// the delayed shard is mid-fan-out before hanging up.
		br := bufio.NewReader(resp.Body)
		if _, err := br.ReadBytes('\n'); err != nil {
			t.Fatal(err)
		}
		delayedMs := shardMs[1]
		if err := waitFor(2*time.Second, func() bool {
			return delayedMs.Metrics().Gauge("search_inflight").Value() >= 1
		}); err != nil {
			t.Fatal("delayed shard never entered a search while the stream was open")
		}
		cancel()

		for i, sm := range shardMs {
			g := sm.Metrics().Gauge("search_inflight")
			if err := waitFor(5*time.Second, func() bool { return g.Value() == 0 }); err != nil {
				t.Errorf("shard %d search_inflight = %v after client disconnect, want 0", i, g.Value())
			}
		}
	})
}

func frameTypes(frames []streamFrame) []string {
	out := make([]string, len(frames))
	for i, f := range frames {
		out[i] = f.typ
	}
	return out
}

// waitFor polls cond every 10 ms until it holds or d has passed: the
// shards' search_inflight gauges are state their goroutines reach with
// no event a test can wait on.
func waitFor(d time.Duration, cond func() bool) error {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("condition not met within %v", d)
}
