package repro

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/replica"
	"repro/internal/wire"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	m := buildTestMetasearcher(t, Options{Seed: 31})
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}

	// A fresh metasearcher with no live databases can answer queries
	// from the loaded summaries alone.
	m2 := New(Options{})
	if err := m2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	want, err := m.Select("blood pressure hypertension", 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m2.Select("blood pressure hypertension", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(want) == 0 || got[0].Database != want[0].Database {
		t.Errorf("loaded selection %v, original %v", got, want)
	}
	// Info still works after loading.
	info, err := m2.Info("cardio")
	if err != nil {
		t.Fatal(err)
	}
	if info.EstimatedSize == 0 || info.SummaryWords == 0 {
		t.Errorf("loaded info incomplete: %+v", info)
	}
}

func TestSaveLoadBuildTelemetry(t *testing.T) {
	m := buildTestMetasearcher(t, Options{Seed: 34})
	orig, err := m.Info("cardio")
	if err != nil {
		t.Fatal(err)
	}
	if orig.SampleQueries == 0 || orig.EMIterations == 0 {
		t.Fatalf("build telemetry missing before save: %+v", orig)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2 := New(Options{})
	if err := m2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	got, err := m2.Info("cardio")
	if err != nil {
		t.Fatal(err)
	}
	if got.SampleQueries != orig.SampleQueries || got.EMIterations != orig.EMIterations {
		t.Errorf("provenance after round trip = %d queries / %d EM iters, want %d / %d",
			got.SampleQueries, got.EMIterations, orig.SampleQueries, orig.EMIterations)
	}
	if len(got.MixtureWeights) != len(orig.MixtureWeights) {
		t.Fatalf("λ vector length %d, want %d", len(got.MixtureWeights), len(orig.MixtureWeights))
	}
	for i := range got.MixtureWeights {
		if got.MixtureWeights[i] != orig.MixtureWeights[i] {
			t.Errorf("λ[%d] = %+v, want %+v", i, got.MixtureWeights[i], orig.MixtureWeights[i])
		}
	}
	// A save file from before telemetry persistence (no telemetry key)
	// still loads, with zero provenance.
	legacy := `{"version": 1, "databases": [{"name": "x", "category": "Heart",
		"size_estimate": 10, "sample_size": 5,
		"summary": {"version":1,"num_docs":10,"words":[{"w":"blood","p":0.5}]}}]}`
	m3 := New(Options{})
	if err := m3.Load(bytes.NewReader(sealed(t, []byte(legacy)))); err != nil {
		t.Fatal(err)
	}
	info, err := m3.Info("x")
	if err != nil {
		t.Fatal(err)
	}
	if info.SampleQueries != 0 {
		t.Errorf("legacy save produced provenance %+v", info)
	}
}

// TestSaveLoadSaveIsIdentity: saving what was loaded writes the file
// that was loaded, byte for byte — training_docs included, which a
// loaded store has no training set of its own to count.
func TestSaveLoadSaveIsIdentity(t *testing.T) {
	m := buildTestMetasearcher(t, Options{Seed: 39})
	var first, second bytes.Buffer
	if err := m.Save(&first); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first.String(), `"training_docs":60,`) {
		t.Fatal("the built store counts no training documents; the round trip would not show losing them")
	}
	m2 := New(Options{})
	if err := m2.Load(bytes.NewReader(first.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := m2.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("Save(Load(Save(m))) differs from Save(m):\nfirst  %s\nsecond %s", tail(first.Bytes()), tail(second.Bytes()))
	}
}

// tail is the end of a save file: the last λ, training_docs, checksum.
func tail(b []byte) []byte {
	if len(b) > 160 {
		b = b[len(b)-160:]
	}
	return b
}

// TestSaveBytesGolden pins the save format. testdata/state_golden.json
// was written by the commit before Save and Load went parallel (Save of
// buildTestMetasearcher at seed 38): it must load, saving the loaded
// store must reproduce it, and so must the same seeded build.
func TestSaveBytesGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "state_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	loaded := New(Options{})
	if err := loaded.Load(bytes.NewReader(golden)); err != nil {
		t.Fatalf("a save file written before this change no longer loads: %v", err)
	}
	for from, m := range map[string]*Metasearcher{
		"the loaded store":      loaded,
		"the same seeded build": buildTestMetasearcher(t, Options{Seed: 38}),
	} {
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), golden) {
			t.Errorf("Save of %s is not the golden file (sha256 %x, want %x):\n got %s\nwant %s",
				from, sha256.Sum256(buf.Bytes()), sha256.Sum256(golden), tail(buf.Bytes()), tail(golden))
		}
	}
}

func TestSaveRequiresBuild(t *testing.T) {
	m := New(Options{})
	var buf bytes.Buffer
	if err := m.Save(&buf); err == nil {
		t.Error("Save before BuildSummaries accepted")
	}
}

// sealed returns save-file JSON with its content checksum (re)computed
// for tests that hand-write or edit a save file and mean to get past
// the integrity check. It computes the checksum by its definition —
// sha256 over encoding/json's encoding of the decoded databases — not
// the way Save and Load stream it, so it also checks that they agree.
func sealed(t *testing.T, raw []byte) []byte {
	t.Helper()
	var env map[string]json.RawMessage
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	sum, err := contentChecksum(env["databases"])
	if err != nil {
		t.Fatal(err)
	}
	if env["checksum"], err = json.Marshal(sum); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// contentChecksum is the checksum a save file whose databases array is
// dbs must carry, by its definition.
func contentChecksum(dbs []byte) (string, error) {
	var decoded []persistDB
	if err := json.Unmarshal(dbs, &decoded); err != nil {
		return "", err
	}
	canonical, err := json.Marshal(decoded)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(canonical)
	return "sha256:" + hex.EncodeToString(sum[:]), nil
}

func TestLoadRejectsBadInput(t *testing.T) {
	m := New(Options{})
	for name, in := range map[string]string{
		"garbage":       "not json at all",
		"wrong version": `{"version": 9, "databases": [{"name": "x"}]}`,
	} {
		if err := m.Load(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Content the integrity check cannot catch: intact files saying
	// something invalid.
	cases := map[string]string{
		"empty":            `{"version": 1, "databases": []}`,
		"unknown category": `{"version": 1, "databases": [{"name": "x", "category": "Bogus", "summary": {"version":1,"num_docs":1,"words":[]}}]}`,
		"dup name":         `{"version": 1, "databases": [{"name": "x", "category": "Heart", "summary": {"version":1,"num_docs":1,"words":[]}}, {"name": "x", "category": "Heart", "summary": {"version":1,"num_docs":1,"words":[]}}]}`,
		"bad summary":      `{"version": 1, "databases": [{"name": "x", "category": "Heart", "summary": {"version":7}}]}`,
	}
	for name, in := range cases {
		err := m.Load(bytes.NewReader(sealed(t, []byte(in))))
		if err == nil || errors.Is(err, ErrNoChecksum) || strings.Contains(err.Error(), "checksum") {
			t.Errorf("%s: err = %v, want a content rejection", name, err)
		}
	}
	// Hostile sizes, a |S| the summary contradicts and a γ outside the
	// range the build clamps to, in an otherwise golden file: each is
	// rejected with an error naming the database and the field.
	golden, err := os.ReadFile(filepath.Join("testdata", "state_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ from, to, field string }{
		{`"size_estimate":81.81818181818181`, `"size_estimate":1e300`, "size_estimate"},
		{`"size_estimate":81.81818181818181`, `"size_estimate":-5`, "size_estimate"},
		{`"sample_size":30,"summary"`, `"sample_size":-3,"summary"`, "sample_size"},
		{`"sample_size":30,"summary"`, `"sample_size":3000,"summary"`, "sample_size"},
		{`"gamma":-6,`, `"gamma":1e308,`, "gamma"},
		{`"gamma":-6,`, `"gamma":-1,`, "gamma"},
		{`"sample_queries":22,`, `"sample_queries":-1,`, "sample_queries"},
	} {
		in := sealed(t, bytes.Replace(golden, []byte(c.from), []byte(c.to), 1))
		if err := m.Load(bytes.NewReader(in)); err == nil || !strings.Contains(err.Error(), `"cardio"`) || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: err = %v, want a rejection naming cardio's %s", c.to, err, c.field)
		}
	}
	// Several bad databases: the one reported is the first in file
	// order, not whichever a decoding worker got to first.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	okSummary := `{"version":1,"num_docs":1,"words":[]}`
	several := sealed(t, []byte(`{"version": 1, "databases": [
		{"name": "a", "category": "Heart", "summary": `+okSummary+`},
		{"name": "b", "category": "Bogus", "summary": `+okSummary+`},
		{"name": "c", "category": "Heart", "summary": {"version":7}},
		{"name": "a", "category": "Nowhere", "summary": {"version":8}}]}`))
	for i := 0; i < 20; i++ {
		if err := m.Load(bytes.NewReader(several)); err == nil || !strings.Contains(err.Error(), `"b" references unknown category "Bogus"`) {
			t.Fatalf("several bad databases: err = %v, want the first one's (b, unknown category)", err)
		}
	}
}

func TestSaveFileLoadFileRoundTrip(t *testing.T) {
	m := buildTestMetasearcher(t, Options{Seed: 35})
	path := filepath.Join(t.TempDir(), "state.json")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"checksum":"sha256:`) {
		t.Error("save file carries no content checksum")
	}
	m2 := New(Options{})
	if err := m2.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	want, err := m.Select("blood pressure hypertension", 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m2.Select("blood pressure hypertension", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(want) == 0 || got[0].Database != want[0].Database {
		t.Errorf("loaded selection %v, original %v", got, want)
	}
}

func TestLoadRejectsCorruptedFile(t *testing.T) {
	m := buildTestMetasearcher(t, Options{Seed: 36})
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt the content without breaking the JSON: the kind of damage
	// a torn write or bit flip leaves that version checks cannot catch.
	corrupt := bytes.Replace(buf.Bytes(), []byte(`"name":"cardio"`), []byte(`"name":"cardiX"`), 1)
	if bytes.Equal(corrupt, buf.Bytes()) {
		t.Fatal("corruption did not change the save bytes")
	}
	m2 := New(Options{})
	err := m2.Load(bytes.NewReader(corrupt))
	if err == nil {
		t.Fatal("corrupted save file loaded without error")
	}
	if !strings.Contains(err.Error(), "checksum mismatch") {
		t.Errorf("corruption error = %v, want a checksum mismatch", err)
	}
}

// TestLoadRejectsChecksumlessFile: a save file without a content
// checksum cannot be verified, so it is refused with ErrNoChecksum and
// nothing is published.
func TestLoadRejectsChecksumlessFile(t *testing.T) {
	m := buildTestMetasearcher(t, Options{Seed: 37})
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var env map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if _, ok := env["checksum"]; !ok {
		t.Fatal("save output carries no checksum to strip")
	}
	delete(env, "checksum")
	stripped, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	m2 := New(Options{})
	if err := m2.Load(bytes.NewReader(stripped)); !errors.Is(err, ErrNoChecksum) {
		t.Fatalf("checksum-less save: err = %v, want ErrNoChecksum", err)
	}
	if _, err := m2.Select("blood pressure hypertension", 2); err == nil {
		t.Fatal("a refused load still published summaries")
	}
}

// TestLoadKeepsLiveHandles covers the -load + -remote deployment: dial
// the nodes first, load offline-built summaries second, and Search
// works immediately because the registered handles survive the load.
func TestLoadKeepsLiveHandles(t *testing.T) {
	shards, lexicon := testbedShards(t, 2)
	query := strings.Join([]string{shards[0].docs[0][0], shards[0].docs[0][1]}, " ")

	m := New(testbedOptions(lexicon))
	for _, s := range shards {
		if err := m.AddDatabase(NewLocalDatabaseFromTerms(s.name, s.docs), s.category); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.BuildSummaries(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "state.json")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	want, err := m.Search(context.Background(), SearchRequest{Query: query, MaxDBs: 2, PerDB: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Results) == 0 {
		t.Fatal("search before persistence returned no results")
	}

	// Without live handles a loaded metasearcher ranks every database
	// but queries none: each selected one is out of scope here.
	bare := New(testbedOptions(lexicon))
	if err := bare.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if resp, err := bare.Search(context.Background(), SearchRequest{Query: query, MaxDBs: 2, PerDB: 5}); err != nil || len(resp.Results) != 0 {
		t.Errorf("search without live handles = %v, %v; want an empty ranking", resp, err)
	}
	rec := bare.Audit().Last()
	if rec == nil || len(rec.Nodes) == 0 {
		t.Fatal("search without live handles audited no node")
	}
	for _, n := range rec.Nodes {
		if !n.OutOfScope || n.Unavailable {
			t.Errorf("search without live handles audited %+v; want out of scope", n)
		}
	}

	// With the same databases dialed before the load, the handles are
	// kept and the search matches the original.
	live := New(testbedOptions(lexicon))
	for _, s := range shards {
		srv := httptest.NewServer(wire.NewServer(
			NewLocalDatabaseFromTerms(s.name, s.docs),
			wire.ServerOptions{Category: s.category}))
		t.Cleanup(srv.Close)
		rdb, err := replica.Dial(context.Background(), []string{srv.URL}, replica.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := live.AddDatabase(rdb, rdb.Category()); err != nil {
			t.Fatal(err)
		}
	}
	if err := live.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := live.Search(context.Background(), SearchRequest{Query: query, MaxDBs: 2, PerDB: 5})
	if err != nil {
		t.Fatalf("search after load with live handles: %v", err)
	}
	if !reflect.DeepEqual(got.Results, want.Results) {
		t.Errorf("search after load diverges:\n got: %+v\nwant: %+v", got.Results, want.Results)
	}
}

func TestLoadReplacesState(t *testing.T) {
	m := buildTestMetasearcher(t, Options{Seed: 32})
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2 := buildTestMetasearcher(t, Options{Seed: 33})
	if err := m2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	// The loaded state must mirror the saved metasearcher, not the old one.
	i1, err := m.Info("onco")
	if err != nil {
		t.Fatal(err)
	}
	i2, err := m2.Info("onco")
	if err != nil {
		t.Fatal(err)
	}
	if i1.EstimatedSize != i2.EstimatedSize || i1.SummaryWords != i2.SummaryWords {
		t.Errorf("loaded info %+v differs from saved %+v", i2, i1)
	}
}

// FuzzLoad feeds Load save files whose databases array is the fuzzer's,
// sealed with a matching checksum so that the input gets past the
// integrity check to the content checks. Load must not panic; a
// rejected file must leave the served store as it was; an accepted one
// must round-trip Save → Load → Save byte for byte, and selection over
// it must have finite score moments: the audit record of a search
// JSON-encodes. The seeds after the golden file are ones selection
// must never see: a γ of 1e308 (NaN moments) and a |S| the summary
// contradicts.
func FuzzLoad(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "state_golden.json"))
	if err != nil {
		f.Fatal(err)
	}
	var env struct {
		Databases json.RawMessage `json:"databases"`
	}
	if err := json.Unmarshal(golden, &env); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(env.Databases))
	f.Add(bytes.Replace(env.Databases, []byte(`"gamma":-6,`), []byte(`"gamma":1e308,`), 1))
	f.Add(bytes.Replace(env.Databases, []byte(`"sample_size":30,"summary"`), []byte(`"sample_size":3000,"summary"`), 1))
	save := func(t *testing.T, m *Metasearcher) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	m := New(Options{})
	if err := m.Load(bytes.NewReader(golden)); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, dbs []byte) {
		served := save(t, m)
		if err := m.Load(bytes.NewReader(sealedDatabases(dbs))); err != nil {
			if !bytes.Equal(save(t, m), served) {
				t.Fatalf("a rejected file (%v) changed the served store", err)
			}
			return
		}
		if _, err := m.Search(context.Background(), SearchRequest{Query: "heart arrhythmia", MaxDBs: 3}); err != nil {
			t.Fatalf("search over an accepted file: %v", err)
		}
		if _, err := json.Marshal(m.Audit().Last()); err != nil {
			t.Fatalf("the audit record of a search over an accepted file does not encode: %v", err)
		}
		first := save(t, m)
		again := New(Options{})
		if err := again.Load(bytes.NewReader(first)); err != nil {
			t.Fatalf("Save of an accepted file does not load: %v", err)
		}
		if second := save(t, again); !bytes.Equal(first, second) {
			t.Fatalf("Save(Load(Save(m))) differs from Save(m):\nfirst  %s\nsecond %s", tail(first), tail(second))
		}
	})
}

// sealedDatabases is a save file around the databases array dbs with
// its content checksum; an array that does not decode gets one that
// matches nothing.
func sealedDatabases(dbs []byte) []byte {
	sum, err := contentChecksum(dbs)
	if err != nil {
		sum = "sha256:none"
	}
	return []byte(`{"version":1,"databases":` + string(dbs) + `,"training_docs":60,"checksum":"` + sum + `"}`)
}
