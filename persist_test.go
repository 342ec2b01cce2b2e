package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

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

func TestSaveRequiresBuild(t *testing.T) {
	m := New(Options{})
	var buf bytes.Buffer
	if err := m.Save(&buf); err == nil {
		t.Error("Save before BuildSummaries accepted")
	}
}

// sealed returns save-file JSON with its content checksum (re)computed
// the way Save writes it, for tests that hand-write or edit a save file
// and mean to get past the integrity check.
func sealed(t *testing.T, raw []byte) []byte {
	t.Helper()
	var env persistEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	sum, err := databasesChecksum(env.Databases)
	if err != nil {
		t.Fatal(err)
	}
	env.Checksum = sum
	out, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	return out
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
	want, err := m.Search(query, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("search before persistence returned no results")
	}

	// Without live handles a loaded metasearcher can Select but not
	// Search — the error must say so.
	bare := New(testbedOptions(lexicon))
	if err := bare.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := bare.Search(query, 2, 5); err == nil {
		t.Error("search without live handles reported success")
	}

	// With the same databases dialed before the load, the handles are
	// kept and the search matches the original.
	live := New(testbedOptions(lexicon))
	for _, s := range shards {
		srv := httptest.NewServer(wire.NewServer(
			NewLocalDatabaseFromTerms(s.name, s.docs),
			wire.ServerOptions{Category: s.category}))
		t.Cleanup(srv.Close)
		rdb, err := DialRemoteDatabase(context.Background(), srv.URL, RemoteDatabaseOptions{})
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
	got, err := live.Search(query, 2, 5)
	if err != nil {
		t.Fatalf("search after load with live handles: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("search after load diverges:\n got: %+v\nwant: %+v", got, want)
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
