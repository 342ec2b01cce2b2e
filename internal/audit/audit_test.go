package audit

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

func TestRingAddGetRecent(t *testing.T) {
	l := NewLog(4)
	if l.Last() != nil || l.Len() != 0 {
		t.Fatal("fresh log should be empty")
	}
	for i := 1; i <= 6; i++ {
		id := l.Add(&QueryRecord{Query: fmt.Sprintf("q%d", i)})
		if id != uint64(i) {
			t.Fatalf("Add #%d returned id %d", i, id)
		}
	}
	if l.Len() != 6 {
		t.Fatalf("Len = %d, want 6", l.Len())
	}
	// ids 1 and 2 were evicted by 5 and 6 (capacity 4).
	for _, id := range []uint64{1, 2} {
		if l.Get(id) != nil {
			t.Errorf("Get(%d) should be evicted", id)
		}
	}
	for _, id := range []uint64{3, 4, 5, 6} {
		r := l.Get(id)
		if r == nil || r.ID != id {
			t.Errorf("Get(%d) = %+v, want record with that id", id, r)
		}
	}
	if r := l.Last(); r == nil || r.Query != "q6" {
		t.Errorf("Last = %+v, want q6", r)
	}
	recent := l.Recent(10)
	if len(recent) != 4 {
		t.Fatalf("Recent(10) returned %d records, want 4", len(recent))
	}
	for i, want := range []string{"q6", "q5", "q4", "q3"} {
		if recent[i].Query != want {
			t.Errorf("Recent[%d] = %s, want %s (newest first)", i, recent[i].Query, want)
		}
	}
	if got := l.Recent(2); len(got) != 2 || got[0].Query != "q6" {
		t.Errorf("Recent(2) = %v", got)
	}
}

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	if id := l.Add(&QueryRecord{}); id != 0 {
		t.Errorf("nil Add returned %d", id)
	}
	l.SetSink(&bytes.Buffer{})
	if l.Get(1) != nil || l.Last() != nil || l.Recent(5) != nil || l.Len() != 0 {
		t.Error("nil log accessors should return zero values")
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	l := NewLog(8)
	l.SetSink(&buf)
	l.Add(&QueryRecord{Query: "alpha", Merged: 3})
	l.Add(&QueryRecord{Query: "beta", Error: "boom"})
	l.SetSink(nil)
	l.Add(&QueryRecord{Query: "gamma"}) // after detach: not written

	var lines []QueryRecord
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var r QueryRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("sink line is not JSON: %v", err)
		}
		lines = append(lines, r)
	}
	if len(lines) != 2 {
		t.Fatalf("sink got %d lines, want 2", len(lines))
	}
	if lines[0].Query != "alpha" || lines[0].ID != 1 || lines[0].Merged != 3 {
		t.Errorf("line 0 = %+v", lines[0])
	}
	if lines[1].Query != "beta" || lines[1].Error != "boom" {
		t.Errorf("line 1 = %+v", lines[1])
	}
}

func TestConcurrentAdd(t *testing.T) {
	l := NewLog(16)
	const writers, perWriter = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				l.Add(&QueryRecord{Query: "q"})
			}
		}()
	}
	wg.Wait()
	if l.Len() != writers*perWriter {
		t.Fatalf("Len = %d, want %d", l.Len(), writers*perWriter)
	}
	// Every surviving slot must hold a record whose ID maps back to it.
	recent := l.Recent(16)
	if len(recent) != 16 {
		t.Fatalf("Recent(16) = %d records", len(recent))
	}
	for i := 1; i < len(recent); i++ {
		if recent[i-1].ID <= recent[i].ID {
			t.Fatalf("Recent not newest-first: %d then %d", recent[i-1].ID, recent[i].ID)
		}
	}
}

func TestHandlerListAndByID(t *testing.T) {
	l := NewLog(8)
	for i := 1; i <= 5; i++ {
		l.Add(&QueryRecord{Query: fmt.Sprintf("q%d", i), TraceID: "abc"})
	}
	h := l.Handler()

	// List, default size.
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/queries", nil))
	if rw.Code != 200 {
		t.Fatalf("list status %d", rw.Code)
	}
	var list []QueryRecord
	if err := json.Unmarshal(rw.Body.Bytes(), &list); err != nil {
		t.Fatalf("list body: %v", err)
	}
	if len(list) != 5 || list[0].Query != "q5" {
		t.Fatalf("list = %d records, first %q", len(list), list[0].Query)
	}

	// List with ?n=2.
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/queries?n=2", nil))
	list = nil
	json.Unmarshal(rw.Body.Bytes(), &list)
	if len(list) != 2 {
		t.Fatalf("?n=2 returned %d records", len(list))
	}

	// By id.
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/queries/3", nil))
	if rw.Code != 200 {
		t.Fatalf("by-id status %d", rw.Code)
	}
	var rec QueryRecord
	if err := json.Unmarshal(rw.Body.Bytes(), &rec); err != nil {
		t.Fatalf("by-id body: %v", err)
	}
	if rec.ID != 3 || rec.Query != "q3" {
		t.Fatalf("by-id = %+v", rec)
	}

	// Missing id → 404.
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/queries/99", nil))
	if rw.Code != 404 {
		t.Fatalf("missing id status %d, want 404", rw.Code)
	}

	// Empty log renders [] not null.
	empty := NewLog(2)
	rw = httptest.NewRecorder()
	empty.Handler().ServeHTTP(rw, httptest.NewRequest("GET", "/debug/queries", nil))
	if got := strings.TrimSpace(rw.Body.String()); got != "[]" {
		t.Fatalf("empty list body = %q, want []", got)
	}
}

func TestFormat(t *testing.T) {
	r := &QueryRecord{
		ID: 7, Query: "oil spill", TraceID: "deadbeef01020304",
		Terms: []string{"oil", "spill"}, Scorer: "CORI", MaxDBs: 2, PerDB: 5,
		Candidates: []Candidate{
			{Database: "env", Score: 0.61, Selected: true, Shrinkage: true,
				ScoreMean: 0.55, ScoreStdDev: 0.7,
				Lambdas:  []core.Lambda{{Component: "category", Weight: 0.4}, {Component: "db", Weight: 0.6}},
				Category: "Root→ Science"},
			{Database: "sports", Score: 0.11, ScoreMean: 0.12, ScoreStdDev: 0.01},
		},
		Selected: []string{"env"},
		Nodes: []NodeCall{
			{NodeOutcome: NodeOutcome{Database: "env", LatencySeconds: 0.012, Results: 5}, Attempts: 2, Retries: 1},
			{NodeOutcome: NodeOutcome{Database: "offline", Unavailable: true}},
		},
		Merged:  5,
		TopHits: []Hit{{Database: "env", DocID: 42, Score: 0.9}},
	}
	var buf bytes.Buffer
	r.Format(&buf)
	out := buf.String()
	for _, want := range []string{
		"query #7", "oil spill", "trace=deadbeef01020304",
		"shrinkage fired for 1", "* env", "SHRUNK", "λ[category=0.400 db=0.600] along Root→ Science",
		"unshrunk", "attempts=2 retries=1", "UNAVAILABLE", "env/42",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output missing %q:\n%s", want, out)
		}
	}
	if r.ShrinkageCount() != 1 {
		t.Errorf("ShrinkageCount = %d", r.ShrinkageCount())
	}
	// Nil record must not panic.
	(*QueryRecord)(nil).Format(&buf)
}
