package summary

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/index"
)

func buildIndex(docs ...string) *index.Index {
	b := index.NewBuilder(len(docs))
	for _, d := range docs {
		b.Add(strings.Fields(d))
	}
	return b.Build()
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestFromIndexPerfectSummary(t *testing.T) {
	ix := buildIndex(
		"blood pressure blood",
		"blood hypertension",
		"algorithm",
	)
	s := FromIndex(ix)
	if s.NumDocs != 3 {
		t.Errorf("NumDocs = %v", s.NumDocs)
	}
	if s.CW != 6 {
		t.Errorf("CW = %v", s.CW)
	}
	if s.SampleSize != 0 {
		t.Errorf("perfect summary has SampleSize %d", s.SampleSize)
	}
	if !approx(s.P("blood"), 2.0/3) {
		t.Errorf("P(blood) = %v", s.P("blood"))
	}
	if !approx(s.Ptf("blood"), 3.0/6) {
		t.Errorf("Ptf(blood) = %v", s.Ptf("blood"))
	}
	if s.P("missing") != 0 || s.Ptf("missing") != 0 {
		t.Error("missing word should have zero probabilities")
	}
	if s.Len() != 4 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestFromIndexEmpty(t *testing.T) {
	s := FromIndex(index.NewBuilder(0).Build())
	if s.NumDocs != 0 || s.Len() != 0 {
		t.Error("empty index should give empty summary")
	}
}

func TestFromSample(t *testing.T) {
	docs := [][]string{
		{"a", "a", "b"},
		{"a", "c"},
	}
	s := FromSample(docs)
	if s.NumDocs != 2 || s.SampleSize != 2 {
		t.Errorf("NumDocs=%v SampleSize=%d", s.NumDocs, s.SampleSize)
	}
	if !approx(s.P("a"), 1.0) || !approx(s.P("b"), 0.5) {
		t.Errorf("P(a)=%v P(b)=%v", s.P("a"), s.P("b"))
	}
	if !approx(s.Ptf("a"), 3.0/5) {
		t.Errorf("Ptf(a) = %v", s.Ptf("a"))
	}
	if s.SampleDF("a") != 2 || s.SampleDF("b") != 1 {
		t.Error("sample document frequencies wrong")
	}
	if s.CW != 5 {
		t.Errorf("CW = %v", s.CW)
	}
}

func TestFromSampleEmpty(t *testing.T) {
	s := FromSample(nil)
	if s.NumDocs != 0 || s.Len() != 0 {
		t.Error("empty sample should give empty summary")
	}
}

func TestTopWords(t *testing.T) {
	s := FromSample([][]string{
		{"common", "rare"},
		{"common", "mid"},
		{"common", "mid"},
	})
	top := s.TopWords(2)
	if !reflect.DeepEqual(top, []string{"common", "mid"}) {
		t.Errorf("TopWords = %v", top)
	}
	all := s.TopWords(100)
	if len(all) != 3 {
		t.Errorf("TopWords(100) = %v", all)
	}
}

func TestTopWordsDeterministicTies(t *testing.T) {
	s := FromSample([][]string{{"b", "a", "c"}})
	got := s.TopWords(3)
	if !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("tie break = %v, want alphabetical", got)
	}
}

func TestClone(t *testing.T) {
	s := FromSample([][]string{{"a"}})
	c := s.Clone()
	c.Words["a"] = Word{P: 0.123}
	c.NumDocs = 999
	if s.Words["a"].P == 0.123 || s.NumDocs == 999 {
		t.Error("Clone is not a deep copy")
	}
}

func TestEffectiveDocFreq(t *testing.T) {
	s := &Summary{NumDocs: 1000, Words: map[string]Word{
		"present": {P: 0.01},   // 10 docs
		"edge":    {P: 0.0005}, // 0.5 docs -> rounds to 1
		"absent":  {P: 0.0004}, // 0.4 docs -> rounds to 0
	}}
	if got := EffectiveDocFreq(s, "present"); got != 10 {
		t.Errorf("present: %d", got)
	}
	if got := EffectiveDocFreq(s, "edge"); got != 1 {
		t.Errorf("edge: %d", got)
	}
	if got := EffectiveDocFreq(s, "absent"); got != 0 {
		t.Errorf("absent: %d", got)
	}
	if got := EffectiveDocFreq(s, "missing"); got != 0 {
		t.Errorf("missing: %d", got)
	}
}

func TestSampleSummaryApproximatesPerfect(t *testing.T) {
	// The premise of query-based sampling: frequent words get accurate
	// estimates from a sample; a full-database "sample" is exact.
	ix := buildIndex(
		"a b", "a c", "a d", "a b", "a e",
	)
	var docs [][]string
	for i := 0; i < ix.NumDocs(); i++ {
		docs = append(docs, ix.Doc(index.DocID(i)))
	}
	perfect := FromIndex(ix)
	sampled := FromSample(docs)
	for _, w := range []string{"a", "b", "c"} {
		if !approx(perfect.P(w), sampled.P(w)) {
			t.Errorf("P(%s): perfect %v vs full-sample %v", w, perfect.P(w), sampled.P(w))
		}
		if !approx(perfect.Ptf(w), sampled.Ptf(w)) {
			t.Errorf("Ptf(%s): perfect %v vs full-sample %v", w, perfect.Ptf(w), sampled.Ptf(w))
		}
	}
}
