package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func TestFormatQualityTable(t *testing.T) {
	rows := []QualityRow{
		{
			Bed: Web, Sampler: QBS, FreqEst: false,
			WR: QualityCell{Shrunk: 0.962, Unshrunk: 0.875, P: 0.0001},
		},
		{
			Bed: TREC4, Sampler: FPS, FreqEst: true,
			WR: QualityCell{Shrunk: 0.983, Unshrunk: 0.972, P: 0.01},
		},
	}
	out := FormatQualityTable("Table 4: Weighted recall wr", "wr", rows)
	for _, want := range []string{"Table 4", "Web", "TREC4", "QBS", "FPS", "0.962", "0.875", "0.983", "Yes", "No"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestQualityRowCellSelection(t *testing.T) {
	r := QualityRow{
		WR:   QualityCell{Shrunk: 1},
		UR:   QualityCell{Shrunk: 2},
		WP:   QualityCell{Shrunk: 3},
		UP:   QualityCell{Shrunk: 4},
		SRCC: QualityCell{Shrunk: 5},
		KL:   QualityCell{Shrunk: 6},
	}
	for metric, want := range map[string]float64{
		"wr": 1, "ur": 2, "wp": 3, "up": 4, "srcc": 5, "kl": 6, "WR": 1,
	} {
		if got := r.cell(metric).Shrunk; got != want {
			t.Errorf("cell(%q) = %v, want %v", metric, got, want)
		}
	}
	if got := r.cell("bogus"); got != (QualityCell{}) {
		t.Errorf("unknown metric returned %+v", got)
	}
}

func TestQualityMetricTitleCoversTables4To9(t *testing.T) {
	for tbl := 4; tbl <= 9; tbl++ {
		mt, ok := QualityMetricTitle[tbl]
		if !ok || mt[0] == "" || !strings.Contains(mt[1], "Table") {
			t.Errorf("table %d metadata missing: %v", tbl, mt)
		}
	}
}

func TestFormatRkSeries(t *testing.T) {
	results := []AccuracyResult{
		{Sampler: QBS, Strategy: Shrinkage, Rk: []float64{0.5, 0.6}},
		{Sampler: QBS, Strategy: Plain, Rk: []float64{0.3, 0.4}},
	}
	out := FormatRkSeries("Figure X", results)
	for _, want := range []string{"Figure X", "QBS-Shrinkage", "QBS-Plain", "0.500", "0.400"} {
		if !strings.Contains(out, want) {
			t.Errorf("series output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // title + header + 2 k rows
		t.Errorf("line count = %d:\n%s", len(lines), out)
	}
	if empty := FormatRkSeries("E", nil); !strings.Contains(empty, "E") {
		t.Error("empty series lost title")
	}
}

func TestFormatShrinkRateTable(t *testing.T) {
	rows := []ShrinkRateRow{
		{Bed: TREC6, Sampler: QBS, Algo: "LM", Rate: 0.1173},
		{Bed: TREC4, Sampler: FPS, Algo: "bGlOSS", Rate: 0.3542},
	}
	out := FormatShrinkRateTable(rows)
	if !strings.Contains(out, "35.42%") || !strings.Contains(out, "11.73%") {
		t.Errorf("rates missing:\n%s", out)
	}
	// Sorted: TREC4 before TREC6.
	if strings.Index(out, "TREC4") > strings.Index(out, "TREC6") {
		t.Errorf("rows not sorted by data set:\n%s", out)
	}
}

func TestFormatLambdaTable(t *testing.T) {
	out := FormatLambdaTable([]LambdaListing{
		{Database: "AIDS.org", Lambdas: []core.Lambda{
			{Component: "Uniform", Weight: 0.075},
			{Component: "AIDS.org", Weight: 0.421},
		}},
	})
	for _, want := range []string{"AIDS.org", "Uniform", "0.075", "0.421"} {
		if !strings.Contains(out, want) {
			t.Errorf("lambda table missing %q:\n%s", want, out)
		}
	}
}

func TestShowcaseTables(t *testing.T) {
	w := getWebWorld(t)
	t1 := w.Table1(3)
	if !strings.Contains(t1, "Table 1") || !strings.Contains(t1, "p(w|D)") {
		t.Errorf("Table 1 malformed:\n%s", t1)
	}
	t3 := w.Table3(4)
	if !strings.Contains(t3, "Table 3") || !strings.Contains(t3, "Root→") {
		t.Errorf("Table 3 malformed:\n%s", t3)
	}
	sums, err := w.BuildSummaries(Config{Sampler: QBS})
	if err != nil {
		t.Fatal(err)
	}
	listings := w.Table2Lambdas(sums, 2)
	if len(listings) != 2 {
		t.Fatalf("listings = %d", len(listings))
	}
	for _, l := range listings {
		if len(l.Lambdas) < 3 {
			t.Errorf("%s has %d components", l.Database, len(l.Lambdas))
		}
	}
}

func TestCategoryWeightingAblation(t *testing.T) {
	w := getWebWorld(t)
	sums, err := w.BuildSummaries(Config{Sampler: QBS})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	CategoryWeightingAblation(&sb, w, sums)
	out := sb.String()
	if !strings.Contains(out, "Equation 1") || !strings.Contains(out, "difference") {
		t.Errorf("ablation output malformed:\n%s", out)
	}
}

func TestFormatRkCSV(t *testing.T) {
	results := []AccuracyResult{
		{Sampler: QBS, Strategy: Shrinkage, Rk: []float64{0.5, 0.625}},
		{Sampler: QBS, Algo: "ReDDE", Label: "QBS-ReDDE", Rk: []float64{0.25, 0.375}},
	}
	out := FormatRkCSV("Fig", results)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if lines[1] != "k,QBS-Shrinkage,QBS-ReDDE" {
		t.Errorf("header = %q", lines[1])
	}
	if lines[2] != "1,0.5000,0.2500" {
		t.Errorf("row = %q", lines[2])
	}
}
