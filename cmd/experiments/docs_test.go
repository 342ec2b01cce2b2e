package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md's generated blocks from docs/results-default.txt")

// generated matches one BEGIN/END GENERATED region of EXPERIMENTS.md;
// the BEGIN marker names the block of docs/results-default.txt it holds.
var generated = regexp.MustCompile(`(?s)(<!-- BEGIN GENERATED (.+?) -->\n).*?(<!-- END GENERATED -->)`)

// heading starts a block of docs/results-default.txt.
var heading = regexp.MustCompile(`^(Table|Figure|Extra)\b`)

// resultBlock is the block of results that starts at the line beginning
// with title: every line up to the next table, figure or extra heading,
// trailing blank lines dropped.
func resultBlock(results, title string) (string, bool) {
	lines := strings.Split(results, "\n")
	for i, l := range lines {
		if !strings.HasPrefix(l, title+":") {
			continue
		}
		end := i + 1
		for end < len(lines) && !heading.MatchString(lines[end]) {
			end++
		}
		return strings.TrimRight(strings.Join(lines[i:end], "\n"), "\n"), true
	}
	return "", false
}

// TestExperimentsDocCurrent fails when a generated block of
// EXPERIMENTS.md is not a verbatim copy of its block in
// docs/results-default.txt, so the paper numbers the prose quotes are
// the ones `make results` wrote; `make docs` (this test with -update)
// rewrites the copies. No experiment is run.
func TestExperimentsDocCurrent(t *testing.T) {
	path := filepath.Join("..", "..", "EXPERIMENTS.md")
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	results, err := os.ReadFile(filepath.Join("..", "..", "docs", "results-default.txt"))
	if err != nil {
		t.Fatal(err)
	}
	regions := generated.FindAllStringSubmatch(string(doc), -1)
	if len(regions) == 0 {
		t.Fatalf("%s has no generated blocks", path)
	}
	want := generated.ReplaceAllStringFunc(string(doc), func(region string) string {
		m := generated.FindStringSubmatch(region)
		block, ok := resultBlock(string(results), m[2])
		if !ok {
			t.Errorf("docs/results-default.txt has no block %q", m[2])
			return region
		}
		return m[1] + "```\n" + block + "\n```\n" + m[3]
	})
	if *update {
		if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if string(doc) != want {
		t.Errorf("%s quotes stale results: run `make docs`", path)
	}
}
