package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md's generated blocks from docs/results-default.txt")

// generated matches one BEGIN/END GENERATED region of EXPERIMENTS.md;
// the BEGIN marker says which lines of docs/results-default.txt it
// holds (see quote).
var generated = regexp.MustCompile(`(?s)(<!-- BEGIN GENERATED (.+?) -->\n).*?(<!-- END GENERATED -->)`)

// heading starts a block of docs/results-default.txt.
var heading = regexp.MustCompile(`^(Table|Figure|Extra)\b`)

// quote returns what a marker holds. Its spec is a heading, optionally
// followed by " | " and a regular expression: every block whose heading
// line starts with the heading (the lines up to the next heading,
// trailing blank lines dropped), joined by a blank line, keeping only
// the lines the expression matches.
func quote(results, spec string) (string, error) {
	title, keep, _ := strings.Cut(spec, " | ")
	re, err := regexp.Compile(keep)
	if err != nil {
		return "", err
	}
	lines := strings.Split(results, "\n")
	var blocks []string
	for i, l := range lines {
		if !heading.MatchString(l) || !strings.HasPrefix(l, title) {
			continue
		}
		end := i + 1
		for end < len(lines) && !heading.MatchString(lines[end]) {
			end++
		}
		block := slices.DeleteFunc(slices.Clone(lines[i:end]), func(l string) bool { return !re.MatchString(l) })
		blocks = append(blocks, strings.TrimRight(strings.Join(block, "\n"), "\n"))
	}
	if len(blocks) == 0 {
		return "", fmt.Errorf("docs/results-default.txt has no block %q", title)
	}
	return strings.Join(blocks, "\n\n"), nil
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
		block, err := quote(string(results), m[2])
		if err != nil {
			t.Error(err)
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
