package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// An invocation: the command word, optionally closing a quoted path
	// ("$TMP/metasearch"), followed by its arguments.
	invocationRE = regexp.MustCompile("metasearch[\"'`]?(?:\\s+|$)")
	flagTokenRE  = regexp.MustCompile("^[\\[(\"'`]*-([a-z][a-z0-9-]*)")
)

// invokedFlags returns every -flag token that follows the word
// "metasearch" in text, with backslash-continued lines joined and each
// invocation cut at the first shell separator.
func invokedFlags(text string) []string {
	text = strings.ReplaceAll(text, "\\\n", " ")
	var out []string
	for _, line := range strings.Split(text, "\n") {
		locs := invocationRE.FindAllStringIndex(line, -1)
		for i, loc := range locs {
			end := len(line)
			if i+1 < len(locs) {
				end = locs[i+1][0]
			}
		args:
			for _, tok := range strings.Fields(line[loc[1]:end]) {
				switch tok {
				case "|", "||", "&&", ";":
					break args
				}
				if m := flagTokenRE.FindStringSubmatch(tok); m != nil {
					out = append(out, m[1])
				}
			}
		}
	}
	return out
}

// TestDocumentedFlagsExist fails on any runbook line — README, DESIGN,
// the smoke scripts, the Makefile, the verify skill, this package's doc
// comment — that passes metasearch a flag registerFlags does not define.
func TestDocumentedFlagsExist(t *testing.T) {
	fs := flag.NewFlagSet("metasearch", flag.ContinueOnError)
	registerFlags(fs)

	root := filepath.Join("..", "..")
	files := []string{
		filepath.Join(root, "README.md"),
		filepath.Join(root, "DESIGN.md"),
		filepath.Join(root, "Makefile"),
		filepath.Join(root, ".claude", "skills", "verify", "SKILL.md"),
	}
	scripts, err := filepath.Glob(filepath.Join(root, "scripts", "*.sh"))
	if err != nil || len(scripts) == 0 {
		t.Fatalf("no scripts found: %v", err)
	}
	files = append(files, scripts...)

	seen := map[string]bool{}
	check := func(name, text string) {
		for _, f := range invokedFlags(text) {
			seen[f] = true
			if fs.Lookup(f) == nil {
				t.Errorf("%s invokes metasearch with -%s, which is not a registered flag", name, f)
			}
		}
	}
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		check(path, string(b))
	}
	// The package doc comment: everything above the package clause,
	// without the comment markers (so its "\" continuations join).
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "\npackage main\n")
	check("main.go doc comment", strings.ReplaceAll(doc, "\n//", "\n"))
	// Guard against a vacuous pass: the runbooks exercise most modes.
	if len(seen) < 10 {
		t.Fatalf("found only %d distinct documented flags (%v); the scan is broken", len(seen), seen)
	}
}
