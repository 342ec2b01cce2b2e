package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsNameTests fails when a `go test` line of the CI
// workflow selects nothing it means to: every alternative of a -run
// pattern, and every -fuzz pattern, must match a test or fuzz function
// of the package that line names. A test moved to another package
// would otherwise drop out of its CI step silently, because `go test
// -run` passes when its pattern matches nothing.
func TestCIRunPatternsNameTests(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	patterns := 0
	for _, line := range strings.Split(string(raw), "\n") {
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		args := shellWords(cmd)
		pkg := args[len(args)-1]
		var funcs []string // lazily: only lines that select tests need them
		for i, a := range args {
			name, pattern, _ := strings.Cut(strings.TrimPrefix(a, "-"), "=")
			if name != "run" && name != "fuzz" || !strings.HasPrefix(a, "-") {
				continue
			}
			if pattern == "" && i+1 < len(args) {
				pattern = args[i+1]
			}
			if pattern == "^$" {
				continue // -run '^$': no tests beside the fuzz target
			}
			if funcs == nil {
				funcs = testFuncs(t, pkg)
			}
			patterns++
			for _, alt := range strings.Split(pattern, "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml: -%s %q: %v", name, pattern, err)
					continue
				}
				if !anyMatch(re, funcs, name == "fuzz") {
					t.Errorf("ci.yml: -%s %q in %s: %q matches no function it can run", name, pattern, pkg, alt)
				}
			}
		}
	}
	if patterns == 0 {
		t.Fatal("ci.yml has no go test line with a -run or -fuzz pattern; the parse is broken")
	}
}

// shellWords splits a command line at spaces outside single quotes and
// drops the quotes, which is all the quoting ci.yml's go test lines use.
func shellWords(s string) []string {
	var words []string
	var w strings.Builder
	quoted, started := false, false
	for _, r := range strings.TrimSpace(s) {
		switch {
		case r == '\'':
			quoted, started = !quoted, true
		case r == ' ' && !quoted:
			if started {
				words = append(words, w.String())
				w.Reset()
				started = false
			}
		default:
			w.WriteRune(r)
			started = true
		}
	}
	if started {
		words = append(words, w.String())
	}
	return words
}

// testFuncs lists the Test, Fuzz and Example functions declared in the
// _test.go files of the package at dir.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("ci.yml names package %s, which has no test files (%v)", dir, err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				names = append(names, fd.Name.Name)
			}
		}
	}
	return names
}

func anyMatch(re *regexp.Regexp, funcs []string, fuzzOnly bool) bool {
	for _, name := range funcs {
		isTest := strings.HasPrefix(name, "Test") || strings.HasPrefix(name, "Example")
		if (strings.HasPrefix(name, "Fuzz") || isTest && !fuzzOnly) && re.MatchString(name) {
			return true
		}
	}
	return false
}
