package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite docs/flags.md from this build's flag sets")

// flagNames returns the flags a mode registers.
func flagNames(m *mode) map[string]bool {
	names := map[string]bool{}
	m.flagSet(io.Discard).fs.VisitAll(func(fl *flag.Flag) { names[fl.Name] = true })
	return names
}

// TestModeFlagSets pins what the subcommands promise: a mode rejects
// every flag that only other modes own, rejects a missing required flag,
// both before any testbed is built, and route and collect never build
// one at all.
func TestModeFlagSets(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	worlds := 0
	realBuildWorld := buildWorld
	buildWorld = func(*flags) (*experiments.World, error) {
		worlds++
		return nil, errors.New("no world in this test")
	}
	defer func() { buildWorld = realBuildWorld }()

	topo := filepath.Join(t.TempDir(), "topo.json")
	if err := os.WriteFile(topo, []byte(`{"version":1,
		"shards":[{"id":"shard-00","addr":"127.0.0.1:1"}],
		"databases":[{"name":"db","replicas":["127.0.0.1:1"]}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// A complete invocation of each mode, as flag/value pairs. The listen
	// address is invalid, so a mode that gets as far as serving fails
	// there instead of blocking.
	const badAddr = "127.0.0.1:-1"
	complete := map[string][][2]string{
		"query":   nil,
		"serve":   {{"-serve", badAddr}},
		"shard":   {{"-serve", badAddr}, {"-topology", topo}, {"-load", "state.json"}, {"-shard-id", "shard-00"}},
		"route":   {{"-serve", badAddr}, {"-topology", topo}},
		"collect": {{"-serve", badAddr}, {"-topology", topo}},
	}
	invoke := func(mode string, pairs [][2]string, extra ...string) (int, string) {
		args := []string{mode}
		for _, p := range pairs {
			args = append(args, p[0], p[1])
		}
		var stderr bytes.Buffer
		code := run(append(args, extra...), &stderr)
		return code, stderr.String()
	}

	all := map[string]bool{}
	for i := range modes {
		for name := range flagNames(&modes[i]) {
			all[name] = true
		}
	}
	for i := range modes {
		m := &modes[i]
		own := flagNames(m)
		t.Run(m.name, func(t *testing.T) {
			for name := range all {
				if own[name] {
					continue
				}
				code, out := invoke(m.name, complete[m.name], "-"+name+"=1")
				if code != 2 || !strings.Contains(out, "flag provided but not defined: -"+name) {
					t.Errorf("foreign flag -%s: exit %d, stderr %q; want exit 2 naming the flag", name, code, out)
				}
			}
			for skip, req := range complete[m.name] {
				pairs := append(append([][2]string{}, complete[m.name][:skip]...), complete[m.name][skip+1:]...)
				code, out := invoke(m.name, pairs)
				if code != 2 || !strings.Contains(out, req[0]+" is required") {
					t.Errorf("without %s: exit %d, stderr %q; want exit 2 naming the flag", req[0], code, out)
				}
			}
			if worlds != 0 {
				t.Fatalf("a usage error built %d worlds", worlds)
			}
			// The complete invocation gets past parsing and fails in the
			// mode itself: at the world the test refuses to build for the
			// modes that own a metasearcher, at the listener for the two
			// that must not build one.
			code, out := invoke(m.name, complete[m.name])
			wantWorlds := 1
			if m.name == "route" || m.name == "collect" {
				wantWorlds = 0
			}
			if code != 1 || worlds != wantWorlds {
				t.Errorf("complete invocation: exit %d after %d world builds (stderr %q); want exit 1 after %d", code, worlds, out, wantWorlds)
			}
			worlds = 0
		})
	}

	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "usage: metasearch <mode>"},
		{[]string{"-route"}, `unknown mode "-route"`},
		{[]string{"serve", "-scorer", "bglos"}, "cori | bgloss | lm"},
		{[]string{"route", "-serve", badAddr, "-topology", topo, "heart"}, "takes flags only"},
	} {
		var stderr bytes.Buffer
		if code := run(tc.args, &stderr); code != 2 || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("metasearch %v: exit %d, stderr %q; want exit 2 mentioning %q", tc.args, code, stderr.String(), tc.want)
		}
	}
	if worlds != 0 {
		t.Fatalf("a usage error built %d worlds", worlds)
	}
}

var (
	// An invocation: the command word, optionally closing a quoted path
	// ("$TMP/metasearch"), followed by its arguments.
	invocationRE = regexp.MustCompile("metasearch[\"'`]?(?:\\s+|$)")
	flagTokenRE  = regexp.MustCompile("^[\\[(\"'`]*-([a-z][a-z0-9-]*)")
)

// invocation is one documented command line: the word after
// "metasearch" and every -flag token that follows it.
type invocation struct {
	mode  string
	flags []string
}

// invocations returns every command line in text whose first word after
// "metasearch" is a mode name or a flag (anything else is prose), with
// backslash-continued lines joined and each invocation cut at the first
// shell separator.
func invocations(text string) []invocation {
	text = strings.ReplaceAll(text, "\\\n", " ")
	var out []invocation
	for _, line := range strings.Split(text, "\n") {
		locs := invocationRE.FindAllStringIndex(line, -1)
		for i, loc := range locs {
			end := len(line)
			if i+1 < len(locs) {
				end = locs[i+1][0]
			}
			toks := strings.Fields(line[loc[1]:end])
			if len(toks) == 0 {
				continue
			}
			inv := invocation{mode: strings.Trim(toks[0], "\"'`")}
			if m := flagTokenRE.FindStringSubmatch(toks[0]); m != nil {
				inv.mode = "-" + m[1]
			}
		args:
			for _, tok := range toks[1:] {
				switch tok {
				case "|", "||", "&&", ";":
					break args
				}
				if m := flagTokenRE.FindStringSubmatch(tok); m != nil {
					inv.flags = append(inv.flags, m[1])
				}
			}
			out = append(out, inv)
		}
	}
	return out
}

// TestDocumentedFlagsExist fails on any runbook line — README, DESIGN,
// the smoke scripts, the Makefile, CI, the verify skill — that runs
// metasearch without a mode word, or passes a mode a flag that mode does
// not register.
func TestDocumentedFlagsExist(t *testing.T) {
	sets := map[string]map[string]bool{}
	for i := range modes {
		sets[modes[i].name] = flagNames(&modes[i])
	}

	root := filepath.Join("..", "..")
	files := []string{
		filepath.Join(root, "README.md"),
		filepath.Join(root, "DESIGN.md"),
		filepath.Join(root, "Makefile"),
		filepath.Join(root, ".github", "workflows", "ci.yml"),
		filepath.Join(root, ".claude", "skills", "verify", "SKILL.md"),
	}
	scripts, err := filepath.Glob(filepath.Join(root, "scripts", "*.sh"))
	if err != nil || len(scripts) == 0 {
		t.Fatalf("no scripts found: %v", err)
	}
	files = append(files, scripts...)

	seen := map[string]bool{}
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, inv := range invocations(string(b)) {
			set, ok := sets[inv.mode]
			if !ok {
				if strings.HasPrefix(inv.mode, "-") {
					t.Errorf("%s runs metasearch %s ...: the first argument must be a mode (query, serve, shard, route, collect)", path, inv.mode)
				}
				continue
			}
			for _, f := range inv.flags {
				seen[inv.mode+" -"+f] = true
				if !set[f] {
					t.Errorf("%s runs metasearch %s with -%s, which that mode does not register", path, inv.mode, f)
				}
			}
		}
	}
	// Guard against a vacuous pass: the runbooks exercise every mode.
	if len(seen) < 20 {
		t.Fatalf("found only %d distinct documented mode/flag pairs (%v); the scan is broken", len(seen), seen)
	}
}

// flagDocs renders docs/flags.md: per mode, the table `metasearch <mode>
// -h` prints.
func flagDocs() string {
	var b strings.Builder
	b.WriteString("# metasearch flags\n\n" +
		"<!-- Generated from the flag sets in cmd/metasearch/main.go by `make docs`; do not edit. -->\n\n" +
		"One section per process mode; `metasearch <mode> -h` prints the same list.\n" +
		"A mode accepts only its own flags: anything else is a usage error (exit 2)\n" +
		"before the process builds or dials anything.\n")
	distinct := map[string]bool{}
	for i := range modes {
		m := &modes[i]
		fs := m.flagSet(io.Discard).fs
		n := 0
		fs.VisitAll(func(fl *flag.Flag) { n++; distinct[fl.Name] = true })
		fmt.Fprintf(&b, "\n## metasearch %s (%d flags)\n\n`metasearch %s [flags]%s` — %s.\n\n| Flag | Default | Description |\n|---|---|---|\n",
			m.name, n, m.name, m.args, m.synopsis)
		fs.VisitAll(func(fl *flag.Flag) {
			typ, usage := flag.UnquoteUsage(fl)
			def := fl.DefValue
			if def != "" {
				def = "`" + def + "`"
			}
			fmt.Fprintf(&b, "| `-%s` %s | %s | %s |\n", fl.Name, typ, def, strings.ReplaceAll(usage, "|", "\\|"))
		})
	}
	fmt.Fprintf(&b, "\n%d distinct flags across the %d modes.\n", len(distinct), len(modes))
	return b.String()
}

// TestFlagDocsCurrent fails when docs/flags.md is not what the flag sets
// generate; `make docs` (this test with -update) rewrites it.
func TestFlagDocsCurrent(t *testing.T) {
	path := filepath.Join("..", "..", "docs", "flags.md")
	want := flagDocs()
	if *update {
		if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("%s is stale: run `make docs`", path)
	}
}
