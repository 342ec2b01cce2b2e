package telemetry

import (
	"fmt"
	"sort"
)

// Hygiene audits the snapshot's series against the repo's metric
// conventions and returns one human-readable problem per violation
// (empty means clean):
//
//   - every series must have help text (declared with its owner's
//     Registry.DeclareCounter/DeclareGauge/DeclareHistogram),
//   - names must be snake_case ([a-z][a-z0-9_]*),
//   - a name must be registered as exactly one metric type (a counter
//     and a gauge sharing a name is almost always a typo'd lookup),
//   - a name must have one owner: declaring it again with a different
//     help text is two components claiming one series.
//
// The metric-hygiene test boots a full metasearcher and fails on any
// problem, so new series cannot land undocumented.
func (s Snapshot) Hygiene() []string {
	var problems []string
	types := map[string][]string{}
	for name := range s.Counters {
		types[name] = append(types[name], "counter")
	}
	for name := range s.Gauges {
		types[name] = append(types[name], "gauge")
	}
	for name := range s.Histograms {
		types[name] = append(types[name], "histogram")
	}
	names := make([]string, 0, len(types))
	for name := range types {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !snakeCase(name) {
			problems = append(problems, fmt.Sprintf("%s: not snake_case (want [a-z][a-z0-9_]*)", name))
		}
		if s.Help[name] == "" {
			problems = append(problems, fmt.Sprintf("%s: no help text (declare it with Registry.Declare*)", name))
		}
		if ts := types[name]; len(ts) > 1 {
			sort.Strings(ts)
			problems = append(problems, fmt.Sprintf("%s: registered as %d metric types %v", name, len(ts), ts))
		}
		if other, ok := s.clashes[name]; ok {
			problems = append(problems, fmt.Sprintf("%s: declared again with different help text %q (one owner per series)", name, other))
		}
	}
	return problems
}

// snakeCase reports whether name matches [a-z][a-z0-9_]* without
// consecutive or trailing underscores.
func snakeCase(name string) bool {
	if name == "" {
		return false
	}
	if name[0] < 'a' || name[0] > 'z' {
		return false
	}
	prevUnderscore := false
	for i := 1; i < len(name); i++ {
		c := name[i]
		switch {
		case c == '_':
			if prevUnderscore {
				return false
			}
			prevUnderscore = true
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			prevUnderscore = false
		default:
			return false
		}
	}
	return !prevUnderscore
}
