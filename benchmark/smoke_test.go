package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/experiments"
)

// Every workload, both modes, one 1 s window on the unit-test world:
// the harness must stay runnable, report every metric it names with its
// unit, and find the outputs correct. The numbers themselves mean
// nothing at this size.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("assembles a loopback cluster")
	}
	wd, err := buildWorld(experiments.TestScale(), 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		spec := &workloads[i]
		for _, trace := range []bool{false, true} {
			name := spec.Name + "/end-to-end"
			specs := endToEnd
			if trace {
				name, specs = spec.Name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel() // nothing below asserts a time
				rc := newRunCtx(spec.Name, 1, time.Second, trace)
				rc.wd = wd // read-only, so the parallel subtests can share it
				rc.reps = 1
				rc.outDir = t.TempDir()
				var out bytes.Buffer
				rep, err := execute(rc, spec, &out)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", rep.Correct, rep.Attempted, rep.Failed, out.String())
				}
				if len(rep.Metrics) != len(specs) {
					t.Errorf("%d metrics reported, %d named", len(rep.Metrics), len(specs))
				}
				for _, s := range specs {
					m, ok := rep.Metrics[s.Name]
					switch {
					case !ok:
						t.Errorf("%s missing", s.Name)
					case m.Unit != s.Unit:
						t.Errorf("%s has unit %q, want %q", s.Name, m.Unit, s.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0:
						t.Errorf("%s = %v", s.Name, m.Value)
					case !trace && m.Value == 0:
						t.Errorf("end-to-end metric %s is 0", s.Name)
					}
				}
				if trace {
					if _, err := os.Stat(rc.outDir + "/trace-" + spec.Name + ".json"); err != nil {
						t.Errorf("no trace file: %v", err)
					}
				}
			})
		}
	}
}

// BENCHMARK.json is what the driver reads; the tables in main.go are
// what the program reports. They must say the same thing.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d implemented", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: file says %q (%q), program says %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file    %+v\n program %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n file    %+v\n program %+v", doc.PerLayer, perLayer)
	}
	var hasSetup bool
	for _, m := range doc.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
}
