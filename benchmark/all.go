package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// Running every workload. Each runs in a process of its own, so that
// mem_peak_mb (the process's VmHWM) and setup_s belong to one workload.

// childRun is one workload run as the parent saw it.
type childRun struct {
	Workload string            `json:"workload"`
	Trace    int               `json:"trace"`
	Report   *report           `json:"report"`
	Digests  map[string]string `json:"digests,omitempty"`
	Notes    []string          `json:"notes,omitempty"`
}

// runChild re-executes this binary for one workload, echoes its
// readable lines, and parses the report off its last line.
func runChild(workload string, seed int64, seconds float64, trace int) (*childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"--workload", workload,
		"--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(trace),
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	runErr := cmd.Run()

	run := &childRun{Workload: workload, Trace: trace, Digests: map[string]string{}}
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
		if rest, ok := strings.CutPrefix(last, "# "+workload+" "); ok {
			run.Notes = append(run.Notes, rest)
			if f := strings.Fields(rest); len(f) == 3 && f[0] == "digest" {
				run.Digests[f[1]] = f[2]
			}
		}
	}
	var rep report
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s (trace %d): %w", workload, trace, runErr)
		}
		return nil, fmt.Errorf("%s (trace %d): no report on the last line: %w", workload, trace, err)
	}
	run.Report = &rep
	return run, nil
}

// runSet runs every workload once in the given mode.
func runSet(seed int64, seconds float64, trace int) ([]*childRun, bool) {
	ok := true
	var runs []*childRun
	for _, w := range workloads {
		run, err := runChild(w.Name, seed, seconds, trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			ok = false
			continue
		}
		if !run.Report.Correct {
			fmt.Printf("# %s (trace %d) reported INCORRECT\n", w.Name, trace)
			ok = false
		}
		runs = append(runs, run)
	}
	return runs, ok
}

// checkPlanes holds the single-process planes to one another: the
// in-process answers of select_cold, and serve_warm's in-process and
// gateway answers, are the same hot queries at the same k and perdb, so
// their digests must be equal. (cluster ≡ single process and stream
// final ≡ blocking reply are checked inside cluster_fanout, against a
// reference computed at its own k and perdb.)
func checkPlanes(runs []*childRun) bool {
	var ref, refName string
	ok := true
	for _, r := range runs {
		if r.Workload != "select_cold" && r.Workload != "serve_warm" {
			continue
		}
		for plane, d := range r.Digests {
			name := r.Workload + "/" + plane
			if ref == "" {
				ref, refName = d, name
				continue
			}
			if d != ref {
				fmt.Printf("# INCORRECT: digest of %s differs from %s\n", name, refName)
				ok = false
			}
		}
	}
	return ok
}

// exactMetrics must repeat to the last digit between two runs of the
// same code with the same seed.
var exactMetrics = map[string]bool{"rk1": true, "rk5": true}

// compareSets prints two end-to-end sets side by side and reports
// whether the second is within each metric's own bound of the first.
func compareSets(first, second []*childRun) bool {
	ok := true
	for i, a := range first {
		if i >= len(second) || second[i].Workload != a.Workload {
			return false
		}
		b := second[i]
		for _, spec := range endToEnd {
			va, vb := a.Report.Metrics[spec.Name].Value, b.Report.Metrics[spec.Name].Value
			worse := vb/va - 1
			if spec.Better == "higher" {
				worse = va/vb - 1
			}
			verdict := "ok"
			switch {
			case exactMetrics[spec.Name] && va != vb:
				verdict = "NOT EXACT"
				ok = false
			case worse > spec.Bound || math.IsNaN(worse):
				verdict = "OUT OF BOUND"
				ok = false
			}
			fmt.Printf("repeat %-14s %-18s %12.6g %12.6g %+7.2f%% (bound %.0f%%) %s\n",
				a.Workload, spec.Name, va, vb, 100*(vb/va-1), 100*spec.Bound, verdict)
		}
		for plane, d := range a.Digests {
			if b.Digests[plane] != d {
				fmt.Printf("repeat %-14s digest %s differs between the two runs\n", a.Workload, plane)
				ok = false
			}
		}
	}
	return ok
}

// writeOut stores the reports with the environment block beside them.
func writeOut(path string, rc *runCtx, runs []*childRun) error {
	data, err := json.MarshalIndent(struct {
		Env  []envEntry  `json:"env"`
		Runs []*childRun `json:"runs"`
	}{environment(rc), runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAll is `go run ./benchmark --seed N`: every workload end to end,
// then every workload traced; with repeatCheck, the end-to-end set
// twice and compared instead. It returns the process exit code.
func runAll(seed int64, seconds float64, repeatCheck bool, outPath string) int {
	ok := true
	var all []*childRun
	first, good := runSet(seed, seconds, 0)
	ok = ok && good && checkPlanes(first)
	all = append(all, first...)
	if repeatCheck {
		second, good := runSet(seed, seconds, 0)
		ok = ok && good && len(second) == len(first) && compareSets(first, second)
		all = append(all, second...)
	} else {
		traced, good := runSet(seed, seconds, 1)
		ok = ok && good
		all = append(all, traced...)
	}
	if outPath != "" {
		rc := newRunCtx("all", seed, time.Duration(seconds*float64(time.Second)), false)
		if err := writeOut(outPath, rc, all); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			ok = false
		}
	}
	if !ok {
		fmt.Println("# benchmark FAILED")
		return 1
	}
	fmt.Println("# benchmark ok")
	return 0
}
