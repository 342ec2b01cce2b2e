package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/stats"
	"repro/internal/textproc"
)

// canaryWords is stemmed over and over by the canary: fixed, pure CPU,
// no allocation to speak of.
var canaryWords = []string{
	"generalizations", "relational", "conditional", "databases", "sampling",
	"shrinkage", "hierarchies", "probabilistic", "estimation", "adjustment",
}

// sink receives results the compiler must not be allowed to discard.
var sink float64

// canary times a fixed pure-CPU loop (Porter stemming into a Welford
// accumulator) and returns nanoseconds per pass, the fastest of five
// after one discarded pass (a process that has just started, or just
// stopped serving, runs its first pass slow). Run before and after a
// workload it says whether the machine itself changed speed meanwhile;
// it says nothing about the program.
func canary() float64 {
	const passes, rounds = 6, 4000
	best := 0.0
	for p := 0; p < passes; p++ {
		var w stats.Welford
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			for _, word := range canaryWords {
				w.Add(float64(len(textproc.Stem(word))))
			}
		}
		ns := float64(time.Since(t0).Nanoseconds())
		sink += w.Mean()
		if p == 0 {
			continue // discarded
		}
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB; 0 where
// /proc does not say.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// envEntry is one line of the environment block.
type envEntry struct{ Key, Value string }

// environment describes where and how the run happened, so two reports
// can be told apart by more than their numbers.
func environment(rc *runCtx) []envEntry {
	return []envEntry{
		{"commit", buildinfo.Version()},
		{"go", runtime.Version()},
		{"gomaxprocs", strconv.Itoa(runtime.GOMAXPROCS(0))},
		{"nproc", strconv.Itoa(runtime.NumCPU())},
		{"cpu", cpuModel()},
		{"seed", strconv.FormatInt(rc.seed, 10)},
		{"clients", strconv.Itoa(rc.clients)},
		{"seconds", strconv.FormatFloat(rc.seconds.Seconds(), 'g', -1, 64)},
	}
}
