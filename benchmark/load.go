package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A closed loop: each client sends its next request when the previous
// reply arrives. That is how the router calls shards and how a REPL or
// a /v1/search caller behaves, and it needs no rate to be chosen: a
// slower system simply receives less load. An open-loop rate ladder is
// deliberately not used — behind selection's exclusive lock "highest
// rate under the limit" is a step function, and on the warm path a
// one-process generator on two cores would be timing its own timer.

// issueFunc sends the i-th request of one client and reports whether
// the reply was acceptable (no error, a selection, the expected answer).
type issueFunc func(client, i int) bool

// loadResult is what one closed-loop phase observed.
type loadResult struct {
	samples   []sample
	attempted int
	failed    int
	elapsed   time.Duration
}

// closedLoop runs `clients` callers for dur. A request in flight at the
// deadline is allowed to finish and is counted.
func closedLoop(clients int, dur time.Duration, issue issueFunc) loadResult {
	per := make([][]sample, clients)
	var failed atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				t0 := time.Now()
				if t0.Sub(start) >= dur {
					return
				}
				ok := issue(c, i)
				t1 := time.Now()
				if !ok {
					failed.Add(1)
					continue
				}
				per[c] = append(per[c], sample{at: t1.Sub(start), lat: t1.Sub(t0)})
			}
		}(c)
	}
	wg.Wait()
	res := loadResult{elapsed: time.Since(start), failed: int(failed.Load())}
	for _, s := range per {
		res.samples = append(res.samples, s...)
	}
	sort.Slice(res.samples, func(i, j int) bool { return res.samples[i].at < res.samples[j].at })
	res.attempted = len(res.samples) + res.failed
	return res
}

// oneClient issues n requests back to back from a single caller and
// returns their latencies in milliseconds, ascending, plus the wall
// time of the whole burst.
func oneClient(n int, issue func(i int) bool) (latMs []float64, failed int, wall time.Duration) {
	start := time.Now()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if !issue(i) {
			failed++
			continue
		}
		latMs = append(latMs, float64(time.Since(t0))/float64(time.Millisecond))
	}
	wall = time.Since(start)
	sort.Float64s(latMs)
	return latMs, failed, wall
}
