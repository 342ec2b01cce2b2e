// Package pool holds the one bounded worker pool behind every
// per-index loop of the pipeline.
package pool

import (
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// ForEach runs fn(i) for i in [0, n) over a bounded worker pool — the
// one pool behind every per-database loop: the offline build (sampling
// is latency-bound against remote databases), the whole-store passes
// after it (shrinkage, category aggregation, Save and Load, which are
// CPU-bound and pass runtime.GOMAXPROCS(0)), the evaluation harness,
// and the search fan-out (which passes workers = n and never returns
// an error, because a failed node is an outcome, not a reason to
// abandon the rest). Callers write results into pre-sized per-index
// slots, so no additional synchronization is needed.
//
// Indices are handed out in increasing order, and a failure stops
// further hand-outs while calls already started finish. So every index
// below a failed one has run by the time ForEach returns, and the error
// it reports — that of the lowest failed index — is the one a
// sequential loop stopping at its first error would report, whatever
// the scheduling (workers <= 1 is that sequential loop).
// Dispatches and failures are counted in reg
// (concurrency_tasks_{started,failed}_total; reg may be nil).
func ForEach(n, workers int, reg *telemetry.Registry, fn func(i int) error) error {
	started := reg.Counter("concurrency_tasks_started_total")
	failed := reg.Counter("concurrency_tasks_failed_total")
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			started.Inc()
			if err := fn(i); err != nil {
				failed.Inc()
				return err
			}
		}
		return nil
	}
	if workers > n {
		workers = n
	}
	var (
		wg      sync.WaitGroup
		next    int64 = -1
		stop    atomic.Bool
		errMu   sync.Mutex
		first   error
		firstAt int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				started.Inc()
				if err := fn(i); err != nil {
					failed.Inc()
					stop.Store(true)
					errMu.Lock()
					if first == nil || i < firstAt {
						first, firstAt = err, i
					}
					errMu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}
