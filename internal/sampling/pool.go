package sampling

import (
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// ForEachDatabase runs fn(i) for i in [0, n) over a bounded worker
// pool — the one pool behind every per-database loop: the offline
// build (sampling is latency-bound against remote databases), the
// evaluation harness, and the search fan-out (which passes workers = n
// and never returns an error, because a failed node is an outcome, not
// a reason to abandon the rest). workers <= 1 runs sequentially and
// stops at the first error; the concurrent path stops dispatching new
// work after the first error (in-flight calls finish) and reports the
// first error encountered. Callers write results into pre-sized
// per-index slots, so no additional synchronization is needed.
// Dispatches and failures are counted in reg
// (concurrency_tasks_{started,failed}_total; reg may be nil).
func ForEachDatabase(n, workers int, reg *telemetry.Registry, fn func(i int) error) error {
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
		wg    sync.WaitGroup
		next  int64 = -1
		stop  atomic.Bool
		errMu sync.Mutex
		first error
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
					if first == nil {
						first = err
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
