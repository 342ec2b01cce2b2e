package telemetry

import (
	"io"
	"sync"
	"testing"
	"time"
)

// TestConcurrentObserveAndRender hammers one histogram, counter and
// gauge from many writers — each declaring the series again, as several
// clients sharing a registry do — while snapshots and Prometheus renders
// run concurrently. Run under -race (make race / CI): its job is
// flushing out data races between the lock-free observe paths, the
// declaring accessors and the render paths.
func TestConcurrentObserveAndRender(t *testing.T) {
	reg := NewRegistry()
	const writers, iterations = 8, 2000
	stop := make(chan struct{})
	var writersWG, readersWG sync.WaitGroup

	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			h := reg.DeclareHistogram("req_latency", "Request latency, seconds.", nil)
			start := time.Now()
			for i := 0; i < iterations; i++ {
				v := float64(i%100) / 1000
				h.Observe(v)
				h.ObserveSince(start)
				reg.Counter("reqs").Inc()
				reg.Gauge("inflight").Add(1)
				reg.Gauge("inflight").Add(-1)
			}
		}(w)
	}

	// Readers: snapshots and text renders, racing the writers until they
	// are done.
	for r := 0; r < 3; r++ {
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := reg.Snapshot()
				snap.WritePrometheus(io.Discard)
			}
		}()
	}

	writersWG.Wait()
	close(stop)
	readersWG.Wait()

	snap := reg.Snapshot()
	hs := snap.Histograms["req_latency"]
	if want := int64(2 * writers * iterations); hs.Count != want {
		t.Fatalf("histogram recorded %d observations, want %d", hs.Count, want)
	}
	var inBuckets int64
	for _, n := range hs.Counts {
		inBuckets += n
	}
	if inBuckets != hs.Count {
		t.Errorf("bucket counts sum to %d, total count %d", inBuckets, hs.Count)
	}
	if snap.Help["req_latency"] == "" {
		t.Error("the declared help text did not reach the snapshot")
	}
}
