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
	const writers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := reg.DeclareHistogram("req_latency", "Request latency, seconds.", nil)
			start := time.Now()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := float64(i%100) / 1000
				h.Observe(v)
				h.ObserveSince(start)
				reg.Counter("reqs").Inc()
				reg.Gauge("inflight").Add(1)
				reg.Gauge("inflight").Add(-1)
			}
		}(w)
	}

	// Readers: snapshots and text renders, racing the writers.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
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

	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	snap := reg.Snapshot()
	hs := snap.Histograms["req_latency"]
	if hs.Count == 0 {
		t.Fatal("histogram recorded nothing")
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
