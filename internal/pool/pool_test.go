package pool

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func TestForEachSequentialStopsAtError(t *testing.T) {
	reg := telemetry.NewRegistry()
	boom := errors.New("boom")
	var calls int
	err := ForEach(10, 1, reg, func(i int) error {
		calls++
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls != 4 {
		t.Errorf("ran %d tasks after error at index 3, want 4", calls)
	}
	snap := reg.Snapshot()
	if snap.Counters["concurrency_tasks_started_total"] != 4 {
		t.Errorf("tasks_started = %d, want 4", snap.Counters["concurrency_tasks_started_total"])
	}
	if snap.Counters["concurrency_tasks_failed_total"] != 1 {
		t.Errorf("tasks_failed = %d, want 1", snap.Counters["concurrency_tasks_failed_total"])
	}
}

func TestForEachStopsDispatchAfterError(t *testing.T) {
	const n = 10000
	reg := telemetry.NewRegistry()
	boom := errors.New("boom")
	var started atomic.Int64
	err := ForEach(n, 4, reg, func(i int) error {
		started.Add(1)
		if i == 0 {
			return boom
		}
		time.Sleep(10 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// Workers already mid-task when the error hits may finish, and each
	// may claim at most a handful more before observing the stop flag;
	// the point is that dispatch does not run through all n indices.
	if got := started.Load(); got >= n/2 {
		t.Errorf("%d of %d tasks dispatched after an index-0 error", got, n)
	}
	snap := reg.Snapshot()
	if snap.Counters["concurrency_tasks_started_total"] != started.Load() {
		t.Errorf("tasks_started counter %d != observed %d",
			snap.Counters["concurrency_tasks_started_total"], started.Load())
	}
	if snap.Counters["concurrency_tasks_failed_total"] != 1 {
		t.Errorf("tasks_failed = %d, want 1", snap.Counters["concurrency_tasks_failed_total"])
	}
}

func TestForEachCompletesAll(t *testing.T) {
	var done atomic.Int64
	if err := ForEach(100, 8, nil, func(i int) error {
		done.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if done.Load() != 100 {
		t.Errorf("completed %d of 100 tasks", done.Load())
	}
	if err := ForEach(0, 8, nil, func(int) error { return errors.New("ran") }); err != nil {
		t.Errorf("n = 0 ran a task: %v", err)
	}
}

// TestForEachReportsLowestFailedIndex: when several indices fail, the
// error is the lowest one's — what a sequential loop would report —
// even though here the higher indices fail first.
func TestForEachReportsLowestFailedIndex(t *testing.T) {
	const n = 8
	returning := make([]chan struct{}, n+1)
	for i := range returning {
		returning[i] = make(chan struct{})
	}
	close(returning[n])
	err := ForEach(n, n, nil, func(i int) error {
		<-returning[i+1] // index i+1 is past its work and about to fail
		close(returning[i])
		return fmt.Errorf("index %d", i)
	})
	if err == nil || err.Error() != "index 0" {
		t.Errorf("err = %v, want index 0's", err)
	}
}
