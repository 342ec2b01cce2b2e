package clock

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

func fired(t Timer) bool {
	select {
	case <-t.C():
		return true
	default:
		return false
	}
}

func TestFakeFiresInDeadlineOrder(t *testing.T) {
	f := NewFake()
	start := f.Now()
	late, early := f.NewTimer(2*time.Second), f.NewTimer(time.Second)
	f.Advance(999 * time.Millisecond)
	if fired(early) || fired(late) {
		t.Fatal("a timer fired before its deadline")
	}
	f.Advance(time.Millisecond)
	if !fired(early) || fired(late) {
		t.Fatal("Advance to the first deadline must fire exactly the first timer")
	}
	f.Advance(5 * time.Second)
	if !fired(late) {
		t.Fatal("Advance past the second deadline did not fire it")
	}
	if got := f.Now().Sub(start); got != 6*time.Second {
		t.Fatalf("clock moved %v, want 6s", got)
	}
}

func TestFakeStopAndBlockUntil(t *testing.T) {
	f := NewFake()
	pending := make(chan struct{})
	go func() {
		f.BlockUntil(1)
		close(pending)
	}()
	tm := f.NewTimer(time.Second)
	<-pending
	if !tm.Stop() {
		t.Fatal("Stop of a pending timer reported false")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported true")
	}
	f.Advance(time.Hour)
	if fired(tm) {
		t.Fatal("a stopped timer fired")
	}
}

func TestInstantFiresAtOnce(t *testing.T) {
	f := NewInstant()
	start := f.Now()
	tm := f.NewTimer(50 * time.Millisecond)
	if !fired(tm) {
		t.Fatal("an instant timer did not fire when made")
	}
	if got := f.Now().Sub(start); got != 50*time.Millisecond {
		t.Fatalf("instant clock moved %v, want 50ms", got)
	}
}

// pending counts the Fake's waiting timers.
func (f *Fake) pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.timers)
}

func TestEvery(t *testing.T) {
	f := NewFake()
	entered := make(chan struct{})
	release := make(chan struct{})
	var returned atomic.Bool
	stop := Every(f, time.Second, func(ctx context.Context) {
		entered <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
			returned.Store(true)
		}
	})

	// No step before d.
	f.BlockUntil(1)
	f.Advance(999 * time.Millisecond)
	select {
	case <-entered:
		t.Fatal("step ran before its interval")
	default:
	}

	// The first step runs at d; while it runs no wait is pending, so
	// however far the clock moves no second step starts.
	f.Advance(time.Millisecond)
	<-entered
	if n := f.pending(); n != 0 {
		t.Fatalf("%d timers pending while the step runs, want 0", n)
	}
	f.Advance(time.Hour)
	select {
	case <-entered:
		t.Fatal("a second step overlapped the first")
	default:
	}

	// The next wait starts once the step returns, and times a full d.
	release <- struct{}{}
	f.BlockUntil(1)
	f.Advance(time.Second)
	<-entered

	// stop cancels the running step and waits for it to return.
	stop()
	if !returned.Load() {
		t.Fatal("stop returned before the running step did")
	}
	stop() // idempotent
	if n := f.pending(); n != 0 {
		t.Fatalf("%d timers pending after stop, want 0", n)
	}
}

func TestEveryStopBeforeFirstTick(t *testing.T) {
	f := NewFake()
	var ran atomic.Bool
	stop := Every(f, time.Second, func(context.Context) { ran.Store(true) })
	stop()
	stop()
	f.Advance(time.Hour)
	if ran.Load() || f.pending() != 0 {
		t.Fatal("a schedule stopped before its first tick ran its step or left a timer")
	}
	Every(f, 0, func(context.Context) { ran.Store(true) })()
	if ran.Load() {
		t.Fatal("a zero interval ran its step")
	}
}

func TestOrDefaultsToReal(t *testing.T) {
	if Or(nil) != Real {
		t.Fatal("Or(nil) is not the real clock")
	}
	f := NewFake()
	if Or(f) != Clock(f) {
		t.Fatal("Or replaced a non-nil clock")
	}
}
