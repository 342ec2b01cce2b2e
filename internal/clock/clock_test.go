package clock

import (
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

func TestOrDefaultsToReal(t *testing.T) {
	if Or(nil) != Real {
		t.Fatal("Or(nil) is not the real clock")
	}
	f := NewFake()
	if Or(f) != Clock(f) {
		t.Fatal("Or replaced a non-nil clock")
	}
}
