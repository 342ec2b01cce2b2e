// Package clock is the one source of time for the serving path's
// timers: breaker cooldowns, hedge timers, retry backoff, stream
// heartbeats, replica drains, and — through Every, the one periodic
// loop — health probes, drift refresh, topology polls and the
// collector's scrapes and profiles. Code that waits takes a Clock (nil
// means Real); tests pass a *Fake and move time by hand, so no test has
// to sleep through a cooldown, a backoff or an interval.
//
// Deadlines are not on a Clock: they are enforced with
// context.WithTimeout, whose expiry is context.DeadlineExceeded — the
// error the breakers count as a failure — and no fake can produce it.
package clock

import (
	"context"
	"sync"
	"time"
)

// Clock tells the time and makes one-shot timers.
type Clock interface {
	Now() time.Time
	NewTimer(d time.Duration) Timer
}

// Timer is a one-shot timer: C delivers one value once d has passed.
type Timer interface {
	C() <-chan time.Time
	// Stop prevents the timer from firing; it reports whether it did.
	Stop() bool
}

// Real is the wall clock.
var Real Clock = realClock{}

// Or returns c, or Real when c is nil.
func Or(c Clock) Clock {
	if c == nil {
		return Real
	}
	return c
}

// Every runs step in a background goroutine once every d on c (nil means
// Real): it waits d, runs step, and starts the next wait only after step
// returns, so a slow step delays the schedule instead of overlapping
// itself, and one pending timer on a Fake means the loop is idle. The
// returned stop cancels the context step runs under, waits for a
// running step to return, and may be called any number of times. A
// non-positive d never runs step.
func Every(c Clock, d time.Duration, step func(context.Context)) (stop func()) {
	if d <= 0 {
		return func() {}
	}
	c = Or(c)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			t := c.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return
			case <-t.C():
				step(ctx)
			}
		}
	}()
	return func() {
		cancel()
		<-done
	}
}

type realClock struct{}

func (realClock) Now() time.Time                 { return time.Now() }
func (realClock) NewTimer(d time.Duration) Timer { return realTimer{time.NewTimer(d)} }

type realTimer struct{ t *time.Timer }

func (r realTimer) C() <-chan time.Time { return r.t.C }
func (r realTimer) Stop() bool          { return r.t.Stop() }

// Fake is a Clock that moves only when Advance moves it. It is the
// shared test double of every package whose timing is under test. It
// starts at a fixed instant, so tests are reproducible.
type Fake struct {
	mu      sync.Mutex
	cond    *sync.Cond // signalled whenever a timer is added
	now     time.Time
	timers  []*fakeTimer // pending, in creation order
	instant bool
}

// NewFake returns a Fake that stands still until Advance moves it.
func NewFake() *Fake {
	f := &Fake{now: time.Date(2004, 6, 13, 0, 0, 0, 0, time.UTC)}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// NewInstant returns a Fake on which every timer fires the moment it is
// made, with the clock moved on by the timer's duration: a retry loop
// runs its whole backoff schedule without waiting, and Now still shows
// how long it would have slept.
func NewInstant() *Fake {
	f := NewFake()
	f.instant = true
	return f
}

// Now returns the fake time.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// NewTimer returns a timer that fires once Advance has moved the clock
// d past now (at once on an instant Fake).
func (f *Fake) NewTimer(d time.Duration) Timer {
	f.mu.Lock()
	defer f.mu.Unlock()
	t := &fakeTimer{f: f, c: make(chan time.Time, 1)}
	if f.instant {
		f.now = f.now.Add(d)
		t.c <- f.now
		return t
	}
	t.at = f.now.Add(d)
	f.timers = append(f.timers, t)
	f.cond.Broadcast()
	return t
}

// Advance moves the clock forward by d and fires, in deadline order,
// every pending timer whose deadline it reaches. A timer fires by
// sending on its channel; the goroutine waiting there runs after
// Advance returns.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	end := f.now.Add(d)
	for {
		next := -1
		for i, t := range f.timers {
			if !t.at.After(end) && (next < 0 || t.at.Before(f.timers[next].at)) {
				next = i
			}
		}
		if next < 0 {
			break
		}
		t := f.timers[next]
		f.timers = append(f.timers[:next], f.timers[next+1:]...)
		f.now = t.at
		t.c <- t.at
	}
	f.now = end
}

// BlockUntil waits until at least n timers are pending: the way a test
// knows that the goroutine under test has reached its wait.
func (f *Fake) BlockUntil(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.timers) < n {
		f.cond.Wait()
	}
}

type fakeTimer struct {
	f  *Fake
	at time.Time
	c  chan time.Time
}

func (t *fakeTimer) C() <-chan time.Time { return t.c }

func (t *fakeTimer) Stop() bool {
	t.f.mu.Lock()
	defer t.f.mu.Unlock()
	for i, p := range t.f.timers {
		if p == t {
			t.f.timers = append(t.f.timers[:i], t.f.timers[i+1:]...)
			return true
		}
	}
	return false
}
