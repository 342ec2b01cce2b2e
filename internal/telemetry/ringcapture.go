package telemetry

import "sync"

// DefRingCaptureSize is the default RingCapture capacity: enough to
// hold the spans of the last few hundred queries in a serving process
// without unbounded growth.
const DefRingCaptureSize = 8192

// RingCapture is the Observer: it keeps the most recent events in a
// fixed ring, overwriting the oldest, so a process can run under
// tracing forever and still export its recent spans to the cluster
// collector. Tests record into a ring sized for their run.
type RingCapture struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	full  bool
	total int64
}

// NewRingCapture builds a ring holding the last size events (size <= 0
// selects DefRingCaptureSize).
func NewRingCapture(size int) *RingCapture {
	if size <= 0 {
		size = DefRingCaptureSize
	}
	return &RingCapture{buf: make([]Event, 0, size)}
}

// Observe implements Observer. Safe on a nil receiver.
func (r *RingCapture) Observe(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
		r.full = true
	}
	r.next = (r.next + 1) % cap(r.buf)
	r.total++
	r.mu.Unlock()
}

// Events returns a copy of the retained events, oldest first.
func (r *RingCapture) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	if r.full {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf...)
	}
	return out
}

// Total returns how many events were ever observed (including ones the
// ring has since overwritten), so exporters can report drop counts.
func (r *RingCapture) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}
