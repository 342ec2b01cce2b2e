package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing integer metric. All methods are
// safe on a nil receiver (no-ops), so instrumented code never needs to
// check whether telemetry is enabled.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by d.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DefLatencyBuckets is the default histogram layout for second-scale
// latencies, from 100µs to 10s.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram. Bucket bounds are upper
// inclusive limits ("le"), mirroring the Prometheus exposition model;
// observations above the last bound land in the implicit +Inf bucket.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    Gauge
	count  atomic.Int64

	exMu      sync.Mutex
	exemplars []Exemplar // sorted by Value descending, at most ExemplarCap
}

// Exemplar ties one concrete observation — typically a slow one — to
// the trace that produced it, so a tail-latency spike in a histogram
// links directly to a full distributed trace of an offending request.
type Exemplar struct {
	Value   float64   `json:"value"`
	TraceID string    `json:"trace_id"`
	Time    time.Time `json:"time"`
}

// ExemplarCap bounds how many exemplars a histogram retains; only the
// largest recent observations keep their trace IDs.
const ExemplarCap = 4

// ExemplarMaxAge is how long an exemplar may block smaller observations
// from replacing it. Without an age bound the all-time-slowest query
// would pin an exemplar whose trace has long been evicted from every
// span ring.
const ExemplarMaxAge = 5 * time.Minute

func newHistogram(bounds []float64) *Histogram {
	owned := make([]float64, len(bounds))
	copy(owned, bounds)
	sort.Float64s(owned)
	return &Histogram{bounds: owned, counts: make([]atomic.Int64, len(owned)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveSince records the elapsed time since start, in seconds.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// ObserveExemplar records one value and, when traceID is non-empty,
// offers it as an exemplar: the histogram keeps the ExemplarCap largest
// recent observations with their trace IDs. An exemplar older than
// ExemplarMaxAge is replaced regardless of value, so the set tracks the
// current tail, not the process's all-time record.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if h == nil {
		return
	}
	h.Observe(v)
	if traceID == "" {
		return
	}
	now := time.Now()
	h.exMu.Lock()
	defer h.exMu.Unlock()
	// Drop expired entries first — their traces are likely gone.
	kept := h.exemplars[:0]
	for _, e := range h.exemplars {
		if now.Sub(e.Time) <= ExemplarMaxAge {
			kept = append(kept, e)
		}
	}
	h.exemplars = kept
	h.exemplars = append(h.exemplars, Exemplar{Value: v, TraceID: traceID, Time: now})
	sort.SliceStable(h.exemplars, func(a, b int) bool { return h.exemplars[a].Value > h.exemplars[b].Value })
	if len(h.exemplars) > ExemplarCap {
		h.exemplars = h.exemplars[:ExemplarCap]
	}
}

// Exemplars returns a copy of the histogram's current exemplars, value
// descending.
func (h *Histogram) Exemplars() []Exemplar {
	if h == nil {
		return nil
	}
	h.exMu.Lock()
	defer h.exMu.Unlock()
	out := make([]Exemplar, len(h.exemplars))
	copy(out, h.exemplars)
	return out
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// DefWindowSize is the default sliding-window capacity: the last 1024
// observations, enough for stable tail quantiles without unbounded
// memory.
const DefWindowSize = 1024

// Window is a sliding-window reservoir over the last N observations,
// reporting order statistics (p50/p95/p99) that fixed-bucket histograms
// can only bound. A histogram answers "how many requests were slower
// than 25ms, ever"; a window answers "what is p99 right now". All
// methods are safe on a nil receiver.
type Window struct {
	mu    sync.Mutex
	buf   []float64
	next  int   // ring write position
	count int64 // total observations (len(buf) is min(count, cap))
	full  bool
}

func newWindow(size int) *Window {
	if size <= 0 {
		size = DefWindowSize
	}
	return &Window{buf: make([]float64, 0, size)}
}

// Observe records one value, evicting the oldest once the window is
// full.
func (w *Window) Observe(v float64) {
	if w == nil {
		return
	}
	w.mu.Lock()
	if len(w.buf) < cap(w.buf) {
		w.buf = append(w.buf, v)
	} else {
		w.buf[w.next] = v
		w.full = true
	}
	w.next = (w.next + 1) % cap(w.buf)
	w.count++
	w.mu.Unlock()
}

// ObserveSince records the elapsed time since start, in seconds.
func (w *Window) ObserveSince(start time.Time) {
	if w == nil {
		return
	}
	w.Observe(time.Since(start).Seconds())
}

// Count returns the total number of observations (including evicted
// ones).
func (w *Window) Count() int64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.count
}

// Quantile returns the q-th quantile (0 <= q <= 1, nearest-rank) of the
// values currently in the window; an empty window yields 0.
func (w *Window) Quantile(q float64) float64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	sorted := make([]float64, len(w.buf))
	copy(sorted, w.buf)
	w.mu.Unlock()
	sort.Float64s(sorted)
	return quantileOf(sorted, q)
}

// quantileOf computes the nearest-rank quantile of sorted values:
// the smallest value with at least ⌈q·N⌉ values at or below it.
func quantileOf(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(vals)))) - 1
	if i >= len(vals) {
		i = len(vals) - 1
	}
	if i < 0 {
		i = 0
	}
	return vals[i]
}

// Registry holds named metrics. Lookup takes a read lock; updates on
// the returned metric are lock-free (windows take a short internal
// lock), so hot paths resolve a metric once and hammer the pointer. All
// methods are safe on a nil receiver, returning nil metrics whose
// methods no-op.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	windows  map[string]*Window
	help     map[string]string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		windows:  make(map[string]*Window),
		help:     make(map[string]string),
	}
}

// Describe attaches help text to the named series, rendered as the
// Prometheus # HELP line and carried in snapshots. Every series a
// package registers should be described — the metric-hygiene check
// (Snapshot.Hygiene) fails series without help. Later calls overwrite.
func (r *Registry) Describe(name, help string) {
	if r == nil || help == "" {
		return
	}
	r.mu.Lock()
	r.help[name] = help
	r.mu.Unlock()
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (nil bounds select DefLatencyBuckets).
// Later calls return the existing histogram regardless of bounds.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Window returns the named sliding window, creating it with the given
// capacity on first use (size <= 0 selects DefWindowSize). Later calls
// return the existing window regardless of size.
func (r *Registry) Window(name string, size int) *Window {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	w := r.windows[name]
	r.mu.RUnlock()
	if w != nil {
		return w
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if w = r.windows[name]; w == nil {
		w = newWindow(size)
		r.windows[name] = w
	}
	return w
}

// HistogramSnapshot is one histogram's frozen state.
type HistogramSnapshot struct {
	// Bounds are the upper bucket limits; Counts has one extra entry for
	// the +Inf bucket. Counts are per-bucket (not cumulative).
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  int64     `json:"count"`
	// Exemplars are the largest recent observations with their trace
	// IDs (value descending), linking the histogram's tail to full
	// distributed traces.
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// WindowSnapshot is one sliding window's frozen quantiles.
type WindowSnapshot struct {
	// Count is the total number of observations (including ones that
	// have slid out of the window).
	Count int64 `json:"count"`
	// P50, P95, P99 are the quantiles over the current window contents.
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Windows    map[string]WindowSnapshot    `json:"windows,omitempty"`
	// Help carries the described help text of the snapshot's series
	// (name → help), rendered as # HELP lines.
	Help map[string]string `json:"help,omitempty"`
}

// Snapshot copies the registry's current state. Individual metric reads
// are atomic; the snapshot as a whole is not (fine for exposition).
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
		Windows:    map[string]WindowSnapshot{},
		Help:       map[string]string{},
	}
	if r == nil {
		return snap
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Bounds:    h.bounds,
			Counts:    make([]int64, len(h.counts)),
			Sum:       h.Sum(),
			Count:     h.Count(),
			Exemplars: h.Exemplars(),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		snap.Histograms[name] = hs
	}
	for name, w := range r.windows {
		snap.Windows[name] = w.snapshot()
	}
	for name, help := range r.help {
		snap.Help[name] = help
	}
	return snap
}

// snapshot freezes a window's quantiles with one sort.
func (w *Window) snapshot() WindowSnapshot {
	w.mu.Lock()
	sorted := make([]float64, len(w.buf))
	copy(sorted, w.buf)
	count := w.count
	w.mu.Unlock()
	sort.Float64s(sorted)
	return WindowSnapshot{
		Count: count,
		P50:   quantileOf(sorted, 0.50),
		P95:   quantileOf(sorted, 0.95),
		P99:   quantileOf(sorted, 0.99),
	}
}
