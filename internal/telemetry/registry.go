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

// Registry holds named metrics. A series' owner declares it once, at
// construction, with its help text (DeclareCounter, DeclareGauge,
// DeclareHistogram) and keeps the returned handle: updates on a handle
// are lock-free, and a handle held in a struct cannot be misspelt into
// a second, undocumented series. The one-argument lookups (Counter,
// Gauge, Histogram) are for readers — tests, the benchmark — and for
// packages without a constructor to hold handles in, whose series the
// pipeline's owner declares for them. All methods are safe on a nil
// receiver, returning nil metrics whose methods no-op.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	help     map[string]string
	clashes  map[string]string // name → a later declaration's different help text
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		help:     make(map[string]string),
		clashes:  make(map[string]string),
	}
}

// DeclareCounter returns the named counter, creating it on first use,
// and records help as its help text: the Prometheus # HELP line, the
// snapshot's Help entry, DESIGN.md §8's row. The metric-hygiene check
// (Snapshot.Hygiene) fails a series nobody declared. Declaring a name
// again with the same help text (several clients sharing one registry)
// returns the same handle; a different help text means two owners, so
// the first text stays and the hygiene check reports the clash.
func (r *Registry) DeclareCounter(name, help string) *Counter {
	r.setHelp(name, help)
	return r.Counter(name)
}

// DeclareGauge is DeclareCounter for a gauge.
func (r *Registry) DeclareGauge(name, help string) *Gauge {
	r.setHelp(name, help)
	return r.Gauge(name)
}

// DeclareHistogram is DeclareCounter for a histogram; bounds are as for
// Histogram.
func (r *Registry) DeclareHistogram(name, help string, bounds []float64) *Histogram {
	r.setHelp(name, help)
	return r.Histogram(name, bounds)
}

func (r *Registry) setHelp(name, help string) {
	if r == nil || help == "" {
		return
	}
	r.mu.Lock()
	if old, ok := r.help[name]; !ok {
		r.help[name] = help
	} else if old != help {
		r.clashes[name] = help
	}
	r.mu.Unlock()
}

// lookup returns m[name] under r's lock, creating it with mk on first
// use.
func lookup[T any](r *Registry, m map[string]*T, name string, mk func() *T) *T {
	r.mu.RLock()
	v := m[name]
	r.mu.RUnlock()
	if v != nil {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v = m[name]; v == nil {
		v = mk()
		m[name] = v
	}
	return v
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return lookup(r, r.counters, name, func() *Counter { return &Counter{} })
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return lookup(r, r.gauges, name, func() *Gauge { return &Gauge{} })
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (nil bounds select DefLatencyBuckets).
// Later calls return the existing histogram regardless of bounds.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	return lookup(r, r.hists, name, func() *Histogram { return newHistogram(bounds) })
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

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	// Help carries the described help text of the snapshot's series
	// (name → help), rendered as # HELP lines.
	Help map[string]string `json:"help,omitempty"`
	// clashes holds the names declared again with a different help
	// text, for Hygiene.
	clashes map[string]string
}

// Snapshot copies the registry's current state. Individual metric reads
// are atomic; the snapshot as a whole is not (fine for exposition).
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
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
	for name, help := range r.help {
		snap.Help[name] = help
	}
	for name, help := range r.clashes {
		if snap.clashes == nil {
			snap.clashes = make(map[string]string)
		}
		snap.clashes[name] = help
	}
	return snap
}
