// Package slo tracks serving-level objectives for the query gateway:
// "99% of requests succeed within 500ms", measured continuously, with
// the error budget and its burn rate computed over several windows at
// once. One slow minute inside a quiet hour looks very different from
// a slow hour: multi-window burn rates are what distinguish "page
// someone" from "watch it" (the Google SRE workbook's multi-window,
// multi-burn-rate alerting model).
//
// A Tracker receives one Record call per request (latency + failure
// verdict) and maintains a ring of per-second buckets, so reports are
// exact over each configured window rather than decayed estimates. The
// report is served as JSON at /debug/slo via Handler.
//
// Definitions, per objective and window:
//
//	bad fraction    = bad requests / total requests
//	error budget    = 1 - target          (the allowed bad fraction)
//	burn rate       = bad fraction / error budget
//
// A burn rate of 1.0 consumes exactly the budget if sustained; 14.4
// over an hour is the classic "page now" threshold for a 30-day SLO.
package slo

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Objective is one serving-level objective: a target fraction of
// requests that must be "good". A request is bad when it failed, or —
// if LatencyThreshold is set — when it completed slower than the
// threshold.
type Objective struct {
	// Name labels the objective in reports (e.g. "latency", "availability").
	Name string
	// Target is the required good fraction in (0, 1), e.g. 0.99.
	Target float64
	// LatencyThreshold marks requests slower than this as bad (0 =
	// availability only: only failures are bad).
	LatencyThreshold time.Duration
}

// DefaultWindows are the report windows when Config.Windows is empty:
// short enough to catch a fast burn, long enough to see a slow one.
var DefaultWindows = []time.Duration{time.Minute, 5 * time.Minute, 30 * time.Minute}

// Config configures a Tracker.
type Config struct {
	// Objectives to track. Empty selects DefaultObjectives().
	Objectives []Objective
	// Windows are the burn-rate horizons (default DefaultWindows). The
	// longest window bounds the tracker's memory: one small bucket per
	// second of it.
	Windows []time.Duration
	// Registry, when non-nil, lets the report include the gateway's
	// live latency percentiles (from LatencyWindow) next to the burn
	// rates, so /debug/slo is a one-stop serving-health page.
	Registry *telemetry.Registry
	// LatencyWindow names the telemetry window quantiles are read from
	// (default "gateway_latency_window").
	LatencyWindow string
	// Now overrides the clock (tests). Nil uses time.Now.
	Now func() time.Time
}

// DefaultObjectives returns the stock gateway objectives: 99% of
// requests under the given latency threshold, and 99.9% of requests
// not failing at all.
func DefaultObjectives(threshold time.Duration) []Objective {
	if threshold <= 0 {
		threshold = 500 * time.Millisecond
	}
	return []Objective{
		{Name: "latency", Target: 0.99, LatencyThreshold: threshold},
		{Name: "availability", Target: 0.999},
	}
}

// bucket is one second of request outcomes. bad has one slot per
// objective.
type bucket struct {
	sec   int64
	total int64
	bad   []int64
}

// Tracker accumulates request outcomes into per-second buckets and
// reports multi-window burn rates. All methods are safe for concurrent
// use and safe on a nil receiver (no-ops), so wiring is optional.
type Tracker struct {
	cfg     Config
	windows []time.Duration

	mu      sync.Mutex
	buckets []bucket
	started time.Time
	total   int64
	bad     []int64 // per objective, since start
}

// New builds a Tracker.
func New(cfg Config) *Tracker {
	if len(cfg.Objectives) == 0 {
		cfg.Objectives = DefaultObjectives(0)
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.LatencyWindow == "" {
		cfg.LatencyWindow = "gateway_latency_window"
	}
	windows := append([]time.Duration(nil), cfg.Windows...)
	if len(windows) == 0 {
		windows = append(windows, DefaultWindows...)
	}
	sort.Slice(windows, func(i, j int) bool { return windows[i] < windows[j] })
	longest := windows[len(windows)-1]
	n := int(longest/time.Second) + 1
	t := &Tracker{
		cfg:     cfg,
		windows: windows,
		buckets: make([]bucket, n),
		started: cfg.Now(),
		bad:     make([]int64, len(cfg.Objectives)),
	}
	for i := range t.buckets {
		t.buckets[i].sec = -1
		t.buckets[i].bad = make([]int64, len(cfg.Objectives))
	}
	return t
}

// Record registers one completed request: its latency and whether it
// failed (shed, 5xx, timeout). Latency-threshold objectives judge
// successful requests too.
func (t *Tracker) Record(latency time.Duration, failed bool) {
	if t == nil {
		return
	}
	sec := t.cfg.Now().Unix()
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &t.buckets[sec%int64(len(t.buckets))]
	if b.sec != sec {
		b.sec = sec
		b.total = 0
		for i := range b.bad {
			b.bad[i] = 0
		}
	}
	b.total++
	t.total++
	for i, o := range t.cfg.Objectives {
		if failed || (o.LatencyThreshold > 0 && latency > o.LatencyThreshold) {
			b.bad[i]++
			t.bad[i]++
		}
	}
}

// WindowReport is one objective's state over one window.
type WindowReport struct {
	// Window is the horizon, formatted as a Go duration ("5m0s").
	Window string `json:"window"`
	// Total and Bad count the window's requests and its objective
	// violations.
	Total int64 `json:"total"`
	Bad   int64 `json:"bad"`
	// BadFraction is Bad/Total (0 when idle).
	BadFraction float64 `json:"bad_fraction"`
	// BurnRate is BadFraction divided by the error budget (1-target):
	// 1.0 consumes exactly the budget if sustained.
	BurnRate float64 `json:"burn_rate"`
	// BudgetRemaining is 1 - BurnRate: the fraction of this window's
	// error budget left (negative = overspent).
	BudgetRemaining float64 `json:"budget_remaining"`
}

// ObjectiveReport is one objective's full multi-window state.
type ObjectiveReport struct {
	Name   string  `json:"name"`
	Target float64 `json:"target"`
	// LatencyThresholdSeconds is 0 for availability-only objectives.
	LatencyThresholdSeconds float64        `json:"latency_threshold_seconds,omitempty"`
	Windows                 []WindowReport `json:"windows"`
	// TotalSinceStart/BadSinceStart accumulate since the tracker was
	// created (the "lifetime" view next to the windows).
	TotalSinceStart int64 `json:"total_since_start"`
	BadSinceStart   int64 `json:"bad_since_start"`
}

// LatencyQuantiles mirrors the gateway's live latency window.
type LatencyQuantiles struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Report is the full /debug/slo document.
type Report struct {
	// UptimeSeconds is how long the tracker has been recording.
	UptimeSeconds float64           `json:"uptime_seconds"`
	Objectives    []ObjectiveReport `json:"objectives"`
	// Latency is the gateway's live success-latency quantiles, when a
	// registry was wired in.
	Latency *LatencyQuantiles `json:"latency,omitempty"`
}

// Report computes the current multi-window state.
func (t *Tracker) Report() Report {
	if t == nil {
		return Report{}
	}
	now := t.cfg.Now()
	nowSec := now.Unix()
	t.mu.Lock()
	rep := Report{UptimeSeconds: now.Sub(t.started).Seconds()}
	for oi, o := range t.cfg.Objectives {
		or := ObjectiveReport{
			Name:                    o.Name,
			Target:                  o.Target,
			LatencyThresholdSeconds: o.LatencyThreshold.Seconds(),
			TotalSinceStart:         t.total,
			BadSinceStart:           t.bad[oi],
		}
		for _, w := range t.windows {
			var total, bad int64
			secs := int64(w / time.Second)
			// A bucket is inside the window when its second is one of the
			// last `secs` seconds (the current, possibly partial, second
			// included).
			for i := range t.buckets {
				b := &t.buckets[i]
				if b.sec < 0 || b.sec > nowSec || nowSec-b.sec >= secs {
					continue
				}
				total += b.total
				bad += b.bad[oi]
			}
			wr := WindowReport{Window: w.String(), Total: total, Bad: bad}
			if total > 0 {
				wr.BadFraction = float64(bad) / float64(total)
			}
			if budget := 1 - o.Target; budget > 0 {
				wr.BurnRate = wr.BadFraction / budget
			}
			wr.BudgetRemaining = 1 - wr.BurnRate
			or.Windows = append(or.Windows, wr)
		}
		rep.Objectives = append(rep.Objectives, or)
	}
	t.mu.Unlock()
	if t.cfg.Registry != nil {
		snap := t.cfg.Registry.Snapshot()
		if ws, ok := snap.Windows[t.cfg.LatencyWindow]; ok {
			rep.Latency = &LatencyQuantiles{Count: ws.Count, P50: ws.P50, P95: ws.P95, P99: ws.P99}
		}
	}
	return rep
}

// Handler serves the report as JSON (the /debug/slo endpoint).
func (t *Tracker) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if t == nil {
			http.Error(w, `{"error": "slo tracking disabled"}`, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(t.Report())
	})
}
