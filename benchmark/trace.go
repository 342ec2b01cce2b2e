package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The per-layer trace is recorded from here, not from inside the
// program: decorators (decorators.go) sit at the interfaces the program
// already exports and open one span per call. A span knows the span
// that caused it, so a layer's self time — its span minus the part its
// children cover — is what that layer alone cost.

// span is one timed call at a layer boundary. Times are nanoseconds
// since the recorder's epoch; Parent is 0 for a root; Req is the
// request index every span of one request shares.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanRef is what travels down a call chain: the caller's span and the
// request it belongs to.
type spanRef struct {
	id, req int64
}

type spanKey struct{}

func withSpan(ctx context.Context, r spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, r)
}

func spanFrom(ctx context.Context) spanRef {
	r, _ := ctx.Value(spanKey{}).(spanRef)
	return r
}

// recorder keeps spans in memory until the run ends. A nil recorder, or
// one switched off, records nothing: the same assembled system serves
// the untraced and the traced phase of a -trace run, and their ratio is
// the tracing overhead.
type recorder struct {
	epoch  time.Time
	on     atomic.Bool
	nextID atomic.Int64
	// ambient parents spans opened behind an interface that carries no
	// context (SearchableDatabase, wire.Backend). The traced phase runs
	// one request at a time, so "the call in progress" is unambiguous.
	ambient atomic.Value // spanRef

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now()}
	r.ambient.Store(spanRef{})
	return r
}

func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

// open starts a span under parent and returns its reference plus the
// function that closes it and reports its duration in nanoseconds.
func (r *recorder) open(name string, parent spanRef) (spanRef, func() int64) {
	ref := spanRef{id: r.nextID.Add(1), req: parent.req}
	start := time.Since(r.epoch).Nanoseconds()
	return ref, func() int64 {
		end := time.Since(r.epoch).Nanoseconds()
		r.mu.Lock()
		r.spans = append(r.spans, span{ID: ref.id, Parent: parent.id, Req: parent.req, Name: name, Start: start, End: end})
		r.mu.Unlock()
		return end - start
	}
}

func (r *recorder) ambientRef() spanRef { return r.ambient.Load().(spanRef) }

// take returns the spans recorded so far and forgets them.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// interval is a half-open stretch of time, in nanoseconds.
type interval struct{ lo, hi int64 }

// unionLength is the total time covered by the intervals, counting an
// overlap once: two shard calls in flight together cost their parent
// the longer of the two, not the sum.
func unionLength(ivs []interval) int64 {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	var total int64
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = iv
			continue
		}
		if iv.hi > cur.hi {
			cur.hi = iv.hi
		}
	}
	return total + cur.hi - cur.lo
}

// selfTimes returns, per span ID, the span's duration minus the union
// of its children clipped to the span's own interval. A child that
// outlives its parent (a reply body drained after the handler returned)
// is charged only for the overlap.
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][]interval)
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := s.Start, s.End
		if lo < p.Start {
			lo = p.Start
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			kids[p.ID] = append(kids[p.ID], interval{lo, hi})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - unionLength(kids[s.ID])
	}
	return self
}

// spanView answers the questions the per-layer metrics ask of a trace.
type spanView struct {
	spans []span
	self  map[int64]int64
}

func newSpanView(spans []span) *spanView {
	return &spanView{spans: spans, self: selfTimes(spans)}
}

// selfUs lists the self times, in microseconds, of every span with one
// of the given names.
func (v *spanView) selfUs(names ...string) []float64 {
	var out []float64
	for _, s := range v.spans {
		for _, n := range names {
			if s.Name == n {
				out = append(out, float64(v.self[s.ID])/1e3)
			}
		}
	}
	return out
}

// durUs lists the durations, in microseconds, of every span so named.
func (v *spanView) durUs(name string) []float64 {
	var out []float64
	for _, s := range v.spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

// perRequestGapUs lists, per request, slowest − fastest among the
// request's spans of one name: what a reply that waits for all of them
// pays for the straggler.
func (v *spanView) perRequestGapUs(name string) []float64 {
	lo, hi := map[int64]int64{}, map[int64]int64{}
	for _, s := range v.spans {
		if s.Name != name {
			continue
		}
		d := s.dur()
		if cur, ok := lo[s.Req]; !ok || d < cur {
			lo[s.Req] = d
		}
		if d > hi[s.Req] {
			hi[s.Req] = d
		}
	}
	out := make([]float64, 0, len(lo))
	for req := range lo {
		out = append(out, float64(hi[req]-lo[req])/1e3)
	}
	sort.Float64s(out)
	return out
}

// writeTrace stores the spans of one workload for reading afterwards
// (see README.md, "Reading a trace").
func writeTrace(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans}); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
