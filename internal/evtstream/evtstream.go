// Package evtstream is the incremental-delivery layer of the query
// path: it turns one search's progress events into a framed event
// stream a client can consume over HTTP as Server-Sent Events (SSE) or
// newline-delimited JSON (NDJSON).
//
// The shape is a per-connection Publisher with a bounded frame queue
// and a Serve loop that drains it to the client, flushing per frame so
// the first frame reaches the client while the fan-out is still
// running. The queue protects the search pipeline from a slow
// consumer: when it fills, the oldest *droppable* frame (node_result,
// merge_update, heartbeat — progress that the next update supersedes)
// is evicted and counted; critical frames (selection, final, error)
// are never dropped, so the stream's contract — a selection frame, then
// progress, then exactly one terminal frame — survives any consumer.
//
// Frames are versioned (Frame.V) so clients can reject a schema they
// do not understand; the payload schemas themselves live with the
// gateway, which is the component that defines the public API.
package evtstream

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/telemetry"
)

// SchemaVersion is stamped on every frame as "v". Bump it when a
// frame's wire shape changes incompatibly.
const SchemaVersion = 1

// Frame types. selection/final/error are critical (never evicted);
// node_result/merge_update/heartbeat are droppable progress.
const (
	TypeSelection   = "selection"
	TypeNodeResult  = "node_result"
	TypeMergeUpdate = "merge_update"
	TypeFinal       = "final"
	TypeHeartbeat   = "heartbeat"
	TypeError       = "error"
)

// Frame is one streamed event. Data holds the type-specific payload
// (the gateway defines the payload schemas; see gateway.StreamSelection
// and friends).
type Frame struct {
	V    int             `json:"v"`
	Type string          `json:"type"`
	Seq  int64           `json:"seq"`
	Data json.RawMessage `json:"data,omitempty"`
}

// droppable reports whether a frame type may be evicted under queue
// pressure. Progress frames are superseded by later ones; the
// selection and terminal frames are the stream's contract.
func droppable(typ string) bool {
	switch typ {
	case TypeNodeResult, TypeMergeUpdate, TypeHeartbeat:
		return true
	}
	return false
}

// Format selects the stream encoding.
type Format int

const (
	// FormatSSE is text/event-stream: "event:" + "data:" records,
	// consumable by EventSource and curl -N.
	FormatSSE Format = iota
	// FormatNDJSON is application/x-ndjson: one Frame JSON per line,
	// the encoding the cluster router consumes from its shards.
	FormatNDJSON
)

// Negotiate picks the stream format from the request: an explicit
// format=ndjson query parameter or an Accept preferring
// application/x-ndjson selects NDJSON; everything else gets SSE.
func Negotiate(r *http.Request) Format {
	if r.URL.Query().Get("format") == "ndjson" {
		return FormatNDJSON
	}
	if strings.Contains(r.Header.Get("Accept"), "application/x-ndjson") {
		return FormatNDJSON
	}
	return FormatSSE
}

// heartbeatInterval is the idle interval after which Serve writes a
// heartbeat frame, so proxies and clients can tell a slow search from a
// dead connection.
const heartbeatInterval = 5 * time.Second

// Options tunes a Publisher.
type Options struct {
	// MaxQueue bounds the frame queue (default 64). Past it, the oldest
	// droppable frame is evicted per enqueue; critical frames always
	// fit (the queue may exceed MaxQueue by the critical overflow).
	MaxQueue int
	// Metrics holds the stream_* series; the zero value records nothing.
	Metrics Metrics

	// clock times the heartbeat (nil: real time; tests set a fake).
	clock clock.Clock
}

// Metrics is the stream_* series, declared once per registry by
// NewMetrics and shared by every Publisher the owner then creates, so a
// frame costs atomic adds and no lookup by name.
type Metrics struct {
	requests, frames, dropped, heartbeats, disconnects *telemetry.Counter
	active                                             *telemetry.Gauge
	firstFrame                                         *telemetry.Histogram
}

// NewMetrics declares the stream_* series in reg (nil is allowed), so
// exposition endpoints show the schema before the first stream.
func NewMetrics(reg *telemetry.Registry) Metrics {
	return Metrics{
		requests:    reg.DeclareCounter("stream_requests_total", "Event-stream connections served by Publisher.Serve."),
		frames:      reg.DeclareCounter("stream_frames_total", "Frames written to event-stream clients."),
		dropped:     reg.DeclareCounter("stream_frames_dropped_total", "Droppable frames evicted from full per-connection queues (slow consumers)."),
		heartbeats:  reg.DeclareCounter("stream_heartbeats_total", "Heartbeat frames written on idle event streams."),
		disconnects: reg.DeclareCounter("stream_disconnects_total", "Event streams that ended before their terminal frame (client hang-up)."),
		active:      reg.DeclareGauge("stream_active", "Event-stream connections currently being served."),
		firstFrame:  reg.DeclareHistogram("stream_first_frame_latency", "Latency from stream start to the first frame on the wire, seconds.", nil),
	}
}

// Publisher is one connection's frame queue: the search pipeline
// publishes into it (via the gateway's observer adapter) and Serve
// drains it to the HTTP client. Publish never blocks; Serve owns the
// socket. Safe for concurrent use.
type Publisher struct {
	opts Options

	mu     sync.Mutex
	queue  []Frame
	seq    int64
	closed bool
	wake   chan struct{} // cap 1: kicks Serve when frames or close arrive
}

// NewPublisher builds a Publisher.
func NewPublisher(opts Options) *Publisher {
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = 64
	}
	opts.clock = clock.Or(opts.clock)
	return &Publisher{opts: opts, wake: make(chan struct{}, 1)}
}

// Publish marshals payload into a frame of the given type and enqueues
// it. On a full queue the oldest droppable frame is evicted (counted in
// stream_frames_dropped_total); critical frames always enqueue. After
// Close, frames are silently discarded — the producer may still be
// finishing while the consumer is gone.
func (p *Publisher) Publish(typ string, payload interface{}) error {
	data, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("evtstream: marshal %s payload: %w", typ, err)
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.seq++
	f := Frame{V: SchemaVersion, Type: typ, Seq: p.seq, Data: data}
	if len(p.queue) >= p.opts.MaxQueue {
		evicted := false
		for i, q := range p.queue {
			if droppable(q.Type) {
				p.queue = append(p.queue[:i], p.queue[i+1:]...)
				evicted = true
				break
			}
		}
		if evicted {
			p.opts.Metrics.dropped.Inc()
		}
	}
	p.queue = append(p.queue, f)
	p.mu.Unlock()
	p.kick()
	return nil
}

// Close marks the stream complete: Serve drains what is queued and
// returns. Idempotent.
func (p *Publisher) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.kick()
}

func (p *Publisher) kick() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// drain removes and returns all queued frames, plus whether the
// publisher is closed.
func (p *Publisher) drain() ([]Frame, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	frames := p.queue
	p.queue = nil
	return frames, p.closed
}

// heartbeatFrame mints a heartbeat with the publisher's next sequence
// number, so heartbeats order consistently with data frames.
func (p *Publisher) heartbeatFrame() Frame {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seq++
	return Frame{V: SchemaVersion, Type: TypeHeartbeat, Seq: p.seq}
}

// Serve writes the stream to w until the publisher closes (after its
// terminal frame) or ctx is cancelled (the client hung up; counted in
// stream_disconnects_total). It sets the response headers, flushes per
// frame, and emits a heartbeat once the stream has been idle for
// heartbeatInterval. Returns nil on a complete stream, ctx.Err() on
// disconnect, or the first write error.
func (p *Publisher) Serve(ctx context.Context, w http.ResponseWriter, format Format) error {
	met := p.opts.Metrics
	met.requests.Inc()
	met.active.Add(1)
	defer met.active.Add(-1)

	h := w.Header()
	switch format {
	case FormatNDJSON:
		h.Set("Content-Type", "application/x-ndjson")
	default:
		h.Set("Content-Type", "text/event-stream")
	}
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // tell buffering proxies to pass frames through
	rc := http.NewResponseController(w)
	// Get the headers (and for SSE a comment preamble) on the wire
	// immediately: the client learns the stream is live before the
	// first data frame exists.
	w.WriteHeader(http.StatusOK)
	if format == FormatSSE {
		if _, err := fmt.Fprint(w, ": stream open\n\n"); err != nil {
			return err
		}
	}
	rc.Flush()

	start := time.Now()
	first := true
	writeFrame := func(f Frame) error {
		b, err := json.Marshal(f)
		if err != nil {
			return err
		}
		switch format {
		case FormatNDJSON:
			_, err = fmt.Fprintf(w, "%s\n", b)
		default:
			_, err = fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", f.Type, f.Seq, b)
		}
		if err != nil {
			return err
		}
		if err := rc.Flush(); err != nil {
			return err
		}
		if first {
			first = false
			met.firstFrame.Observe(time.Since(start).Seconds())
		}
		met.frames.Inc()
		if f.Type == TypeHeartbeat {
			met.heartbeats.Inc()
		}
		return nil
	}

	for {
		frames, closed := p.drain()
		for _, f := range frames {
			if err := writeFrame(f); err != nil {
				met.disconnects.Inc()
				return err
			}
		}
		if closed {
			// One last drain: a frame may have landed between drain and
			// the closed check of the next iteration.
			if rest, _ := p.drain(); len(rest) > 0 {
				for _, f := range rest {
					if err := writeFrame(f); err != nil {
						met.disconnects.Inc()
						return err
					}
				}
			}
			return nil
		}
		// The idle interval restarts whenever the loop wakes: a frame
		// written is as good as a heartbeat.
		idle := p.opts.clock.NewTimer(heartbeatInterval)
		select {
		case <-ctx.Done():
			idle.Stop()
			met.disconnects.Inc()
			return ctx.Err()
		case <-p.wake:
			idle.Stop()
		case <-idle.C():
			if err := writeFrame(p.heartbeatFrame()); err != nil {
				met.disconnects.Inc()
				return err
			}
		}
	}
}

// ParseSSE splits a raw SSE stream into its data payloads (the JSON
// frames), ignoring comments and event/id lines. It is the inverse of
// Serve's SSE encoding, for tests and simple clients.
func ParseSSE(raw string) []Frame {
	var out []Frame
	for _, line := range strings.Split(raw, "\n") {
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var f Frame
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &f); err == nil {
			out = append(out, f)
		}
	}
	return out
}
