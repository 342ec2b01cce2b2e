package evtstream

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/telemetry"
)

func TestPublishDrainOrder(t *testing.T) {
	p := NewPublisher(Options{})
	p.Publish(TypeSelection, map[string]int{"a": 1})
	p.Publish(TypeNodeResult, map[string]int{"b": 2})
	p.Publish(TypeFinal, nil)
	frames, closed := p.drain()
	if closed {
		t.Fatal("publisher reported closed before Close")
	}
	if len(frames) != 3 {
		t.Fatalf("drained %d frames, want 3", len(frames))
	}
	want := []string{TypeSelection, TypeNodeResult, TypeFinal}
	for i, f := range frames {
		if f.Type != want[i] {
			t.Errorf("frame %d type %q, want %q", i, f.Type, want[i])
		}
		if f.V != SchemaVersion {
			t.Errorf("frame %d schema v%d, want v%d", i, f.V, SchemaVersion)
		}
		if f.Seq != int64(i+1) {
			t.Errorf("frame %d seq %d, want %d", i, f.Seq, i+1)
		}
	}
}

// A full queue evicts the oldest droppable frame and keeps every
// critical one: the slow-consumer contract.
func TestSlowConsumerEviction(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := NewPublisher(Options{MaxQueue: 4, Metrics: NewMetrics(reg)})
	p.Publish(TypeSelection, nil)
	for i := 0; i < 10; i++ {
		p.Publish(TypeNodeResult, map[string]int{"i": i})
	}
	p.Publish(TypeFinal, nil)
	frames, _ := p.drain()
	// Queue cap 4: selection + final always fit; node_results evicted
	// oldest-first down to the cap.
	if len(frames) > 5 {
		t.Fatalf("queue held %d frames, cap 4 (+1 critical overflow)", len(frames))
	}
	if frames[0].Type != TypeSelection {
		t.Errorf("first frame %q, want the critical selection frame kept", frames[0].Type)
	}
	if frames[len(frames)-1].Type != TypeFinal {
		t.Errorf("last frame %q, want final", frames[len(frames)-1].Type)
	}
	if got := reg.Counter("stream_frames_dropped_total").Value(); got == 0 {
		t.Error("no drops counted although the queue overflowed")
	}
	// The surviving node_results are the newest ones, in order.
	var seqs []int64
	for _, f := range frames {
		seqs = append(seqs, f.Seq)
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Errorf("sequence numbers not increasing: %v", seqs)
		}
	}
}

// Critical frames are never evicted, even when the queue is all
// critical.
func TestCriticalFramesAlwaysEnqueue(t *testing.T) {
	p := NewPublisher(Options{MaxQueue: 2})
	p.Publish(TypeSelection, nil)
	p.Publish(TypeError, nil)
	p.Publish(TypeFinal, nil)
	frames, _ := p.drain()
	if len(frames) != 3 {
		t.Fatalf("got %d frames, want all 3 critical frames kept", len(frames))
	}
}

func TestServeSSE(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := NewPublisher(Options{Metrics: NewMetrics(reg), clock: clock.NewFake()})
	go func() {
		p.Publish(TypeSelection, map[string]string{"scorer": "CORI"})
		p.Publish(TypeNodeResult, map[string]string{"database": "db1"})
		p.Publish(TypeFinal, map[string]string{"query": "q"})
		p.Close()
	}()
	rec := httptest.NewRecorder()
	if err := p.Serve(context.Background(), rec, FormatSSE); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type %q, want text/event-stream", ct)
	}
	frames := ParseSSE(rec.Body.String())
	if len(frames) != 3 {
		t.Fatalf("parsed %d frames from SSE body, want 3:\n%s", len(frames), rec.Body.String())
	}
	if frames[0].Type != TypeSelection || frames[2].Type != TypeFinal {
		t.Errorf("frame types %q...%q, want selection...final", frames[0].Type, frames[2].Type)
	}
	var sel map[string]string
	if err := json.Unmarshal(frames[0].Data, &sel); err != nil || sel["scorer"] != "CORI" {
		t.Errorf("selection payload %s (err %v), want scorer CORI", frames[0].Data, err)
	}
	if got := reg.Counter("stream_frames_total").Value(); got != 3 {
		t.Errorf("stream_frames_total = %d, want 3", got)
	}
}

func TestServeNDJSON(t *testing.T) {
	p := NewPublisher(Options{clock: clock.NewFake()})
	go func() {
		p.Publish(TypeSelection, nil)
		p.Publish(TypeFinal, nil)
		p.Close()
	}()
	rec := httptest.NewRecorder()
	if err := p.Serve(context.Background(), rec, FormatNDJSON); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q, want application/x-ndjson", ct)
	}
	sc := bufio.NewScanner(strings.NewReader(rec.Body.String()))
	var types []string
	for sc.Scan() {
		var f Frame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		types = append(types, f.Type)
	}
	if len(types) != 2 || types[0] != TypeSelection || types[1] != TypeFinal {
		t.Errorf("frame types %v, want [selection final]", types)
	}
}

// A cancelled context ends Serve with the disconnect counted, even with
// no frames flowing.
func TestServeDisconnect(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := NewPublisher(Options{Metrics: NewMetrics(reg), clock: clock.NewFake()})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- p.Serve(ctx, httptest.NewRecorder(), FormatSSE) }()
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Serve returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after ctx cancel")
	}
	if got := reg.Counter("stream_disconnects_total").Value(); got != 1 {
		t.Errorf("stream_disconnects_total = %d, want 1", got)
	}
}

// Idle streams emit a heartbeat per idle interval, so a slow search is
// distinguishable from a dead connection.
func TestServeHeartbeat(t *testing.T) {
	reg := telemetry.NewRegistry()
	clk := clock.NewFake()
	p := NewPublisher(Options{Metrics: NewMetrics(reg), clock: clk})
	rec := httptest.NewRecorder()
	done := make(chan error, 1)
	go func() { done <- p.Serve(context.Background(), rec, FormatSSE) }()
	clk.BlockUntil(1) // Serve is idle
	clk.Advance(heartbeatInterval - time.Nanosecond)
	if got := reg.Counter("stream_heartbeats_total").Value(); got != 0 {
		t.Fatalf("%d heartbeats before the idle interval ended", got)
	}
	for i := 0; i < 2; i++ {
		clk.Advance(heartbeatInterval)
		clk.BlockUntil(1) // the heartbeat is written and Serve is idle again
	}
	p.Publish(TypeFinal, nil)
	p.Close()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if got := reg.Counter("stream_heartbeats_total").Value(); got != 2 {
		t.Errorf("stream_heartbeats_total = %d, want 2 (one per idle interval)", got)
	}
	frames := ParseSSE(rec.Body.String())
	if len(frames) != 3 || frames[0].Type != TypeHeartbeat || frames[1].Type != TypeHeartbeat || frames[2].Type != TypeFinal {
		t.Errorf("frames %v, want heartbeat, heartbeat, final", frames)
	}
}

func TestNegotiate(t *testing.T) {
	cases := []struct {
		url    string
		accept string
		want   Format
	}{
		{"/v1/search/stream?q=x", "", FormatSSE},
		{"/v1/search/stream?q=x&format=ndjson", "", FormatNDJSON},
		{"/v1/search/stream?q=x", "application/x-ndjson", FormatNDJSON},
		{"/v1/search/stream?q=x", "text/event-stream", FormatSSE},
	}
	for _, c := range cases {
		r := httptest.NewRequest(http.MethodGet, c.url, nil)
		if c.accept != "" {
			r.Header.Set("Accept", c.accept)
		}
		if got := Negotiate(r); got != c.want {
			t.Errorf("Negotiate(%q, Accept %q) = %v, want %v", c.url, c.accept, got, c.want)
		}
	}
}

// Publish after Close is a silent no-op: the producer may still be
// finishing while the consumer is gone.
func TestPublishAfterClose(t *testing.T) {
	p := NewPublisher(Options{})
	p.Close()
	if err := p.Publish(TypeFinal, nil); err != nil {
		t.Fatalf("Publish after Close: %v", err)
	}
	frames, closed := p.drain()
	if !closed || len(frames) != 0 {
		t.Fatalf("drain after Close = %d frames, closed %v; want 0, true", len(frames), closed)
	}
}
