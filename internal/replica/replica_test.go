package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/resilience"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// replicaTransport serves a replicated database's wire calls in
// process: /v1/info at once, /v1/query only once release closes (each
// query's replica address is sent on entered first). Closing a replica's
// client — the last step of its drain — closes closed.
type replicaTransport struct {
	name      string
	entered   chan string
	release   chan struct{}
	closed    chan struct{}
	closeOnce sync.Once
}

func newReplicaTransport(name string) *replicaTransport {
	return &replicaTransport{name: name, entered: make(chan string, 1),
		release: make(chan struct{}), closed: make(chan struct{})}
}

func (tr *replicaTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	var body interface{} = wire.InfoResponse{Name: tr.name, Protocol: wire.Version}
	if req.URL.Path == wire.PathQuery {
		tr.entered <- req.URL.Host
		select {
		case <-tr.release:
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
		body = wire.QueryResponse{Matches: 1, IDs: []int{0}}
	}
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{},
		Body: io.NopCloser(bytes.NewReader(b)), Request: req}, nil
}

func (tr *replicaTransport) CloseIdleConnections() {
	tr.closeOnce.Do(func() { close(tr.closed) })
}

func (tr *replicaTransport) clientClosed() bool {
	select {
	case <-tr.closed:
		return true
	default:
		return false
	}
}

// Replica behaviours of failoverTransport.
const (
	replicaOK   = iota // answers at once
	replicaFail        // 500: a failure
	replicaShed        // 429 + Retry-After: backpressure
	replicaHang        // holds the query until release closes (then answers) or the call ends
)

// failoverTransport serves every replica of one database in process,
// each /v1/query per its host's behaviour, and counts the queries each
// host saw. An answer's one document id is the index of the replica
// that served it. A held query is announced on entered.
type failoverTransport struct {
	hosts   []string
	entered chan string
	release chan struct{}

	mu      sync.Mutex
	mode    map[string]int
	queries map[string]int
}

func (tr *failoverTransport) set(host string, mode int) {
	tr.mu.Lock()
	tr.mode[host] = mode
	tr.mu.Unlock()
}

func (tr *failoverTransport) seen(host string) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.queries[host]
}

func (tr *failoverTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	rec := httptest.NewRecorder()
	if req.URL.Path != wire.PathQuery {
		json.NewEncoder(rec).Encode(wire.InfoResponse{Name: "db", Protocol: wire.Version})
		return rec.Result(), nil
	}
	tr.mu.Lock()
	tr.queries[host]++
	mode := tr.mode[host]
	tr.mu.Unlock()
	switch mode {
	case replicaFail:
		wire.WriteError(rec, http.StatusInternalServerError, wire.CodeInternal, "replica broken")
		return rec.Result(), nil
	case replicaShed:
		rec.Header().Set("Retry-After", "1")
		wire.WriteError(rec, http.StatusTooManyRequests, wire.CodeOverloaded, "replica busy")
		return rec.Result(), nil
	case replicaHang:
		tr.entered <- host
		select {
		case <-tr.release:
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	for i, h := range tr.hosts {
		if h == host {
			json.NewEncoder(rec).Encode(wire.QueryResponse{Matches: 1, IDs: []int{i}})
		}
	}
	return rec.Result(), nil
}

// TestReplicaFailover pins how a replica set routes and fails over: the
// order it tries replicas in (breaker state, then in-flight calls, then
// affinity), that a short-circuited replica is skipped untouched, that a
// shed costs its replica one query and moves on at once with a neutral
// verdict, that a failure counts against its own name@addr breaker
// only, that nothing more is touched once the call is cancelled, and
// what the call reports when every replica failed.
func TestReplicaFailover(t *testing.T) {
	hosts := []string{"a:1", "b:1", "c:1"}
	type world struct {
		d        *Database
		tr       *failoverTransport
		breakers *resilience.Set
		clk      *clock.Fake
		reg      *telemetry.Registry
	}
	// newWorld dials the three replicas with the retry backoff on an
	// instant clock; a test that must see no backoff passes a fake one.
	newWorld := func(t *testing.T, preferred int, backoff ...clock.Clock) world {
		t.Helper()
		w := world{clk: clock.NewFake(), reg: telemetry.NewRegistry()}
		w.tr = &failoverTransport{hosts: hosts, entered: make(chan string, 1), release: make(chan struct{}),
			mode: map[string]int{}, queries: map[string]int{}}
		w.breakers = resilience.NewSet(resilience.BreakerOptions{Clock: w.clk}, w.reg)
		var bk clock.Clock = clock.NewInstant()
		if len(backoff) > 0 {
			bk = backoff[0]
		}
		d, err := Dial(context.Background(), hosts, Options{
			Preferred: preferred,
			Breakers:  w.breakers,
			Metrics:   w.reg,
			Client:    ClientOptions{Timeout: time.Minute, Transport: w.tr},
			Clock:     bk,
		})
		if err != nil {
			t.Fatal(err)
		}
		w.d = d
		return w
	}
	// served runs one query and returns the index of the replica that
	// answered it.
	served := func(t *testing.T, w world) int {
		t.Helper()
		_, ids, err := w.d.QueryContext(context.Background(), []string{"x"}, 1)
		if err != nil {
			t.Fatal(err)
		}
		return ids[0]
	}
	// window returns a replica breaker's outcome window (-1, -1 when the
	// set holds no such breaker).
	window := func(w world, key string) (samples, failures int) {
		for _, b := range w.breakers.Snapshot() {
			if b.Database == key {
				return b.Samples, b.Failures
			}
		}
		return -1, -1
	}
	trip := func(w world, key string) {
		b := w.breakers.Get(key)
		for b.State() != resilience.Open {
			b.Allow()
			b.Record(false)
		}
	}
	counter := func(w world, name string) int64 { return w.reg.Counter(name).Value() }

	t.Run("affinity", func(t *testing.T) {
		for preferred := range hosts {
			if got := served(t, newWorld(t, preferred)); got != preferred {
				t.Errorf("preferred replica %d: replica %d served", preferred, got)
			}
		}
	})

	t.Run("breaker state before affinity", func(t *testing.T) {
		w := newWorld(t, 0)
		// a half-open (its trial released without a verdict), b open, c
		// closed: c first, then a, then b.
		trip(w, "db@a:1")
		trip(w, "db@b:1")
		w.clk.Advance(resilience.BreakerCooldown)
		a := w.breakers.Get("db@a:1")
		a.Allow()
		a.RecordNeutral()
		if got := served(t, w); got != 2 {
			t.Fatalf("closed c, half-open a, open b: replica %d served, want c (2)", got)
		}
		w.tr.set("c:1", replicaFail)
		if got := served(t, w); got != 0 {
			t.Fatalf("with c failing: replica %d served, want the half-open a (0)", got)
		}
		if w.tr.seen("b:1") != 0 {
			t.Fatal("the open replica b was queried while healthier ones answered")
		}
	})

	t.Run("in-flight calls before affinity", func(t *testing.T) {
		w := newWorld(t, 0)
		w.tr.set("a:1", replicaHang)
		done := make(chan error, 1)
		go func() {
			_, _, err := w.d.QueryContext(context.Background(), []string{"x"}, 1)
			done <- err
		}()
		if host := <-w.tr.entered; host != "a:1" {
			t.Fatalf("first call went to %s, want the preferred a:1", host)
		}
		if got := served(t, w); got != 1 {
			t.Fatalf("with a busy: replica %d served, want the idle b (1)", got)
		}
		close(w.tr.release)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	})

	t.Run("failure counts against its own replica", func(t *testing.T) {
		w := newWorld(t, 0)
		w.tr.set("a:1", replicaFail)
		if got := served(t, w); got != 1 {
			t.Fatalf("with a failing: replica %d served, want b (1)", got)
		}
		if s, f := window(w, "db@a:1"); s != 1 || f != 1 {
			t.Errorf("db@a:1 window = %d samples / %d failures, want 1/1", s, f)
		}
		if s, f := window(w, "db@b:1"); s != 1 || f != 0 {
			t.Errorf("db@b:1 window = %d samples / %d failures, want 1/0", s, f)
		}
		if s, _ := window(w, "db@c:1"); s > 0 {
			t.Errorf("db@c:1 holds %d samples; c was never called", s)
		}
		if s, _ := window(w, "db"); s >= 0 {
			t.Error("the replica set recorded into a database-level breaker")
		}
		if got := counter(w, "replica_failover_total"); got != 1 {
			t.Errorf("replica_failover_total = %d, want 1", got)
		}
		if got := counter(w, "replica_exhausted_total"); got != 0 {
			t.Errorf("replica_exhausted_total = %d, want 0", got)
		}
	})

	t.Run("shed moves on with a neutral verdict", func(t *testing.T) {
		backoff := clock.NewFake()
		start := backoff.Now()
		w := newWorld(t, 0, backoff)
		w.tr.set("a:1", replicaShed)
		got := make(chan int, 1)
		go func() { got <- served(t, w) }()
		select {
		case r := <-got:
			if r != 1 {
				t.Fatalf("with a shedding: replica %d served, want b (1)", r)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("the call is waiting out the shed's Retry-After instead of failing over")
		}
		if n := w.tr.seen("a:1"); n != 1 {
			t.Fatalf("the shedding replica saw %d queries, want exactly 1", n)
		}
		if !backoff.Now().Equal(start) {
			t.Fatal("the backoff clock moved")
		}
		if s, f := window(w, "db@a:1"); s != 0 || f != 0 {
			t.Errorf("db@a:1 window = %d samples / %d failures after a shed, want 0/0", s, f)
		}
		if got := counter(w, "replica_failover_total"); got != 1 {
			t.Errorf("replica_failover_total = %d, want 1", got)
		}
	})

	t.Run("short-circuited replica skipped untouched", func(t *testing.T) {
		w := newWorld(t, 0)
		// a fails, b is half-open with its trial taken, c is open.
		w.tr.set("a:1", replicaFail)
		trip(w, "db@b:1")
		trip(w, "db@c:1")
		w.clk.Advance(resilience.BreakerCooldown)
		w.breakers.Get("db@b:1").Allow()
		w.clk.Advance(time.Nanosecond) // c's cooldown has passed too, so re-trip it
		c := w.breakers.Get("db@c:1")
		c.Allow()
		c.Record(false)
		_, _, err := w.d.QueryContext(context.Background(), []string{"x"}, 1)
		if err == nil {
			t.Fatal("the only admitted replica failed, yet the call succeeded")
		}
		if w.tr.seen("b:1") != 0 || w.tr.seen("c:1") != 0 {
			t.Fatalf("short-circuited replicas were queried: b %d, c %d", w.tr.seen("b:1"), w.tr.seen("c:1"))
		}
		if msg := err.Error(); !strings.Contains(msg, "db@a:1") || strings.Contains(msg, "db@b:1") || strings.Contains(msg, "db@c:1") {
			t.Errorf("error %q should name the failed a and neither short-circuited replica", msg)
		}
		if got := counter(w, "replica_failover_total"); got != 0 {
			t.Errorf("replica_failover_total = %d, want 0 (no second replica was tried)", got)
		}
		if got := counter(w, "replica_exhausted_total"); got != 1 {
			t.Errorf("replica_exhausted_total = %d, want 1", got)
		}
	})

	t.Run("cancellation stops the failover", func(t *testing.T) {
		w := newWorld(t, 0)
		w.tr.set("a:1", replicaHang)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, _, err := w.d.QueryContext(ctx, []string{"x"}, 1)
			done <- err
		}()
		<-w.tr.entered
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled call: err = %v, want context.Canceled", err)
		}
		if w.tr.seen("b:1") != 0 || w.tr.seen("c:1") != 0 {
			t.Fatalf("replicas touched after the cancellation: b %d, c %d", w.tr.seen("b:1"), w.tr.seen("c:1"))
		}
		if s, _ := window(w, "db@a:1"); s != 0 {
			t.Errorf("db@a:1 holds %d samples after a hang-up, want none", s)
		}
		if got := counter(w, "replica_failover_total") + counter(w, "replica_exhausted_total"); got != 0 {
			t.Errorf("a cancelled call moved the failover/exhausted counters by %d", got)
		}
	})

	t.Run("every replica failed", func(t *testing.T) {
		w := newWorld(t, 0)
		w.tr.set("a:1", replicaFail)
		w.tr.set("b:1", replicaShed)
		w.tr.set("c:1", replicaFail)
		_, _, err := w.d.QueryContext(context.Background(), []string{"x"}, 1)
		if err == nil {
			t.Fatal("every replica failed, yet the call succeeded")
		}
		for _, key := range []string{"db@a:1", "db@b:1", "db@c:1"} {
			if !strings.Contains(err.Error(), key) {
				t.Errorf("error %q does not name %s", err, key)
			}
		}
		if got := counter(w, "replica_failover_total"); got != 2 {
			t.Errorf("replica_failover_total = %d, want 2", got)
		}
		if got := counter(w, "replica_exhausted_total"); got != 1 {
			t.Errorf("replica_exhausted_total = %d, want 1", got)
		}
	})
}

// TestSiblingReplicaRetriesTransientFailureOnce: in a set of more than
// one replica, a transient failure costs its replica at most two
// queries — the failure and one retry after the backoff — before the
// set fails over; the failover is free.
func TestSiblingReplicaRetriesTransientFailureOnce(t *testing.T) {
	backoff := clock.NewFake()
	tr := &failoverTransport{hosts: []string{"a:1", "b:1"}, mode: map[string]int{"a:1": replicaFail}, queries: map[string]int{}}
	reg := telemetry.NewRegistry()
	d, err := Dial(context.Background(), tr.hosts, Options{
		Metrics: reg,
		Client:  ClientOptions{Timeout: time.Minute, Transport: tr},
		Clock:   backoff,
	})
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		ids []int
		err error
	}
	done := make(chan answer, 1)
	go func() {
		_, ids, err := d.QueryContext(context.Background(), []string{"x"}, 1)
		done <- answer{ids, err}
	}()
	backoff.BlockUntil(1) // a failed once; its retry waits out the backoff
	if n := tr.seen("a:1"); n != 1 {
		t.Fatalf("a saw %d queries before its retry, want 1", n)
	}
	backoff.Advance(resilience.BackoffMax)
	var got answer
	select {
	case got = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the call did not fail over after a's one retry")
	}
	if got.err != nil || len(got.ids) != 1 || got.ids[0] != 1 {
		t.Fatalf("answer = %v (err %v), want b's (1)", got.ids, got.err)
	}
	if n := tr.seen("a:1"); n != 2 {
		t.Errorf("a saw %d queries, want 2 (the failure and one retry)", n)
	}
	for name, want := range map[string]int64{
		"replica_failover_total":    1,
		"wire_client_retries_total": 2, // the retry on a and the failover to b
		"wire_requests_total":       3, // dialing a and b, then the one query call
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestReplicaDrainReleasesOnLastCall: a replica removed from the set
// while a call is in flight keeps its client and breaker until that
// call returns, and is released as it returns, with no clock movement.
// A replica whose call never returns is released exactly when
// drainTimeout passes on the breakers' clock (the backoff clock is real
// time here, so the drain cannot be timed on it).
func TestReplicaDrainReleasesOnLastCall(t *testing.T) {
	const removed = "db@a:1"
	for _, returns := range []bool{true, false} {
		clk := clock.NewFake()
		breakers := resilience.NewSet(resilience.BreakerOptions{Clock: clk}, nil)
		tr := newReplicaTransport("db")
		d, err := New("db", "", 0, []string{"a:1", "b:1"}, Options{
			Breakers: breakers,
			Client:   ClientOptions{Timeout: time.Minute, Transport: tr},
		})
		if err != nil {
			t.Fatal(err)
		}
		member := func() bool {
			for _, b := range breakers.Snapshot() {
				if b.Database == removed {
					return true
				}
			}
			return false
		}
		done := make(chan error, 1)
		go func() {
			_, _, err := d.QueryContext(context.Background(), []string{"x"}, 1)
			done <- err
		}()
		if host := <-tr.entered; host != "a:1" {
			t.Fatalf("the call went to %s, want the preferred replica a:1", host)
		}
		if err := d.UpdateReplicas([]string{"b:1"}, 0); err != nil {
			t.Fatalf("UpdateReplicas: %v", err)
		}
		if tr.clientClosed() || !member() {
			t.Fatalf("returns=%v: replica released with its call still in flight", returns)
		}

		if returns {
			close(tr.release)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if !tr.clientClosed() || member() {
				t.Fatalf("replica not released when its last call returned (client closed %v, breaker member %v)",
					tr.clientClosed(), member())
			}
			continue
		}
		clk.Advance(drainTimeout - time.Nanosecond)
		if tr.clientClosed() || !member() {
			t.Fatal("hung replica released before drainTimeout")
		}
		clk.Advance(time.Nanosecond)
		select {
		case <-tr.closed: // the drain ran out and closed the client
		case <-time.After(drainTimeout / 2): // well before any real-time timer would fire
			t.Fatal("hung replica not released when drainTimeout passed on the breakers' clock")
		}
		if member() {
			t.Fatal("hung replica's breaker still in the set after its drain ran out")
		}
		close(tr.release)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
