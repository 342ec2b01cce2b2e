package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/resilience"
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

// TestReplicaDrainReleasesOnLastCall: a replica removed from the set
// while a call is in flight keeps its client and breaker until that
// call returns, and is released as it returns, with no clock movement.
// A replica whose call never returns is released exactly when
// drainTimeout passes on the breakers' clock (the client's own clock is
// real time here, so the drain cannot be timed on it).
func TestReplicaDrainReleasesOnLastCall(t *testing.T) {
	const removed = "db@a:1"
	for _, returns := range []bool{true, false} {
		clk := clock.NewFake()
		breakers := resilience.NewSet(resilience.BreakerOptions{Clock: clk}, nil)
		tr := newReplicaTransport("db")
		d, err := NewReplicatedDatabase("db", "", 0, []string{"a:1", "b:1"}, ReplicatedDatabaseOptions{
			Breakers: breakers,
			Client:   RemoteDatabaseOptions{Timeout: time.Minute, Transport: tr},
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
		if _, gone, err := d.UpdateReplicas([]string{"b:1"}, 0); err != nil || len(gone) != 1 {
			t.Fatalf("UpdateReplicas removed %v (err %v), want [a:1]", gone, err)
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
