package chaos

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// backend answers every request with its path.
var backend = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	io.WriteString(w, "backend:"+r.URL.Path)
})

func serve(t *testing.T, next http.Handler, f Faults) (*Injector, *httptest.Server) {
	t.Helper()
	inj := Wrap(next, Options{Faults: f, Seed: 42})
	srv := httptest.NewServer(inj)
	t.Cleanup(srv.Close)
	return inj, srv
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func TestProxyTransparentByDefault(t *testing.T) {
	inj, srv := serve(t, backend, Faults{})
	if code, body := get(t, srv.URL+"/v1/info"); code != 200 || body != "backend:/v1/info" {
		t.Fatalf("got %d %q, want transparent pass-through", code, body)
	}
	if s := inj.Stats(); s != (Stats{Requests: 1, Served: 1}) {
		t.Fatalf("stats = %+v, want exactly one clean request", s)
	}
}

func TestProxyInjectsErrors(t *testing.T) {
	inj, srv := serve(t, backend, Faults{ErrorRate: 1, ErrorCode: 502})
	if code, _ := get(t, srv.URL+"/v1/query"); code != 502 {
		t.Fatalf("status = %d, want injected 502", code)
	}
	inj.SetFaults(Faults{ErrorRate: 1})
	if code, _ := get(t, srv.URL+"/v1/query"); code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want the default 503", code)
	}
	if s := inj.Stats(); s.Errors != 2 || s.Served != 0 {
		t.Fatalf("stats = %+v, want 2 injected errors and nothing served", s)
	}
}

// A seed fixes which requests fail: with no jitter or reset set, each
// request draws one Float64 from the seeded source for the error rate,
// so request i fails exactly when the source's i-th Float64 is below it.
func TestErrorSequenceFollowsSeed(t *testing.T) {
	const rate = 0.25
	inj := Wrap(backend, Options{Faults: Faults{ErrorRate: rate, Latency: time.Nanosecond}, Seed: 1000})
	ref := rand.New(rand.NewSource(1000))
	for i := 0; i < 400; i++ {
		rec := httptest.NewRecorder()
		inj.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
		if failed, want := rec.Code != 200, ref.Float64() < rate; failed != want {
			t.Fatalf("request %d: failed %v, want %v", i, failed, want)
		}
	}
	if s := inj.Stats(); s.Errors == 0 || s.Served == 0 {
		t.Fatalf("stats = %+v, want both failures and successes", s)
	}
}

func TestFailNextFailsOneRequest(t *testing.T) {
	inj, srv := serve(t, backend, Faults{})
	inj.FailNext()
	for i, want := range []int{503, 200, 200} {
		if code, _ := get(t, srv.URL+"/"); code != want {
			t.Fatalf("request %d: status %d, want %d", i, code, want)
		}
	}
	if s := inj.Stats(); s.Requests != 3 || s.Errors != 1 || s.Served != 2 {
		t.Fatalf("stats = %+v, want 3 requests, 1 injected error, 2 served", s)
	}
}

func TestProxyInjectsLatency(t *testing.T) {
	_, srv := serve(t, backend, Faults{Latency: 60 * time.Millisecond})
	start := time.Now()
	get(t, srv.URL+"/")
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("request took %v, want ≥ injected 60ms latency", elapsed)
	}
}

func TestProxyResetsConnections(t *testing.T) {
	_, srv := serve(t, backend, Faults{ResetRate: 1})
	resp, err := http.Get(srv.URL + "/")
	if err == nil {
		resp.Body.Close()
		t.Fatalf("got response %d, want connection error from reset", resp.StatusCode)
	}
}

func TestProxyBlackholeHoldsUntilCallerGivesUp(t *testing.T) {
	inj, srv := serve(t, backend, Faults{HangEvery: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/", nil)
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		resp.Body.Close()
		t.Fatal("hung request got a response")
	}
	if !errors.Is(err, context.DeadlineExceeded) && !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("gave up after %v, want to hang until the caller's deadline", elapsed)
	}
	if s := inj.Stats(); s.Hangs != 1 || s.Served != 0 {
		t.Fatalf("stats = %+v, want one hang and nothing served", s)
	}
}

// Every n-th request hangs, and a hang that outlives HangFor ends as an
// aborted connection, not an answer; the requests between are served.
// The requests are POSTs: net/http's client would resend a GET whose
// reused connection broke.
func TestHangEveryNthUntilHangFor(t *testing.T) {
	inj, srv := serve(t, backend, Faults{HangEvery: 2, HangFor: 30 * time.Millisecond})
	for i, wantErr := range []bool{false, true, false, true} {
		resp, err := http.Post(srv.URL+"/", "text/plain", strings.NewReader("q"))
		if err == nil {
			resp.Body.Close()
		}
		if (err != nil) != wantErr {
			t.Fatalf("request %d: err %v, want error %v", i, err, wantErr)
		}
	}
	if s := inj.Stats(); s.Requests != 4 || s.Hangs != 2 || s.Served != 2 {
		t.Fatalf("stats = %+v, want 4 requests, 2 hangs, 2 served", s)
	}
}

// Requests from many goroutines while the faults change: every request
// is counted once, as served or injected.
func TestSetFaultsConcurrently(t *testing.T) {
	inj := Wrap(backend, Options{Seed: 3})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if g == 0 && i%10 == 0 {
					inj.SetFaults(Faults{ErrorRate: float64(i) / 100})
					inj.FailNext()
				}
				inj.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
			}
		}(g)
	}
	wg.Wait()
	if s := inj.Stats(); s.Requests != 200 || s.Served+s.Errors != 200 || s.Errors == 0 {
		t.Fatalf("stats = %+v, want 200 requests, each served or injected", s)
	}
}

func TestProxySlowBody(t *testing.T) {
	_, srv := serve(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(bytes.Repeat([]byte("x"), 2048))
	}), Faults{SlowBodyBytesPerSec: 8192})

	start := time.Now()
	_, body := get(t, srv.URL+"/")
	if len(body) != 2048 {
		t.Fatalf("body length = %d, want 2048 (throttling must not corrupt)", len(body))
	}
	// 2048 bytes at 8192 B/s in 512-byte chunks ≈ 3 inter-chunk sleeps
	// of 62.5ms each.
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Fatalf("throttled body arrived in %v, want ≥ ~187ms", elapsed)
	}
}

// The slow-body throttle must also pace streamed (flushed) responses —
// SSE frames are many small writes, so the byte schedule has to span
// Write calls — while still delivering each frame as it is written
// instead of buffering the stream to the end.
func TestProxySlowBodyStreamed(t *testing.T) {
	const frames = 4
	// Each frame is exactly 512 bytes: "data: " + 504 payload + "\n\n".
	frame := "data: " + strings.Repeat("x", 504) + "\n\n"
	_, srv := serve(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fl := w.(http.Flusher)
		for i := 0; i < frames; i++ {
			io.WriteString(w, frame)
			fl.Flush()
		}
	}), Faults{SlowBodyBytesPerSec: 4096})

	start := time.Now()
	resp, err := http.Get(srv.URL + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// The first frame is inside the schedule's opening budget, so it
	// must arrive well before the throttled tail — flushes pass through
	// the wrapper instead of the whole stream being buffered.
	buf := make([]byte, 512)
	if _, err := io.ReadFull(resp.Body, buf); err != nil {
		t.Fatal(err)
	}
	firstFrame := time.Since(start)
	rest, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)

	if got := string(buf) + string(rest); got != strings.Repeat(frame, frames) {
		t.Fatalf("streamed body corrupted: %d bytes, want %d", len(got), frames*len(frame))
	}
	// 4×512-byte frames at 4096 B/s: frames due at 0, 125, 250, 375ms.
	if elapsed < 300*time.Millisecond {
		t.Fatalf("streamed throttled body arrived in %v, want ≥ ~375ms (throttle must span flushed writes)", elapsed)
	}
	if firstFrame > 150*time.Millisecond {
		t.Fatalf("first frame arrived after %v — stream buffered instead of flushed through the throttle", firstFrame)
	}
}
