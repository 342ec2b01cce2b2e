package wire

import (
	"bytes"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/resilience"
)

// backoffMax is the cap on every wait between retries: DecodeError
// clamps a Retry-After to it.
const backoffMax = resilience.BackoffMax

// decode runs DecodeError over one synthetic response.
func decode(status int, retryAfter string, body []byte) *ProtocolError {
	resp := &http.Response{
		StatusCode: status,
		Header:     http.Header{"Retry-After": {retryAfter}},
		Body:       io.NopCloser(bytes.NewReader(body)),
	}
	return DecodeError(resp)
}

// TestDecodeErrorClampsRetryAfter pins the Retry-After range: a peer's
// header becomes a backoff in [0, backoffMax], never a wrapped
// time.Duration.
func TestDecodeErrorClampsRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		header string
		want   time.Duration
	}{
		{"", 0},
		{"0", 0},
		{"-3", 0},
		{"soon", 0},
		{"Wed, 21 Oct 2015 07:28:00 GMT", 0},
		{"1", time.Second},
		{"2", backoffMax},
		{"7", backoffMax},
		{"9223372037", backoffMax},  // × 1e9 ns overflows int64
		{"18446744074", backoffMax}, // wraps to 290 ms without the clamp
		{"99999999999999999999", 0}, // not an int64: unparseable
	} {
		if got := decode(http.StatusTooManyRequests, tc.header, nil).RetryAfter; got != tc.want {
			t.Errorf("Retry-After %q decodes to %v, want %v", tc.header, got, tc.want)
		}
	}
}

// FuzzDecodeError: whatever a peer answers, DecodeError returns a
// ProtocolError that is a shed exactly for 429 and whose RetryAfter lies
// in [0, backoffMax].
func FuzzDecodeError(f *testing.F) {
	f.Add(http.StatusTooManyRequests, "9223372037", []byte(`{"error":{"code":"overloaded","message":"busy"}}`))
	f.Add(http.StatusTooManyRequests, "18446744074", []byte(`{"error":{"code":"overloaded"}}`))
	f.Add(http.StatusServiceUnavailable, "1", []byte(`{"error":{"code":"unavailable","message":"draining"}}`))
	f.Add(http.StatusBadGateway, "", []byte("<html>bad gateway</html>"))
	f.Add(0, "-1", []byte(nil))
	f.Fuzz(func(t *testing.T, status int, retryAfter string, body []byte) {
		pe := decode(status, retryAfter, body)
		if pe == nil {
			t.Fatal("DecodeError returned nil")
		}
		if pe.Status != status {
			t.Fatalf("Status = %d, want %d", pe.Status, status)
		}
		if pe.Shed() != (status == http.StatusTooManyRequests) {
			t.Fatalf("status %d: Shed() = %v", status, pe.Shed())
		}
		if pe.RetryAfter < 0 || pe.RetryAfter > backoffMax {
			t.Fatalf("Retry-After %q decodes to %v, outside [0, %v]", retryAfter, pe.RetryAfter, backoffMax)
		}
		_ = pe.Error()
	})
}
