package wire

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
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

// everyDoc is a Backend in which every query matches more documents
// than maxLimit, so only the node's clamp bounds a reply.
type everyDoc struct{}

func (everyDoc) Name() string          { return "every" }
func (everyDoc) NumDocs() int          { return 2 * maxLimit }
func (everyDoc) Fetch(id int) []string { return nil }
func (everyDoc) Query(terms []string, limit int) (int, []int) {
	ids := make([]int, min(limit, 2*maxLimit))
	for i := range ids {
		ids[i] = i
	}
	return 2 * maxLimit, ids
}

// FuzzNodeQuery drives hostile bodies at a database node's /v1/query,
// the server half of the wire protocol's hostile input. Whatever
// arrives, the node answers 200 with at most maxLimit ids, or a 400
// bad_request envelope: never a panic and never a 5xx.
func FuzzNodeQuery(f *testing.F) {
	for _, body := range []string{
		`{"terms":["heart"],"limit":3}`,
		`{"terms":["heart"],"limit":1000000}`,
		`{"terms":["heart"],"limit":-5}`,
		`{"terms":[],"limit":1}`,
		`{"terms":null}`,
		`{"terms":["a"],"limit":99999999999999999999}`,
		`{"terms":["a"],"limit":1.5}`,
		`{"terms":"heart"}`,
		`{"terms":["a"]} trailing`,
		`[]`,
		``,
	} {
		f.Add(body)
	}
	node := NewServer(everyDoc{}, ServerOptions{})
	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		node.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathQuery, strings.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
			var resp QueryResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("body %q: 200 with an undecodable reply: %v", body, err)
			}
			if len(resp.IDs) > maxLimit {
				t.Fatalf("body %q: %d ids, more than maxLimit %d", body, len(resp.IDs), maxLimit)
			}
		case http.StatusBadRequest:
			var env ErrorEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != CodeBadRequest {
				t.Fatalf("body %q: 400 without a bad_request envelope: %s", body, rec.Body)
			}
		default:
			t.Fatalf("body %q: HTTP %d %s, want 200 or a 400 bad_request envelope", body, rec.Code, rec.Body)
		}
	})
}
