package gateway

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// FuzzSearchRequest drives hostile GET query strings at both endpoints
// and hostile POST bodies at /v1/search (the stream endpoint is
// GET-only). Whatever arrives, the gateway must fail closed: no panic
// and no 5xx, every rejection a 400 bad_request envelope that never
// reached the search, and every accepted request a search with a
// non-blank query, positive MaxDBs and PerDB, and a deadline no longer
// than MaxDeadline — with no default deadline configured, so the cap
// alone must bound an untimed request.
func FuzzSearchRequest(f *testing.F) {
	for _, tc := range badRequests {
		path, rawQuery, _ := strings.Cut(tc.target, "?")
		f.Add(tc.method == http.MethodPost, path == PathSearchStream, rawQuery, tc.body)
	}
	f.Add(false, false, "q=white+whale&k=2&perdb=7&timeout=250ms", "")
	f.Add(false, true, "q=whale&format=ndjson&timeout=1h", "")
	f.Add(true, false, "", `{"query":"moby dick","k":4,"per_db":2,"timeout":"1h"}`)
	const maxDeadline = time.Minute
	f.Fuzz(func(t *testing.T, post, stream bool, rawQuery, body string) {
		method, path := http.MethodGet, PathSearch
		switch {
		case post:
			method = http.MethodPost
		case stream:
			path = PathSearchStream
		}
		r := &http.Request{
			Method: method,
			URL:    &url.URL{Path: path, RawQuery: rawQuery},
			Header: http.Header{},
			Body:   io.NopCloser(strings.NewReader(body)),
		}
		s := &fakeSearcher{}
		rec := httptest.NewRecorder()
		For(s.search, Options{MaxDeadline: maxDeadline}).ServeHTTP(rec, r)

		if rec.Code != http.StatusOK {
			var env wire.ErrorEnvelope
			if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &env) != nil || env.Error.Code != wire.CodeBadRequest {
				t.Fatalf("%s %s?%s %q: HTTP %d %s, want 200 or a 400 bad_request envelope",
					method, path, rawQuery, body, rec.Code, rec.Body.String())
			}
			if len(s.calls) != 0 {
				t.Fatalf("%s %s?%s %q: rejected, yet searched %+v", method, path, rawQuery, body, s.calls)
			}
			return
		}
		if len(s.calls) != 1 {
			t.Fatalf("%s %s?%s %q: accepted with %d searches, want 1", method, path, rawQuery, body, len(s.calls))
		}
		c := s.calls[0]
		if strings.TrimSpace(c.query) == "" || c.maxDBs <= 0 || c.perDB <= 0 {
			t.Errorf("%s %s?%s %q: searched %+v, want a non-blank query and positive k and perdb",
				method, path, rawQuery, body, c)
		}
		if !c.hadDeadline || c.deadlineLeft > maxDeadline {
			t.Errorf("%s %s?%s %q: searched with deadline %v (set: %v), want at most %v",
				method, path, rawQuery, body, c.deadlineLeft, c.hadDeadline, maxDeadline)
		}
	})
}
