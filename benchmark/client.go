package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro"
	"repro/internal/evtstream"
	"repro/internal/gateway"
)

// answer is one reply reduced to what the planes must agree on.
type answer struct {
	sels    []repro.Selection
	results []repro.Result
}

func (a answer) digest(query string) digest { return answerDigest(query, a.sels, a.results) }

func answerOf(resp *repro.SearchResponse) answer {
	return answer{sels: resp.Selections, results: resp.Results}
}

func answerOfReply(r *gateway.SearchReply) answer {
	var a answer
	for _, s := range r.Selections {
		a.sels = append(a.sels, repro.Selection{Database: s.Database, Score: s.Score, Shrinkage: s.Shrinkage})
	}
	for _, h := range r.Results {
		a.results = append(a.results, repro.Result{Database: h.Database, DocID: h.DocID, Score: h.Score})
	}
	return a
}

// apiClient calls a gateway's /v1/search the way any HTTP caller does:
// one keep-alive http.Client shared by every benchmark client.
type apiClient struct {
	hc       *http.Client
	base     string
	k, perDB int
}

func newAPIClient(rec *recorder, addr string, k, perDB int) *apiClient {
	return &apiClient{
		hc:    &http.Client{Transport: traceTransport(rec, spClient, newTransport())},
		base:  "http://" + addr,
		k:     k,
		perDB: perDB,
	}
}

func (c *apiClient) close() { c.hc.CloseIdleConnections() }

func (c *apiClient) url(path, query string, extra ...string) string {
	v := url.Values{}
	v.Set("q", query)
	v.Set("k", strconv.Itoa(c.k))
	v.Set("perdb", strconv.Itoa(c.perDB))
	for i := 0; i+1 < len(extra); i += 2 {
		v.Set(extra[i], extra[i+1])
	}
	return c.base + path + "?" + v.Encode()
}

// get fetches one blocking reply body. req is the request index the
// trace files its spans under.
func (c *apiClient) get(req int64, query string) ([]byte, error) {
	ctx := withSpan(context.Background(), spanRef{req: req})
	r, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url(gateway.PathSearch, query), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(r)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// search is get plus decoding.
func (c *apiClient) search(req int64, query string) (*gateway.SearchReply, int, error) {
	body, err := c.get(req, query)
	if err != nil {
		return nil, 0, err
	}
	var reply gateway.SearchReply
	if err := json.Unmarshal(body, &reply); err != nil {
		return nil, 0, err
	}
	return &reply, len(body), nil
}

// stream reads one /v1/search/stream answer as NDJSON: time to the
// first frame, time to the final frame, and the final frame's reply.
func (c *apiClient) stream(query string) (first, full time.Duration, reply *gateway.SearchReply, err error) {
	t0 := time.Now()
	resp, err := c.hc.Get(c.url(gateway.PathSearchStream, query, "format", "ndjson"))
	if err != nil {
		return 0, 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, nil, fmt.Errorf("stream: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var f evtstream.Frame
		if err := json.Unmarshal(line, &f); err != nil {
			return 0, 0, nil, fmt.Errorf("stream: bad frame: %w", err)
		}
		if f.Type == evtstream.TypeHeartbeat {
			continue
		}
		if first == 0 {
			first = time.Since(t0)
		}
		switch f.Type {
		case evtstream.TypeFinal:
			full = time.Since(t0)
			reply = new(gateway.SearchReply)
			if err := json.Unmarshal(f.Data, reply); err != nil {
				return 0, 0, nil, fmt.Errorf("stream: bad final frame: %w", err)
			}
		case evtstream.TypeError:
			return 0, 0, nil, fmt.Errorf("stream: error frame: %s", f.Data)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, nil, err
	}
	if reply == nil {
		return 0, 0, nil, fmt.Errorf("stream ended without a final frame")
	}
	return first, full, reply, nil
}
