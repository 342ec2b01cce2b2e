// Package wire is the network protocol between a metasearcher and a
// remote text database node. The paper's setting is exactly this: the
// metasearcher may interact with an uncooperative database only through
// its search interface, over the network. The protocol mirrors the
// SearchableDatabase interface as a small versioned JSON/HTTP API:
//
//	GET  /v1/info      → InfoResponse   (name, protocol version, size)
//	POST /v1/query     → QueryResponse  (match count + ranked doc ids)
//	GET  /v1/doc/{id}  → DocResponse    (the document's analyzed terms)
//	GET  /v1/health    → HealthResponse (accepting traffic? 200 ok / 503 draining)
//
// Errors are returned as an ErrorEnvelope with a machine-readable code.
// An overloaded node sheds protocol requests with 429 + Retry-After
// (code "overloaded"); clients treat a shed as backpressure — back off
// for the advertised interval (resilience.Do) — not as node failure.
// The path prefix (/v1) is the protocol's major version: breaking
// changes bump it; additive changes extend the JSON objects (decoders
// ignore unknown fields on both sides). A client checks the version a
// node advertises in /v1/info before using it.
package wire

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/resilience"
)

// Version is the protocol version this package speaks, advertised by
// servers in InfoResponse and checked by clients at dial time.
const Version = 1

// Paths of the protocol endpoints.
const (
	PathInfo      = "/v1/info"
	PathQuery     = "/v1/query"
	PathDocPrefix = "/v1/doc/"
	PathHealth    = "/v1/health"
)

// MaxBodyBytes bounds how much of any request or response body either
// side will read (a document's terms fit comfortably; a misbehaving
// peer cannot force unbounded allocation). The router reads a shard's
// blocking reply under the same bound.
const MaxBodyBytes = 8 << 20

// InfoResponse describes a database node (GET /v1/info).
type InfoResponse struct {
	// Name identifies the database served by this node.
	Name string `json:"name"`
	// Protocol is the wire protocol version the node speaks.
	Protocol int `json:"protocol"`
	// NumDocs is the database size |D|. Real hidden-web databases do
	// not reveal it (the metasearcher estimates it by sample–resample);
	// nodes advertise it for operability, not for selection.
	NumDocs int `json:"num_docs,omitempty"`
	// Category, when non-empty, is the node's self-declared topic
	// classification — the role a web-directory entry plays in the
	// paper. Empty means "classify me by probing".
	Category string `json:"category,omitempty"`
}

// QueryRequest is a conjunctive query (POST /v1/query).
type QueryRequest struct {
	// Terms are the (already analyzed) query words, ANDed.
	Terms []string `json:"terms"`
	// Limit caps how many ranked document ids are returned.
	Limit int `json:"limit"`
}

// QueryResponse answers a QueryRequest.
type QueryResponse struct {
	// Matches is the total number of matching documents (the match
	// count a search interface reports).
	Matches int `json:"matches"`
	// IDs are the top-ranked matching document ids, at most Limit.
	IDs []int `json:"ids"`
}

// check reports how r breaks what an honest node's index answers a
// query with this limit: at most max(limit, 0) ids, no more ids than
// matches, and no negative match count.
func (r QueryResponse) check(limit int) error {
	switch {
	case r.Matches < 0:
		return &ReplyError{PathQuery, fmt.Sprintf("negative match count %d", r.Matches)}
	case len(r.IDs) > max(limit, 0):
		return &ReplyError{PathQuery, fmt.Sprintf("%d ids for limit %d", len(r.IDs), limit)}
	case len(r.IDs) > r.Matches:
		return &ReplyError{PathQuery, fmt.Sprintf("%d ids for %d matches", len(r.IDs), r.Matches)}
	}
	return nil
}

// DocResponse is one document's content (GET /v1/doc/{id}).
type DocResponse struct {
	ID int `json:"id"`
	// Terms are the document's analyzed terms, in order.
	Terms []string `json:"terms"`
}

// HealthResponse answers GET /v1/health. A node accepting traffic
// serves it with 200; a draining node (graceful shutdown in progress)
// serves it with 503 so probes and breakers route away before the
// listener closes.
type HealthResponse struct {
	// Status is "ok" or "draining".
	Status string `json:"status"`
	// Draining mirrors Status == "draining" for programmatic checks.
	Draining bool `json:"draining,omitempty"`
	// Inflight is how many protocol requests the node is serving right
	// now; MaxInflight the admission cap (0 = unlimited).
	Inflight    int64 `json:"inflight"`
	MaxInflight int   `json:"max_inflight,omitempty"`
	// Version is the serving process's build version; ShardID names the
	// topology shard a clustered metasearcher serves ("" outside a
	// cluster). Both additive: older peers ignore them.
	Version string `json:"version,omitempty"`
	ShardID string `json:"shard_id,omitempty"`
	// Shards is the per-shard health summary a cluster router reports
	// (breaker state + last probe result per shard), so one health call
	// covers the fleet behind it. Additive: empty outside the router.
	Shards []ShardHealth `json:"shards,omitempty"`
	// Topology reports which topology generation this process is
	// serving and when it last swapped, so an operator can confirm a
	// reconfiguration landed fleet-wide from health checks alone.
	// Additive: absent when the process does not watch a topology file.
	Topology *TopologyStatus `json:"topology,omitempty"`
}

// TopologyStatus is the live-reconfiguration view in a health response.
type TopologyStatus struct {
	// Generation is the process-local count of accepted topology loads
	// (1 = the boot-time file, +1 per accepted reload).
	Generation int64 `json:"generation"`
	// LastSwapUnixMs is when the newest snapshot was loaded.
	LastSwapUnixMs int64 `json:"last_swap_unix_ms,omitempty"`
}

// ShardHealth is one shard's health as seen by the router in front of
// it.
type ShardHealth struct {
	// ID and Addr name the shard in the topology.
	ID   string `json:"id"`
	Addr string `json:"addr"`
	// Breaker is the router's circuit-breaker state for the shard:
	// "closed" (healthy), "half_open" (probing), "open" (routed around).
	Breaker string `json:"breaker"`
	// Healthy is the operator's one-bit answer: the breaker admits
	// traffic (closed or half-open).
	Healthy bool `json:"healthy"`
	// LastProbe reports the most recent background health probe:
	// "ok", or the error string. Probes only run against non-closed
	// breakers, so a shard that never failed has no probe result ("").
	LastProbe string `json:"last_probe,omitempty"`
	// LastProbeUnixMs is when that probe finished (0 = never probed).
	LastProbeUnixMs int64 `json:"last_probe_unix_ms,omitempty"`
}

// Error codes shared by server and client.
const (
	CodeBadRequest  = "bad_request"
	CodeNotFound    = "not_found"
	CodeInternal    = "internal"
	CodeUnavailable = "unavailable"
	// CodeOverloaded marks a request shed by the node's admission gate
	// (HTTP 429 + Retry-After): the node is healthy but at capacity.
	CodeOverloaded = "overloaded"
)

// ErrorBody is the payload of an ErrorEnvelope.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorEnvelope is the JSON shape of every non-200 response.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// ProtocolError is a non-200 response decoded by the client.
type ProtocolError struct {
	// Status is the HTTP status code.
	Status int
	// Code and Message come from the error envelope (Code may be empty
	// when the peer did not produce one, e.g. an intermediary 502).
	Code    string
	Message string
	// RetryAfter is the backoff the peer's Retry-After header asked for,
	// clamped to [0, resilience.BackoffMax] (zero when absent or
	// unparseable), honoured between retries of a shed request.
	RetryAfter time.Duration
}

// Error implements error.
func (e *ProtocolError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("wire: %s (%d): %s", e.Code, e.Status, e.Message)
	}
	return fmt.Sprintf("wire: HTTP %d", e.Status)
}

// Transient reports whether the failure is worth retrying: the node was
// overloaded or momentarily broken, not the request malformed.
func (e *ProtocolError) Transient() bool {
	return e.Status >= 500 || e.Status == http.StatusTooManyRequests
}

// Shed reports whether the failure was the node's admission gate
// shedding load (429). Sheds are backpressure, not node failure: the
// node answered, promptly, saying "not now".
func (e *ProtocolError) Shed() bool {
	return e.Status == http.StatusTooManyRequests
}

// RetryDelay returns RetryAfter: the wait resilience.Do honours before
// retrying a shed request.
func (e *ProtocolError) RetryDelay() time.Duration {
	return e.RetryAfter
}

// ReplyError is a 200 reply whose body breaks the protocol. Asking the
// node again will not change its answer, so the attempt fails without a
// retry: the replica set fails over, and the node's breaker counts it.
type ReplyError struct {
	Path   string
	Reason string
}

func (e *ReplyError) Error() string   { return fmt.Sprintf("wire: %s reply: %s", e.Path, e.Reason) }
func (e *ReplyError) Transient() bool { return false }

// DecodeError turns a non-200 response into a ProtocolError, reading
// the error envelope and Retry-After header when present. Callers own
// draining and closing the body; DecodeError reads it (bounded) but
// does not close it.
func DecodeError(resp *http.Response) *ProtocolError {
	pe := &ProtocolError{Status: resp.StatusCode}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			// Clamp before converting: a large header overflows time.Duration.
			pe.RetryAfter = time.Duration(min(secs, int(resilience.BackoffMax/time.Second))) * time.Second
		}
	}
	var env ErrorEnvelope
	if json.NewDecoder(io.LimitReader(resp.Body, MaxBodyBytes)).Decode(&env) == nil {
		pe.Code, pe.Message = env.Error.Code, env.Error.Message
	}
	return pe
}

// WriteError writes an ErrorEnvelope response.
func WriteError(w http.ResponseWriter, status int, code, message string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorEnvelope{Error: ErrorBody{Code: code, Message: message}})
}
