package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"dex/internal/fault"
	"dex/internal/trace"
)

// fpTransport injects network-level failures into the client: an error
// policy makes a request fail before reaching the wire (connection
// refused / reset, as the retry layer sees them), a latency policy models
// a slow link. It fires per attempt, so a retried request can fail, back
// off, and succeed — the exact sequence the chaos harness exercises.
var fpTransport = fault.Register("client/transport")

// RejectedError is the typed form of a 429/503 load-shed response, so
// clients (and the load harness) can tell "busy, back off" apart from
// "your query is wrong".
type RejectedError struct {
	Status     int
	Message    string
	RetryAfter time.Duration
}

func (e *RejectedError) Error() string {
	return fmt.Sprintf("server rejected request (%d): %s", e.Status, e.Message)
}

// IsRejected reports whether err is a load-shedding rejection (saturated or
// draining) rather than a query failure.
func IsRejected(err error) bool {
	var re *RejectedError
	return errors.As(err, &re)
}

// StatusError is any other non-2xx response.
type StatusError struct {
	Status  int
	Message string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server error (%d): %s", e.Status, e.Message)
}

// TransportError means the request never produced an HTTP response: the
// connection was refused, reset mid-body, or the dial failed. It is a
// different animal from both rejections (the server answered: busy) and
// status errors (the server answered: no) — the server may never have seen
// the request, so whether a retry is safe depends on idempotency, and a
// load report that lumps these under "failed" hides an unreachable or
// flapping server behind a number that normally means bad queries.
type TransportError struct {
	Op  string // "POST /v1/sessions/abc/query"
	Err error
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("transport error (%s): %v", e.Op, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// IsTransport reports whether err is a network-level failure rather than
// an HTTP-level response.
func IsTransport(err error) bool {
	var te *TransportError
	return errors.As(err, &te)
}

// RetryPolicy makes a Client retry transient failures — transport errors
// and load-shed rejections — with capped exponential backoff and seeded
// jitter. A server Retry-After hint acts as a floor under the computed
// backoff: the client never comes back sooner than the server asked.
// Non-transient errors (4xx/5xx status errors, context cancellation) are
// never retried, and non-idempotent requests are retried only when an
// idempotency token makes replay safe (see Client.CreateSession).
type RetryPolicy struct {
	MaxAttempts int           // total attempts including the first (default 4)
	BaseBackoff time.Duration // delay before the first retry (default 50ms)
	MaxBackoff  time.Duration // cap on the exponential backoff (default 2s)
	Seed        int64         // jitter and idempotency-token stream seed

	mu  sync.Mutex
	rng *rand.Rand
}

func (p *RetryPolicy) attempts() int {
	if p == nil {
		return 1
	}
	if p.MaxAttempts <= 0 {
		return 4
	}
	return p.MaxAttempts
}

// rand64 draws from the policy's seeded stream (lazily initialized, so a
// zero-value &RetryPolicy{} works).
func (p *RetryPolicy) rand64(n int64) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(p.Seed))
	}
	if n <= 0 {
		return p.rng.Int63()
	}
	return p.rng.Int63n(n)
}

// backoff computes the wait before retry number `retry` (0-based):
// base<<retry capped at MaxBackoff, floored by the server's Retry-After
// hint, plus up to 50% jitter so synchronized clients spread out.
func (p *RetryPolicy) backoff(retry int, retryAfter time.Duration) time.Duration {
	base := p.BaseBackoff
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	maxB := p.MaxBackoff
	if maxB <= 0 {
		maxB = 2 * time.Second
	}
	d := base << retry
	if d > maxB || d <= 0 { // <=0 guards shift overflow
		d = maxB
	}
	if retryAfter > d {
		d = retryAfter
	}
	return d + time.Duration(p.rand64(int64(d)/2+1))
}

// retryable reports whether err is worth another attempt: the server said
// "busy, come back" or the network ate the request. Everything else — bad
// queries, unknown sessions, server bugs, client cancellation — repeats
// identically, so retrying only adds load.
func retryable(err error) bool {
	var re *RejectedError
	var te *TransportError
	return errors.As(err, &re) || errors.As(err, &te)
}

// Client is a typed HTTP client for the dexd service, used by the tests,
// the session driver and the dexd subcommands.
type Client struct {
	BaseURL string
	HTTP    *http.Client
	// Retry, when non-nil, transparently retries transient failures.
	Retry *RetryPolicy
}

// NewClient targets a dexd instance, e.g. NewClient("http://127.0.0.1:8080").
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL, HTTP: &http.Client{}}
}

func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	return c.doRetry(ctx, method, path, body, out, nil, true)
}

// doRetry runs one logical request through the retry policy. Non-idempotent
// requests get exactly one attempt regardless of policy — replaying them
// could duplicate the side effect — unless the caller made replay safe with
// an idempotency token (in which case it passes idempotent=true).
func (c *Client) doRetry(ctx context.Context, method, path string, body, out any, header map[string]string, idempotent bool) error {
	attempts := c.Retry.attempts()
	if !idempotent {
		attempts = 1
	}
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			var re *RejectedError
			var retryAfter time.Duration
			if errors.As(err, &re) {
				retryAfter = re.RetryAfter
			}
			select {
			case <-time.After(c.Retry.backoff(attempt-1, retryAfter)):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		err = c.doOnce(ctx, method, path, body, out, header)
		if err == nil || !retryable(err) || ctx.Err() != nil {
			return err
		}
	}
	return err
}

func (c *Client) doOnce(ctx context.Context, method, path string, body, out any, header map[string]string) error {
	op := method + " " + path
	if err := fpTransport.Hit(); err != nil {
		return &TransportError{Op: op, Err: err}
	}
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		// Context cancellation is the caller giving up, not the network
		// failing; keep it recognizable (and non-retryable).
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return &TransportError{Op: op, Err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var eb errorBody
		msg := resp.Status
		if json.NewDecoder(resp.Body).Decode(&eb) == nil && eb.Error != "" {
			msg = eb.Error
		}
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			return &RejectedError{
				Status:     resp.StatusCode,
				Message:    msg,
				RetryAfter: time.Duration(eb.RetryAfterMS) * time.Millisecond,
			}
		}
		return &StatusError{Status: resp.StatusCode, Message: msg}
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	// One read into one pooled buffer that grows as bytes arrive (a header
	// never sizes an allocation), then one json.Unmarshal: no decoder
	// refills. Unmarshal copies every string it keeps, so the decoded value
	// never aliases the buffer; one that grew past maxPooledBody goes to
	// the collector.
	buf := readPool.Get().(*bytes.Buffer)
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	if err == nil {
		err = json.Unmarshal(buf.Bytes(), out)
	}
	if buf.Cap() <= maxPooledBody {
		readPool.Put(buf)
	}
	return err
}

var readPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// CreateSession opens a session and returns its id. Session creation is
// the one non-idempotent call in the API — a blind retry could open two
// sessions and leak one — so when a retry policy is set the client attaches
// an Idempotency-Key token: the server replays the original response for a
// repeated key, making the retry safe. Without a policy there is exactly
// one attempt and no token is needed.
func (c *Client) CreateSession(ctx context.Context) (string, error) {
	var out struct {
		SessionID string `json:"session_id"`
	}
	var header map[string]string
	if c.Retry != nil {
		header = map[string]string{
			"Idempotency-Key": fmt.Sprintf("ck-%016x-%016x", c.Retry.rand64(0), c.Retry.rand64(0)),
		}
	}
	if err := c.doRetry(ctx, http.MethodPost, "/v1/sessions", struct{}{}, &out, header, c.Retry != nil); err != nil {
		return "", err
	}
	return out.SessionID, nil
}

// Query runs one statement inside a session.
func (c *Client) Query(ctx context.Context, sessionID string, req QueryRequest) (*QueryResult, error) {
	var out QueryResult
	if err := c.do(ctx, http.MethodPost, "/v1/sessions/"+sessionID+"/query", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Suggest asks for up to k recommended next queries.
func (c *Client) Suggest(ctx context.Context, sessionID string, k int) ([]Suggestion, error) {
	var out struct {
		Suggestions []Suggestion `json:"suggestions"`
	}
	body := struct {
		K int `json:"k"`
	}{K: k}
	if err := c.do(ctx, http.MethodPost, "/v1/sessions/"+sessionID+"/suggest", body, &out); err != nil {
		return nil, err
	}
	return out.Suggestions, nil
}

// EndSession archives a session.
func (c *Client) EndSession(ctx context.Context, sessionID string) error {
	return c.do(ctx, http.MethodDelete, "/v1/sessions/"+sessionID, nil, nil)
}

// Tables lists loaded tables.
func (c *Client) Tables(ctx context.Context) ([]string, error) {
	var out struct {
		Tables []string `json:"tables"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/tables", nil, &out); err != nil {
		return nil, err
	}
	return out.Tables, nil
}

// LoadCSV asks the server to load a CSV it can reach on its filesystem.
func (c *Client) LoadCSV(ctx context.Context, name, path string) error {
	body := struct {
		Name string `json:"name"`
		Path string `json:"path"`
	}{name, path}
	return c.do(ctx, http.MethodPost, "/v1/tables/load", body, nil)
}

// LoadDemo synthesizes a demo table (sales|sky|ticks) server-side.
func (c *Client) LoadDemo(ctx context.Context, kind string, rows int, seed int64) error {
	body := struct {
		Kind string `json:"kind"`
		Rows int    `json:"rows"`
		Seed int64  `json:"seed"`
	}{kind, rows, seed}
	return c.do(ctx, http.MethodPost, "/v1/tables/demo", body, nil)
}

// Stats fetches /admin/stats.
func (c *Client) Stats(ctx context.Context) (*StatsSnapshot, error) {
	var out StatsSnapshot
	if err := c.do(ctx, http.MethodGet, "/admin/stats", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Slow fetches the retained slow-query traces from /admin/slow,
// newest first.
func (c *Client) Slow(ctx context.Context) ([]trace.Entry, error) {
	var out struct {
		Slow []trace.Entry `json:"slow"`
	}
	if err := c.do(ctx, http.MethodGet, "/admin/slow", nil, &out); err != nil {
		return nil, err
	}
	return out.Slow, nil
}

// Metrics fetches the raw Prometheus text exposition from /metrics. It
// is the one non-JSON response in the API, so it bypasses the JSON
// plumbing (and the retry policy — a scrape is not worth retrying).
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return "", &TransportError{Op: "GET /metrics", Err: err}
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", &TransportError{Op: "GET /metrics", Err: err}
	}
	if resp.StatusCode != http.StatusOK {
		return "", &StatusError{Status: resp.StatusCode, Message: string(buf)}
	}
	return string(buf), nil
}
