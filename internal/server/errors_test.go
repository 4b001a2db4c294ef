package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dex/internal/core"
	"dex/internal/exec"
	"dex/internal/fault"
	"dex/internal/workload"
)

// rawPost sends body verbatim (no client-side JSON marshalling) so tests
// can exercise malformed and oversized payloads the typed Client cannot
// produce, and returns the status plus the decoded error body.
func rawPost(t *testing.T, url, body string) (int, errorBody) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("POST %s: response is not JSON: %v", url, err)
	}
	return resp.StatusCode, eb
}

// TestServerErrorPaths is the table-driven tour of the 4xx surface: every
// malformed or misaddressed request must come back as a typed JSON error
// with the right status — never a panic, a hang, or a bare text body.
func TestServerErrorPaths(t *testing.T) {
	ts, cl, _, _ := newTestService(t, 100, Config{}, exec.ExecOptions{})
	ctx := context.Background()

	liveID, err := cl.CreateSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	endedID, err := cl.CreateSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.EndSession(ctx, endedID); err != nil {
		t.Fatal(err)
	}
	// Past maxBody (1 MiB): its SQL alone is longer.
	oversized := fmt.Sprintf(`{"sql": %q}`, "SELECT * FROM sales WHERE "+strings.Repeat("amount >= 0 AND ", maxBody/16)+"amount >= 0")

	cases := []struct {
		name   string
		path   string
		body   string
		status int
	}{
		// (Session create takes no body parameters and ignores the body
		// entirely, so it has no malformed-JSON case.)
		{"malformed JSON on query", "/v1/sessions/" + liveID + "/query", `{"sql": "SELECT`, http.StatusBadRequest},
		{"JSON wrong shape on query", "/v1/sessions/" + liveID + "/query", `{"sql": 42}`, http.StatusBadRequest},
		{"empty SQL", "/v1/sessions/" + liveID + "/query", `{"sql": ""}`, http.StatusBadRequest},
		{"unknown session", "/v1/sessions/s-missing/query", `{"sql": "SELECT * FROM sales"}`, http.StatusNotFound},
		{"query after session end", "/v1/sessions/" + endedID + "/query", `{"sql": "SELECT * FROM sales"}`, http.StatusNotFound},
		{"oversized body", "/v1/sessions/" + liveID + "/query", oversized, http.StatusRequestEntityTooLarge},
		{"malformed JSON on suggest", "/v1/sessions/" + liveID + "/suggest", `{`, http.StatusBadRequest},
		{"malformed JSON on load", "/v1/tables/load", `not json`, http.StatusBadRequest},
		{"malformed JSON on demo", "/v1/tables/demo", `[1,2`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, eb := rawPost(t, ts.URL+tc.path, tc.body)
			if status != tc.status {
				t.Fatalf("status = %d, want %d (error %q)", status, tc.status, eb.Error)
			}
			if eb.Error == "" {
				t.Fatalf("HTTP %d carried no error message", status)
			}
		})
	}

	// The live session must have survived all of the above abuse.
	if _, err := cl.Query(ctx, liveID, QueryRequest{SQL: "SELECT count(*) FROM sales"}); err != nil {
		t.Fatalf("session unusable after error-path probes: %v", err)
	}
}

// TestClientRetriesTransportFaults: with a retry policy, a transient
// injected transport failure is absorbed — the call succeeds on the second
// attempt. Without a policy the same fault surfaces as a TransportError.
func TestClientRetriesTransportFaults(t *testing.T) {
	_, cl, _, _ := newTestService(t, 100, Config{}, exec.ExecOptions{})
	ctx := context.Background()

	if err := fault.Enable("client/transport", "error-once"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fault.Disable("client/transport") })
	_, err := cl.Tables(ctx)
	if !IsTransport(err) {
		t.Fatalf("no-retry client: err = %v, want TransportError", err)
	}

	cl.Retry = &RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, Seed: 1}
	if err := fault.Enable("client/transport", "error-once"); err != nil {
		t.Fatal(err)
	}
	tables, err := cl.Tables(ctx)
	if err != nil {
		t.Fatalf("retrying client: %v", err)
	}
	if len(tables) != 1 || tables[0] != "sales" {
		t.Fatalf("retried call returned %v", tables)
	}
}

// TestCreateSessionIdempotency: a retried session create with an
// Idempotency-Key must not leak a second session — the server replays the
// original id for a repeated key.
func TestCreateSessionIdempotency(t *testing.T) {
	ts, cl, srv, _ := newTestService(t, 100, Config{}, exec.ExecOptions{})
	ctx := context.Background()

	// Raw replay: same key twice, same id back.
	post := func(key string) (int, string) {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/sessions", bytes.NewReader([]byte("{}")))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Idempotency-Key", key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			SessionID string `json:"session_id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out.SessionID
	}
	st1, id1 := post("k-1")
	st2, id2 := post("k-1")
	if st1 != http.StatusCreated || st2 != http.StatusOK {
		t.Fatalf("statuses = %d, %d; want 201 then 200", st1, st2)
	}
	if id1 == "" || id1 != id2 {
		t.Fatalf("replayed create returned %q, want original %q", id2, id1)
	}
	_, id3 := post("k-2")
	if id3 == id1 {
		t.Fatal("distinct keys shared a session")
	}

	// Client-level: a transport fault on the first attempt plus the retry
	// policy's idempotency token yields exactly one new session.
	before := srv.Stats().Sessions.Created
	cl.Retry = &RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, Seed: 7}
	if err := fault.Enable("client/transport", "error-once"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fault.Disable("client/transport") })
	id, err := cl.CreateSession(ctx)
	if err != nil {
		t.Fatalf("create with retry: %v", err)
	}
	if id == "" {
		t.Fatal("empty session id")
	}
	if got := srv.Stats().Sessions.Created - before; got != 1 {
		t.Fatalf("retried create made %d sessions, want 1", got)
	}
}

// TestRetryBackoffShape pins the backoff arithmetic: exponential growth,
// the cap, the Retry-After floor, and jitter bounded by 50%.
func TestRetryBackoffShape(t *testing.T) {
	p := &RetryPolicy{BaseBackoff: 100 * time.Millisecond, MaxBackoff: time.Second, Seed: 3}
	for retry, base := range map[int]time.Duration{
		0: 100 * time.Millisecond,
		1: 200 * time.Millisecond,
		2: 400 * time.Millisecond,
		5: time.Second, // 3.2s capped
		9: time.Second,
	} {
		d := p.backoff(retry, 0)
		if d < base || d > base+base/2 {
			t.Fatalf("backoff(%d) = %v, want in [%v, %v]", retry, d, base, base+base/2)
		}
	}
	// Retry-After overrides a smaller computed backoff, even above the cap.
	if d := p.backoff(0, 3*time.Second); d < 3*time.Second {
		t.Fatalf("backoff with Retry-After floor = %v, want >= 3s", d)
	}
	// Same seed, same jitter sequence: the retry schedule is reproducible.
	p1 := &RetryPolicy{BaseBackoff: 100 * time.Millisecond, MaxBackoff: time.Second, Seed: 11}
	p2 := &RetryPolicy{BaseBackoff: 100 * time.Millisecond, MaxBackoff: time.Second, Seed: 11}
	for i := 0; i < 8; i++ {
		if d1, d2 := p1.backoff(i, 0), p2.backoff(i, 0); d1 != d2 {
			t.Fatalf("retry %d: same seed gave %v and %v", i, d1, d2)
		}
	}
}

// TestQueryDegradesOverHTTP drives the degradation contract end to end: a
// latency fault at the scan makes an exact query blow its deadline, and
// with -degrade on the wire answer comes back approximate, tagged
// degraded:true, and is never cached.
func TestQueryDegradesOverHTTP(t *testing.T) {
	eng := core.New(core.Options{Seed: 1, Degrade: true})
	sales, err := workload.Sales(rand.New(rand.NewSource(42)), 5_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Register(sales); err != nil {
		t.Fatal(err)
	}
	srv := New(eng, Config{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	cl := NewClient(ts.URL)
	ctx := context.Background()

	id, err := cl.CreateSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.Enable("exec/scan", "latency(150ms)"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fault.Disable("exec/scan") })

	req := QueryRequest{SQL: "SELECT sum(amount) FROM sales WHERE amount >= 10", TimeoutMS: 40}
	out, err := cl.Query(ctx, id, req)
	if err != nil {
		t.Fatalf("degradable query failed: %v", err)
	}
	if !out.Degraded {
		t.Fatal("answer not tagged degraded")
	}
	if out.Mode != "approx" {
		t.Fatalf("degraded answer mode = %q, want approx", out.Mode)
	}
	if len(out.Columns) != 3 || out.Columns[1] != "ci95" {
		t.Fatalf("degraded schema = %v", out.Columns)
	}
	if got := srv.Stats().Queries.Degraded; got != 1 {
		t.Fatalf("degraded counter = %d, want 1", got)
	}

	// A repeat of the same query must not be served from cache: degraded
	// answers are stand-ins, not results worth pinning.
	out2, err := cl.Query(ctx, id, req)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Cached {
		t.Fatal("degraded answer was cached")
	}

	// With the fault cleared the same query completes exactly.
	fault.Disable("exec/scan")
	out3, err := cl.Query(ctx, id, req)
	if err != nil {
		t.Fatal(err)
	}
	if out3.Degraded {
		t.Fatal("healthy query still degraded")
	}
	if len(out3.Columns) != 1 {
		t.Fatalf("exact schema = %v", out3.Columns)
	}
}

// TestDegradedExtremesEncodeOverWire pins the wire contract the chaos
// harness caught a hole in: a degraded MIN/MAX answer carries ci95 = +Inf
// (a sample extreme has no finite confidence bound — see internal/aqp),
// JSON cannot represent ±Inf, and an encode failure after the 200 status
// line reached clients as a bare io.EOF. The response must instead arrive
// as a parseable 200 with null in the ci95 cells.
func TestDegradedExtremesEncodeOverWire(t *testing.T) {
	eng := core.New(core.Options{Seed: 1, Degrade: true})
	sales, err := workload.Sales(rand.New(rand.NewSource(42)), 5_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Register(sales); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng, Config{}))
	t.Cleanup(ts.Close)
	cl := NewClient(ts.URL)
	ctx := context.Background()

	id, err := cl.CreateSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.Enable("exec/scan", "latency(150ms)"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fault.Disable("exec/scan") })

	out, err := cl.Query(ctx, id, QueryRequest{
		SQL: "SELECT quarter, max(amount) FROM sales WHERE amount >= 10 GROUP BY quarter", TimeoutMS: 40,
	})
	if err != nil {
		t.Fatalf("degraded MAX query failed on the wire: %v", err)
	}
	if !out.Degraded {
		t.Fatal("answer not tagged degraded")
	}
	ci := -1
	for i, c := range out.Columns {
		if c == "ci95" {
			ci = i
		}
	}
	if ci < 0 {
		t.Fatalf("no ci95 column in %v", out.Columns)
	}
	if len(out.Rows) == 0 {
		t.Fatal("degraded answer has no rows")
	}
	for _, row := range out.Rows {
		if row[ci] != nil {
			t.Fatalf("MAX ci95 = %v, want null (unbounded)", row[ci])
		}
	}
}

// TestWriteJSONUnencodable: if a payload ever fails to marshal again, the
// client must see a typed 500, not a 200 status line with an empty body.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"bad": math.Inf(1)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var eb errorBody
	if err := json.NewDecoder(rec.Body).Decode(&eb); err != nil {
		t.Fatalf("500 body is not JSON: %v", err)
	}
	if eb.Error == "" {
		t.Fatal("500 body has no error message")
	}
}

// TestInjectedHandlerFault: an armed server/handler failpoint surfaces as a
// 500 with a JSON error and bumps the injected counter — infrastructure
// failures are not blamed on the query.
func TestInjectedHandlerFault(t *testing.T) {
	_, cl, srv, _ := newTestService(t, 100, Config{}, exec.ExecOptions{})
	ctx := context.Background()
	id, err := cl.CreateSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.Enable("server/handler", "error-once"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fault.Disable("server/handler") })

	_, err = cl.Query(ctx, id, QueryRequest{SQL: "SELECT count(*) FROM sales"})
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusInternalServerError {
		t.Fatalf("injected handler fault: err = %v, want HTTP 500", err)
	}
	if got := srv.Stats().Queries.Injected; got != 1 {
		t.Fatalf("injected counter = %d, want 1", got)
	}
	// error-once: the next query is healthy.
	if _, err := cl.Query(ctx, id, QueryRequest{SQL: "SELECT count(*) FROM sales"}); err != nil {
		t.Fatalf("query after one-shot fault: %v", err)
	}
}

// TestQueryErrorClassification is the table-driven unit test of the
// error classifier, including the internal-cancellation bugfix: a
// context.Canceled surfacing with the client still connected and no
// deadline fired is a 500 with its own counter — it used to be a 400
// miscounted as a user cancellation.
func TestQueryErrorClassification(t *testing.T) {
	cancelledReq := func() *http.Request {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		return httptest.NewRequest(http.MethodPost, "/v1/sessions/x/query", nil).WithContext(ctx)
	}
	liveReq := func() *http.Request {
		return httptest.NewRequest(http.MethodPost, "/v1/sessions/x/query", nil)
	}

	cases := []struct {
		name        string
		err         error
		req         func() *http.Request
		wantStatus  int // 0 = nothing may be written
		wantOutcome string
		counter     func(q QueryStats) int64
	}{
		{
			name: "injected fault", err: fault.ErrInjected, req: liveReq,
			wantStatus: http.StatusInternalServerError, wantOutcome: "injected",
			counter: func(q QueryStats) int64 { return q.Injected },
		},
		{
			name: "client disconnected", err: context.Canceled, req: cancelledReq,
			wantStatus: 0, wantOutcome: "cancelled",
			counter: func(q QueryStats) int64 { return q.Cancelled },
		},
		{
			name: "internal cancel, live client", err: context.Canceled, req: liveReq,
			wantStatus: http.StatusInternalServerError, wantOutcome: "internal_cancel",
			counter: func(q QueryStats) int64 { return q.CancelledInternal },
		},
		{
			name: "wrapped internal cancel", err: fmt.Errorf("exec: %w", context.Canceled), req: liveReq,
			wantStatus: http.StatusInternalServerError, wantOutcome: "internal_cancel",
			counter: func(q QueryStats) int64 { return q.CancelledInternal },
		},
		{
			name: "deadline exceeded", err: context.DeadlineExceeded, req: liveReq,
			wantStatus: http.StatusGatewayTimeout, wantOutcome: "timeout",
			counter: func(q QueryStats) int64 { return q.TimedOut },
		},
		{
			name: "unknown table", err: fmt.Errorf("%q: %w", "nope", core.ErrNoSuchTable), req: liveReq,
			wantStatus: http.StatusNotFound, wantOutcome: "failed",
			counter: func(q QueryStats) int64 { return q.Failed },
		},
		{
			name: "engine rejection", err: errors.New("exec: unknown column"), req: liveReq,
			wantStatus: http.StatusBadRequest, wantOutcome: "failed",
			counter: func(q QueryStats) int64 { return q.Failed },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(core.New(core.Options{}), Config{})
			w := httptest.NewRecorder()
			outcome := s.queryError(w, tc.req(), tc.err)
			if outcome != tc.wantOutcome {
				t.Fatalf("outcome %q, want %q", outcome, tc.wantOutcome)
			}
			if got := tc.counter(s.Stats().Queries); got != 1 {
				t.Fatalf("counter for %s = %d, want 1", tc.wantOutcome, got)
			}
			resp := w.Result()
			defer resp.Body.Close()
			if tc.wantStatus == 0 {
				if w.Body.Len() != 0 {
					t.Fatalf("wrote %q to a disconnected client", w.Body.String())
				}
				return
			}
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			var eb errorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == "" {
				t.Fatalf("error body missing or malformed: %v (%q)", err, w.Body.String())
			}
		})
	}
}
