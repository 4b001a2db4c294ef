package server

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dex/internal/core"
	"dex/internal/exec"
	"dex/internal/fault"
	"dex/internal/workload"
)

// newTestService stands up a dexd instance on a loopback listener with a
// Sales table of n rows, plus a mirror engine holding identical data for
// parity checks.
func newTestService(t *testing.T, n int, cfg Config, opt exec.ExecOptions) (*httptest.Server, *Client, *Server, *core.Engine) {
	t.Helper()
	mkEngine := func() *core.Engine {
		eng := core.New(core.Options{Seed: 1, Exec: opt})
		sales, err := workload.Sales(rand.New(rand.NewSource(42)), n)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Register(sales); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	srv := New(mkEngine(), cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, NewClient(ts.URL), srv, mkEngine()
}

// slowScan arms the exec/scan latency failpoint for the rest of the test:
// every morsel of every scan waits d first. Tests about what happens while
// a query is in flight — admission saturation, drain, deadlines,
// disconnects — use it to put a query in flight for a known minimum time;
// the pipeline finishes a 2M-row scan in milliseconds on its own, and
// faster still on more cores.
func slowScan(t *testing.T, d time.Duration) {
	t.Helper()
	if err := fault.Enable("exec/scan", "latency("+d.String()+")"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fault.Disable("exec/scan") })
}

// sameResult compares a wire-format result against a direct-engine result,
// exact for ints and strings, to 1e-9 relative for floats (the parallel
// aggregates are ulp-nondeterministic).
func sameResult(t *testing.T, label string, got *QueryResult, want *QueryResult) {
	t.Helper()
	if len(got.Columns) != len(want.Columns) || len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: shape (%d cols, %d rows) != (%d cols, %d rows)",
			label, len(got.Columns), len(got.Rows), len(want.Columns), len(want.Rows))
	}
	for i := range want.Columns {
		if got.Columns[i] != want.Columns[i] || got.Types[i] != want.Types[i] {
			t.Fatalf("%s: column %d is %s %s, want %s %s",
				label, i, got.Columns[i], got.Types[i], want.Columns[i], want.Types[i])
		}
	}
	for r := range want.Rows {
		for c := range want.Rows[r] {
			g, w := got.Rows[r][c], want.Rows[r][c]
			// JSON decoding turns every number into float64; re-encode the
			// mirror's values the same way for comparison.
			gf, gIsNum := asFloat(g)
			wf, wIsNum := asFloat(w)
			switch {
			case wIsNum && gIsNum:
				if diff := math.Abs(gf - wf); diff > 1e-9*math.Max(1, math.Abs(wf)) {
					t.Fatalf("%s: row %d col %d: %v != %v", label, r, c, g, w)
				}
			case g != w:
				t.Fatalf("%s: row %d col %d: %#v != %#v", label, r, c, g, w)
			}
		}
	}
}

func asFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int64:
		return float64(x), true
	case int:
		return float64(x), true
	}
	return 0, false
}

// TestServerConcurrentClients drives 8 concurrent clients through
// create/query/suggest/end, each replaying a distinct synthetic exploration
// session, and checks every result matches direct execution on a mirror
// engine holding identical data.
func TestServerConcurrentClients(t *testing.T) {
	const clients, perClient = 8, 8
	// Admission sized so parity traffic is never load-shed; the admission
	// tests below exercise the rejection path deliberately.
	ts, cl, srv, mirror := newTestService(t, 20_000,
		Config{MaxInFlight: clients, MaxQueue: 2 * clients, QueueTimeout: 30 * time.Second},
		exec.ExecOptions{})
	_ = ts

	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := context.Background()
			id, err := cl.CreateSession(ctx)
			if err != nil {
				errc <- err
				return
			}
			stmts := workload.ExplorationSQL(rand.New(rand.NewSource(int64(100+c))), perClient)
			for i, sql := range stmts {
				got, err := cl.Query(ctx, id, QueryRequest{SQL: sql, Mode: "exact"})
				if err != nil {
					errc <- err
					return
				}
				direct, err := mirror.SQLContext(ctx, sql, core.Exact)
				if err != nil {
					errc <- err
					return
				}
				sameResult(t, sql, got, encodeTable(direct, "exact", 0))
				if i == len(stmts)-1 {
					if _, err := cl.Suggest(ctx, id, 3); err != nil {
						errc <- err
						return
					}
				}
			}
			if err := cl.EndSession(ctx, id); err != nil {
				errc <- err
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	snap := srv.Stats()
	if want := int64(clients * perClient); snap.Queries.Completed != want {
		t.Fatalf("completed = %d, want %d", snap.Queries.Completed, want)
	}
	if snap.Sessions.Ended != clients || snap.Sessions.Active != 0 {
		t.Fatalf("sessions ended=%d active=%d, want %d/0", snap.Sessions.Ended, snap.Sessions.Active, clients)
	}
	if m, ok := snap.Modes["exact"]; !ok || m.Count == 0 || m.P95MS < m.P50MS {
		t.Fatalf("bad exact-mode latency stats: %+v", snap.Modes)
	}
	if snap.RowsScanned == 0 {
		t.Fatal("rows_scanned never advanced")
	}
}

// TestServerDisconnectCancellation proves a client disconnect stops the
// query mid-scan: the engine-wide rows-scanned counter (exported via
// /admin/stats) freezes far below the work a full execution would do.
func TestServerDisconnectCancellation(t *testing.T) {
	const n = 1 << 21
	// One worker, small morsels and a per-morsel scan delay: the query is
	// in flight for seconds and cancellation latency stays a single morsel.
	_, cl, srv, _ := newTestService(t, n, Config{},
		exec.ExecOptions{Parallelism: 1, MorselSize: 1024})
	slowScan(t, time.Millisecond)

	ctx := context.Background()
	id, err := cl.CreateSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	base := srv.eng.RowsScanned()

	qctx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() {
		_, err := cl.Query(qctx, id, QueryRequest{
			SQL: "SELECT SUM(amount) FROM sales WHERE amount >= 0",
		})
		done <- err
	}()
	// Wait until the scan has visibly started, then disconnect.
	deadline := time.Now().Add(5 * time.Second)
	for srv.eng.RowsScanned() == base {
		if time.Now().After(deadline) {
			t.Fatal("query never started scanning")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("client saw %v, want context.Canceled", err)
	}

	// The client returning says nothing about the server: net/http cancels
	// the request context only once its background read sees the closed
	// connection. Wait until the server has counted the cancellation —
	// the query has then returned — before sampling the freeze.
	var s1 *StatsSnapshot
	for deadline = time.Now().Add(5 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if s1, err = cl.Stats(ctx); err != nil {
			t.Fatal(err)
		}
		if s1.Queries.Cancelled >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never observed the disconnect: %+v", s1.Queries)
		}
	}
	// The counter must be frozen: a second snapshot spaced apart agrees,
	// and the total stays below one full filter+aggregate pass.
	time.Sleep(50 * time.Millisecond)
	s2, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if s1.RowsScanned != s2.RowsScanned {
		t.Fatalf("rows_scanned still advancing after disconnect: %d -> %d", s1.RowsScanned, s2.RowsScanned)
	}
	if did := s2.RowsScanned - base; did >= 2*n {
		t.Fatalf("scanned %d rows, want < %d (cancellation did not cut the scan short)", did, 2*n)
	}
}

// TestServerAdmissionRejects saturates a 1-slot, 1-queue server with 16
// concurrent queries: beyond the slot and the queue entry, requests must be
// rejected with 429 (never queued unboundedly), while at least one query
// still completes.
func TestServerAdmissionRejects(t *testing.T) {
	_, cl, srv, _ := newTestService(t, 1<<20,
		Config{MaxInFlight: 1, MaxQueue: 1, QueueTimeout: 50 * time.Millisecond},
		exec.ExecOptions{Parallelism: 1, MorselSize: 1024})
	slowScan(t, 200*time.Microsecond) // 1024 morsels: each query holds its slot ≥ 200 ms

	ctx := context.Background()
	id, err := cl.CreateSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	const attempts = 16
	var wg sync.WaitGroup
	var ok, rejected, other int64
	var mu sync.Mutex
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := cl.Query(ctx, id, QueryRequest{
				SQL: "SELECT SUM(amount) FROM sales WHERE amount >= 0",
			})
			mu.Lock()
			defer mu.Unlock()
			var re *RejectedError
			switch {
			case err == nil:
				ok++
			case errors.As(err, &re) && re.Status == http.StatusTooManyRequests:
				rejected++
			default:
				other++
			}
		}()
	}
	wg.Wait()
	if other != 0 {
		t.Fatalf("%d queries failed with non-admission errors", other)
	}
	if ok == 0 {
		t.Fatal("no query completed under saturation")
	}
	if rejected == 0 {
		t.Fatal("no query was rejected at admission")
	}
	snap := srv.Stats()
	if snap.Queries.RejectedBusy != rejected {
		t.Fatalf("rejected_busy = %d, want %d", snap.Queries.RejectedBusy, rejected)
	}
	if snap.Active != 0 || snap.Queued != 0 {
		t.Fatalf("gauges did not return to zero: active=%d queued=%d", snap.Active, snap.Queued)
	}
}

// TestQueueWaitSpendsTheDeadline: a request's timeout_ms covers its wait
// for an execution slot. With the one slot held by a slow scan for over a
// second, a queued query with a 50 ms budget gets its 504 when the budget
// runs out — not a fresh budget once the slot frees, nor a 429 at
// QueueTimeout — and counts as timed out, not as a client cancel.
func TestQueueWaitSpendsTheDeadline(t *testing.T) {
	_, cl, srv, _ := newTestService(t, 1<<18,
		Config{MaxInFlight: 1, MaxQueue: 1, QueueTimeout: 2 * time.Second},
		exec.ExecOptions{Parallelism: 1, MorselSize: 256})
	slowScan(t, time.Millisecond) // 1024 morsels: the slow query holds its slot ≥ 1 s

	ctx := context.Background()
	id, err := cl.CreateSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT sum(amount) FROM sales WHERE qty <> 0"
	slowCtx, stopSlow := context.WithCancel(ctx)
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		_, _ = cl.Query(slowCtx, id, QueryRequest{SQL: sql})
	}()
	defer func() { stopSlow(); <-slowDone }()
	for srv.Stats().Active != 1 {
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	_, err = cl.Query(ctx, id, QueryRequest{SQL: sql, TimeoutMS: 50})
	waited := time.Since(start)
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusGatewayTimeout {
		t.Fatalf("queued query: err = %v, want a 504", err)
	}
	if waited > 500*time.Millisecond {
		t.Fatalf("queued query answered after %v, want its 50 ms deadline to end the wait", waited)
	}
	q := srv.Stats().Queries
	if q.TimedOut != 1 || q.Cancelled != 0 || q.RejectedBusy != 0 {
		t.Fatalf("timed_out=%d cancelled=%d rejected_busy=%d, want 1, 0, 0", q.TimedOut, q.Cancelled, q.RejectedBusy)
	}
}

// TestServerSessionLimit opens maxSessions sessions in process, through
// the handler with no connection: the next create gets 429 and counts as a
// busy rejection, and ending one session makes room for one more.
func TestServerSessionLimit(t *testing.T) {
	_, _, srv, _ := newTestService(t, 100, Config{}, exec.ExecOptions{})
	create := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions", nil))
		return rec
	}
	var last string
	for i := 0; i < maxSessions; i++ {
		rec := create()
		var body map[string]string
		if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &body) != nil {
			t.Fatalf("session %d: %d %s", i, rec.Code, rec.Body)
		}
		last = body["session_id"]
	}
	if rec := create(); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("session %d: %d %s, want 429", maxSessions+1, rec.Code, rec.Body)
	}
	if got := srv.Stats().Queries.RejectedBusy; got != 1 {
		t.Fatalf("rejected_busy = %d, want 1", got)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/sessions/"+last, nil))
	if rec.Code != http.StatusOK && rec.Code != http.StatusNoContent {
		t.Fatalf("end session: %d %s", rec.Code, rec.Body)
	}
	if rec := create(); rec.Code != http.StatusCreated {
		t.Fatalf("create after an end: %d %s", rec.Code, rec.Body)
	}
}

// TestServerDrainZeroLoss starts queries, begins drain mid-flight, and
// checks every admitted query completes while later arrivals get 503.
func TestServerDrainZeroLoss(t *testing.T) {
	_, cl, srv, _ := newTestService(t, 1<<20, Config{},
		exec.ExecOptions{Parallelism: 1, MorselSize: 1024})
	slowScan(t, 200*time.Microsecond) // queries stay in flight long enough to drain under
	ctx := context.Background()
	id, err := cl.CreateSession(ctx)
	if err != nil {
		t.Fatal(err)
	}

	const inFlight = 4
	errs := make(chan error, inFlight)
	for i := 0; i < inFlight; i++ {
		go func() {
			_, err := cl.Query(ctx, id, QueryRequest{
				SQL: "SELECT SUM(amount) FROM sales WHERE amount >= 0",
			})
			errs <- err
		}()
	}
	// Wait for at least one query to hold a slot, then drain.
	deadline := time.Now().Add(5 * time.Second)
	for srv.adm.active() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no query ever started")
		}
		time.Sleep(time.Millisecond)
	}
	drainCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Drain returning means all in-flight handlers finished; every accepted
	// query must have completed (zero loss) — but some of the four may have
	// arrived after the drain flag flipped and been 503ed, which is fine.
	var completed, drained int
	for i := 0; i < inFlight; i++ {
		err := <-errs
		var re *RejectedError
		switch {
		case err == nil:
			completed++
		case errors.As(err, &re) && re.Status == http.StatusServiceUnavailable:
			drained++
		default:
			t.Fatalf("in-flight query lost during drain: %v", err)
		}
	}
	if completed == 0 {
		t.Fatal("every query was rejected; drain should finish admitted work")
	}

	// New work is turned away once draining.
	if _, err := cl.Query(ctx, id, QueryRequest{SQL: "SELECT COUNT(*) FROM sales"}); !IsRejected(err) {
		t.Fatalf("query after drain: %v, want 503 rejection", err)
	}
	if _, err := cl.CreateSession(ctx); !IsRejected(err) {
		t.Fatalf("create session after drain: %v, want 503 rejection", err)
	}
	if snap := srv.Stats(); !snap.Draining || snap.Queries.RejectedDrain == 0 {
		t.Fatalf("stats after drain: draining=%v rejected_drain=%d", snap.Draining, snap.Queries.RejectedDrain)
	}
}

// TestServerResultCache checks the shared cache: a repeated exact query is
// served from cache (flagged, counted) and a data change invalidates it.
func TestServerResultCache(t *testing.T) {
	_, cl, srv, _ := newTestService(t, 10_000, Config{CacheRows: 1 << 20}, exec.ExecOptions{})
	ctx := context.Background()
	id, err := cl.CreateSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT region, SUM(amount) FROM sales GROUP BY region"
	first, err := cl.Query(ctx, id, QueryRequest{SQL: sql})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first execution claims to be cached")
	}
	second, err := cl.Query(ctx, id, QueryRequest{SQL: sql})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second execution not served from cache")
	}
	second.Cached, second.ElapsedMS = first.Cached, first.ElapsedMS
	sameResult(t, sql, second, first)

	// Loading data invalidates.
	if err := cl.LoadDemo(ctx, "ticks", 1000, 7); err != nil {
		t.Fatal(err)
	}
	third, err := cl.Query(ctx, id, QueryRequest{SQL: sql})
	if err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Fatal("cache not invalidated by data load")
	}
	snap := srv.Stats()
	if !snap.Cache.Enabled || snap.Cache.Hits != 1 {
		t.Fatalf("cache stats: %+v", snap.Cache)
	}
	tables, err := cl.Tables(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("tables = %v, want sales+ticks", tables)
	}
}

// TestServerQueryTimeout checks the per-request deadline: an aggressive
// timeout_ms on a big scan yields 504 and bumps the timed_out counter.
func TestServerQueryTimeout(t *testing.T) {
	_, cl, srv, _ := newTestService(t, 1<<21, Config{},
		exec.ExecOptions{Parallelism: 1, MorselSize: 1024})
	slowScan(t, time.Millisecond) // 2048 morsels: seconds of scan against a 1 ms deadline
	ctx := context.Background()
	id, err := cl.CreateSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.Query(ctx, id, QueryRequest{
		SQL:       "SELECT SUM(amount) FROM sales WHERE amount >= 0",
		TimeoutMS: 1,
	})
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusGatewayTimeout {
		t.Fatalf("got %v, want 504", err)
	}
	if snap := srv.Stats(); snap.Queries.TimedOut == 0 {
		t.Fatal("timed_out counter never bumped")
	}
}

// TestServerBadRequests covers the error surface: bad mode, bad SQL,
// unknown table, unknown session.
func TestServerBadRequests(t *testing.T) {
	_, cl, _, _ := newTestService(t, 100, Config{}, exec.ExecOptions{})
	ctx := context.Background()
	id, err := cl.CreateSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		req    QueryRequest
		sessID string
		status int
	}{
		{QueryRequest{SQL: "SELECT * FROM sales", Mode: "warp"}, id, http.StatusBadRequest},
		{QueryRequest{SQL: "SELEKT nope"}, id, http.StatusBadRequest},
		{QueryRequest{SQL: "SELECT * FROM nope"}, id, http.StatusNotFound},
		{QueryRequest{SQL: "SELECT * FROM sales"}, "s-missing", http.StatusNotFound},
	}
	for _, tc := range cases {
		_, err := cl.Query(ctx, tc.sessID, tc.req)
		var se *StatusError
		if !errors.As(err, &se) || se.Status != tc.status {
			t.Fatalf("%+v on %q: got %v, want HTTP %d", tc.req, tc.sessID, err, tc.status)
		}
	}
	if err := cl.EndSession(ctx, "s-missing"); err == nil {
		t.Fatal("ending unknown session succeeded")
	}
}

// TestServerAllModes runs one aggregate through every execution mode over
// HTTP, checking each returns a plausible estimate of the true sum.
func TestServerAllModes(t *testing.T) {
	_, cl, _, mirror := newTestService(t, 50_000, Config{}, exec.ExecOptions{})
	ctx := context.Background()
	id, err := cl.CreateSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT SUM(amount) FROM sales WHERE amount >= 100"
	truth, err := mirror.SQLContext(ctx, sql, core.Exact)
	if err != nil {
		t.Fatal(err)
	}
	want := truth.Column(0).Value(0).AsFloat()
	for _, mode := range []string{"exact", "cracked", "approx", "online"} {
		res, err := cl.Query(ctx, id, QueryRequest{SQL: sql, Mode: mode})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		got, ok := asFloat(res.Rows[0][0])
		if !ok {
			t.Fatalf("%s: non-numeric result %#v", mode, res.Rows[0][0])
		}
		tol := 1e-6
		if mode == "approx" || mode == "online" {
			tol = 0.2 // estimators: just sanity, accuracy is tested elsewhere
		}
		if math.Abs(got-want) > tol*math.Abs(want) {
			t.Fatalf("%s: %g, want ~%g", mode, got, want)
		}
		if res.Mode != mode {
			t.Fatalf("%s: result labelled %q", mode, res.Mode)
		}
	}
}
