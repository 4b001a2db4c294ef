// Package server is the networked query service over the exploration
// engine — the piece that turns dex from a single-process library into a
// shared multi-user system. It is an HTTP/JSON service with per-connection
// sessions (create/query/suggest/end), per-request deadlines and
// client-disconnect cancellation plumbed as context.Context down to the
// morsel scheduler, admission control (bounded in-flight queries, a bounded
// wait queue with timeout, immediate 429 beyond that), an optional shared
// result cache, graceful drain, and an /admin/stats endpoint with per-mode
// latency histograms and live rows-scanned counters.
//
// Endpoints:
//
//	POST   /v1/sessions              -> {"session_id": ...}
//	POST   /v1/sessions/{id}/query   {"sql","mode","timeout_ms"} -> result
//	POST   /v1/sessions/{id}/suggest {"k"} -> {"suggestions": [...]}
//	DELETE /v1/sessions/{id}         archive the session
//	GET    /v1/tables                list tables
//	POST   /v1/tables/load           {"name","path"} load a CSV server-side
//	POST   /v1/tables/demo           {"kind","rows","seed"} synthesize data
//	GET    /admin/stats              StatsSnapshot
//	GET    /admin/slow               last N slow-query traces
//	GET    /metrics                  Prometheus text exposition
//	GET    /debug/pprof/*            net/http/pprof (behind Config.Pprof)
//	GET    /healthz                  200 ok / 503 draining
//
// Observability: a query body with "trace": true returns the span tree
// of that execution in the response; queries slower than
// Config.SlowThreshold are kept (with their traces) in a bounded ring
// served at /admin/slow; Config.RequestLog emits one structured line per
// query. See internal/trace and DESIGN.md's Observability section.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dex/internal/cache"
	"dex/internal/core"
	"dex/internal/fault"
	"dex/internal/shard"
	"dex/internal/sqlparse"
	"dex/internal/trace"
	"dex/internal/workload"
)

// fpHandler injects request-handler faults at the top of the query path:
// latency policies make slow handlers, error policies fail the request as
// an internal error before the engine runs.
var fpHandler = fault.Register("server/handler")

// ErrDraining is returned (as HTTP 503) for new queries once drain begins.
var ErrDraining = errors.New("server: draining")

// Config tunes the service.
type Config struct {
	// MaxInFlight bounds concurrently executing queries (0 = GOMAXPROCS).
	MaxInFlight int
	// MaxQueue bounds queries waiting for a slot (0 = 2*MaxInFlight;
	// negative = no queue, reject immediately when saturated).
	MaxQueue int
	// QueueTimeout is the longest a query waits in the queue before a 429
	// (default 2s).
	QueueTimeout time.Duration
	// DefaultTimeout is the per-query deadline when the client sends none
	// (default 30s). MaxTimeout caps client-requested deadlines (default 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// CacheRows is the shared result cache budget in rows; 0 disables the
	// cache. Only Exact-mode results are cached (the adaptive and
	// approximate modes have useful side effects or non-deterministic
	// output); any data change invalidates the whole cache.
	CacheRows int64
	// MaxSessions bounds live sessions (default 4096).
	MaxSessions int
	// MaxBody caps request body size in bytes; larger bodies get 413
	// (default 1 MiB).
	MaxBody int64
	// Log receives request-level errors (default: log.Default()).
	Log *log.Logger
	// SlowThreshold keeps any query at or above this duration (whatever
	// its outcome) in the /admin/slow trace ring. 0 disables the ring;
	// per-request "trace": true still works either way.
	SlowThreshold time.Duration
	// SlowRing is how many slow-query traces the ring retains (default 64).
	SlowRing int
	// Pprof mounts net/http/pprof under /debug/pprof/ when set.
	Pprof bool
	// RequestLog, when non-nil, gets one structured line per query request
	// (session, mode, outcome, duration, rows).
	RequestLog *slog.Logger
	// Shard, when set, makes this server a cluster coordinator: single-table
	// queries against the sharded table scatter across the worker fleet and
	// gather merged (possibly degraded) results; everything else — joins,
	// other tables, suggestions — runs on the local engine as before.
	Shard *shard.Coordinator
}

func (c *Config) fill() {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.MaxQueue == 0:
		c.MaxQueue = 2 * c.MaxInFlight
	case c.MaxQueue < 0:
		c.MaxQueue = 0
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 2 * time.Second
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 4096
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 1 << 20
	}
	if c.Log == nil {
		c.Log = log.Default()
	}
	if c.SlowRing <= 0 {
		c.SlowRing = 64
	}
}

// Server is the query service. Create with New, serve via ServeHTTP (it is
// an http.Handler), stop with Drain.
type Server struct {
	eng *core.Engine
	cfg Config
	adm *admission
	st  *stats

	results *cache.Sync[string, *answer]

	// slow retains traces of queries exceeding cfg.SlowThreshold; nil when
	// the threshold is unset.
	slow *trace.Ring

	draining atomic.Bool

	// drainMu guards the in-flight count against the drain transition: a
	// plain WaitGroup is not enough, because Add racing Wait around zero is
	// undefined (and the race detector says so) — a request could slip in
	// after Wait returned and outlive a "clean" drain. enter/exit/Drain
	// make admission-vs-drain a single atomic decision.
	drainMu  sync.Mutex
	inflight int
	drained  chan struct{} // created by Drain, closed when inflight hits 0

	mu       sync.Mutex
	sessions map[string]*core.Session
	seq      int64
	salt     uint32
	// idem maps Idempotency-Key headers of session creates to the session
	// id they produced, so a client retrying a lost create response gets
	// the same session instead of leaking a fresh one. Bounded FIFO.
	idem      map[string]string
	idemOrder []string

	mux *http.ServeMux
}

// maxIdemKeys bounds the idempotency-key memory (FIFO eviction).
const maxIdemKeys = 8192

// New wires a service around an engine whose tables the caller has already
// loaded (or will load through /v1/tables endpoints).
func New(eng *core.Engine, cfg Config) *Server {
	cfg.fill()
	s := &Server{
		eng:      eng,
		cfg:      cfg,
		adm:      newAdmission(cfg.MaxInFlight, cfg.MaxQueue, cfg.QueueTimeout),
		st:       newStats(),
		sessions: map[string]*core.Session{},
		idem:     map[string]string{},
		salt:     rand.Uint32(),
		mux:      http.NewServeMux(),
	}
	if cfg.CacheRows > 0 {
		s.results, _ = cache.NewSync[string, *answer](cfg.CacheRows)
	}
	if cfg.SlowThreshold > 0 {
		s.slow = trace.NewRing(cfg.SlowRing)
	}
	s.mux.HandleFunc("POST /v1/sessions", s.handleCreateSession)
	s.mux.HandleFunc("POST /v1/sessions/{id}/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/sessions/{id}/suggest", s.handleSuggest)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleEndSession)
	s.mux.HandleFunc("GET /v1/tables", s.handleTables)
	s.mux.HandleFunc("POST /v1/tables/load", s.handleLoad)
	s.mux.HandleFunc("POST /v1/tables/demo", s.handleDemo)
	s.mux.HandleFunc("GET /admin/stats", s.handleStats)
	s.mux.HandleFunc("GET /admin/slow", s.handleSlow)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	if cfg.Pprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// ServeHTTP dispatches to the service mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Drain begins graceful shutdown: new queries are rejected with 503 while
// every admitted or queued query runs to completion. It returns when the
// last in-flight request finishes or ctx expires (the error then is
// ctx.Err(); in-flight queries keep their own deadlines either way).
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining.Store(true)
	if s.drained == nil {
		s.drained = make(chan struct{})
		if s.inflight == 0 {
			close(s.drained)
		}
	}
	done := s.drained
	s.drainMu.Unlock()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// enter admits one tracked request unless a drain has begun. Checking the
// flag and bumping the count under one lock means Drain's "no new work"
// line is exact: after Drain observes the count it can only go down.
func (s *Server) enter() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.inflight++
	return true
}

func (s *Server) exit() {
	s.drainMu.Lock()
	s.inflight--
	// Once draining, enter admits nothing, so the count strictly falls and
	// crosses zero at most once — the close below cannot double-fire.
	if s.inflight == 0 && s.drained != nil {
		close(s.drained)
	}
	s.drainMu.Unlock()
}

// Draining reports whether drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Stats returns the same snapshot /admin/stats serves.
func (s *Server) Stats() StatsSnapshot {
	s.mu.Lock()
	activeSessions := len(s.sessions)
	s.mu.Unlock()
	var cs *cache.Stats
	var entries int
	var used int64
	if s.results != nil {
		st := s.results.Stats()
		cs, entries, used = &st, s.results.Len(), s.results.Used()
	}
	snap := s.st.snapshot(activeSessions, cs, entries, used)
	snap.Active = s.adm.active()
	snap.Queued = s.adm.queued()
	snap.Draining = s.draining.Load()
	snap.RowsScanned = s.eng.RowsScanned()
	snap.ZoneSkipped = s.eng.ZoneSkipped()
	snap.IndexMorsels = s.eng.IndexMorsels()
	snap.CellQueries = s.eng.CellQueries()
	snap.AggKernelHits = s.eng.AggKernelHits()
	snap.AggKernelFallbacks = s.eng.AggKernelFallbacks()
	if s.cfg.Shard != nil {
		ss := s.cfg.Shard.Snapshot()
		snap.Shard = &ss
	}
	return snap
}

// ---- protocol types ----

// QueryRequest is the /query body.
type QueryRequest struct {
	SQL       string `json:"sql"`
	Mode      string `json:"mode,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
	// Trace asks the server to record per-stage spans for this query and
	// return the span tree in the response.
	Trace bool `json:"trace,omitempty"`
}

// QueryResult is the /query response as a client decodes it. The server
// never builds one: it renders the same JSON straight from the result
// table (encode.go).
type QueryResult struct {
	Columns   []string `json:"columns"`
	Types     []string `json:"types"`
	Rows      [][]any  `json:"rows"`
	Mode      string   `json:"mode"`
	ElapsedMS float64  `json:"elapsed_ms"`
	Cached    bool     `json:"cached,omitempty"`
	// Degraded marks an exact query that overran its deadline and was
	// answered with a sampled approximation (see core.Answer) — or, on a
	// sharded table, a partial answer merged from the surviving shards.
	Degraded bool `json:"degraded,omitempty"`
	// Coverage is the fraction of the sharded table's rows behind this
	// answer (1.0 on a healthy fleet, < 1 when Degraded). Absent on
	// non-sharded queries.
	Coverage float64 `json:"coverage,omitempty"`
	// Trace is the span tree of this execution, present when the request
	// set "trace": true.
	Trace *trace.SpanJSON `json:"trace,omitempty"`
}

// Suggestion is one recommended next query.
type Suggestion struct {
	Fragments []string `json:"fragments"`
	Score     float64  `json:"score"`
}

// errorBody is every non-200 payload.
type errorBody struct {
	Error        string `json:"error"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// ---- handlers ----

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.reject(w, http.StatusServiceUnavailable, ErrDraining, &s.st.rejDrain)
		return
	}
	key := r.Header.Get("Idempotency-Key")
	s.mu.Lock()
	// Session create is the one non-idempotent call in the API: a client
	// that retries a lost response would otherwise leak sessions. With an
	// Idempotency-Key the replay returns the original session id.
	if key != "" {
		if id, ok := s.idem[key]; ok {
			s.mu.Unlock()
			writeJSON(w, http.StatusOK, map[string]string{"session_id": id})
			return
		}
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		s.reject(w, http.StatusTooManyRequests, fmt.Errorf("server: session limit %d reached", s.cfg.MaxSessions), &s.st.rejBusy)
		return
	}
	s.seq++
	id := fmt.Sprintf("s%08x-%d", s.salt, s.seq)
	s.sessions[id] = s.eng.NewSession()
	if key != "" {
		if len(s.idemOrder) >= maxIdemKeys {
			delete(s.idem, s.idemOrder[0])
			s.idemOrder = s.idemOrder[1:]
		}
		s.idem[key] = id
		s.idemOrder = append(s.idemOrder, key)
	}
	s.mu.Unlock()
	s.st.count(&s.st.sessionsCreated)
	writeJSON(w, http.StatusCreated, map[string]string{"session_id": id})
}

func (s *Server) session(r *http.Request) (*core.Session, string, bool) {
	id := r.PathValue("id")
	s.mu.Lock()
	sess, ok := s.sessions[id]
	s.mu.Unlock()
	return sess, id, ok
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if !s.enter() {
		s.reject(w, http.StatusServiceUnavailable, ErrDraining, &s.st.rejDrain)
		return
	}
	defer s.exit()
	if err := fpHandler.Hit(); err != nil {
		s.st.count(&s.st.injected)
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	sess, sid, ok := s.session(r)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown session"})
		return
	}
	var req QueryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.SQL == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "body must be JSON with a non-empty \"sql\""})
		return
	}
	mode, err := core.ParseMode(req.Mode)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}

	// Tracing is armed per request ("trace": true) or service-wide by the
	// slow-query ring; untraced queries never allocate a span, and every
	// layer below sees a nil span through the plain context.
	start := time.Now()
	ctx := r.Context()
	var root *trace.Span
	if req.Trace || s.slow != nil {
		ctx, root = trace.Start(ctx, "query")
		root.SetStr("session", sid)
		root.SetStr("mode", mode.String())
	}
	outcome := "completed"
	rows := 0
	defer func() {
		total := time.Since(start)
		s.logRequest(sid, mode.String(), outcome, total, rows)
		if root != nil {
			root.End()
			if s.slow != nil && total >= s.cfg.SlowThreshold {
				s.slow.Add(trace.Entry{
					Time:      start,
					Session:   sid,
					SQL:       req.SQL,
					Mode:      mode.String(),
					Outcome:   outcome,
					ElapsedMS: float64(total.Microseconds()) / 1e3,
					Trace:     root.JSON(),
				})
			}
		}
	}()

	// Serve from the shared result cache before burning an execution slot.
	cacheKey := ""
	if s.results != nil && mode == core.Exact {
		cacheKey = "exact\x00" + req.SQL
		csp := root.Child("cache_lookup")
		lookStart := time.Now()
		hit, hitOK := s.results.Get(cacheKey)
		lookup := time.Since(lookStart)
		csp.SetBool("hit", hitOK)
		csp.End()
		if hitOK {
			// The original execution's latency is meaningless for a hit:
			// report the lookup cost the client actually paid, and observe
			// it under the dedicated "cached" series — never the engine
			// mode's histogram, which must hold engine executions only.
			s.st.observe(statCached, lookup, true)
			outcome, rows = "cache_hit", hit.table.NumRows()
			writeAnswer(w, root, req.Trace, hit, lookup, true)
			return
		}
	}

	// Admission control: bounded in-flight, bounded queue, reject beyond.
	asp := root.Child("admission")
	err = s.adm.acquire(ctx)
	asp.End()
	if err != nil {
		switch {
		case errors.Is(err, ErrQueueFull), errors.Is(err, ErrQueueTimeout):
			outcome = "rejected"
			s.reject(w, http.StatusTooManyRequests, err, &s.st.rejBusy)
		default: // client gave up while queued
			outcome = "cancelled"
			s.st.count(&s.st.cancelled)
		}
		return
	}
	defer s.adm.release()

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	// r.Context() is cancelled when the client disconnects; the deadline
	// layers the per-request budget on top. Both propagate through
	// core -> exec -> par and stop the morsel scheduler.
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	execStart := time.Now()
	var ans *answer
	if sq, routed := s.routeShard(req.SQL); routed {
		res, rerr := s.cfg.Shard.Execute(ctx, sq.Table, sq.Query, mode)
		if rerr != nil {
			outcome = s.queryError(w, r, rerr)
			return
		}
		// The distributed path bypasses the session's engine but the query
		// still shapes this session's recommendations.
		sess.Record(sq.Query)
		ans = &answer{table: res.Table, mode: res.Mode.String(), degraded: res.Degraded, coverage: res.Coverage}
	} else {
		a, aerr := sess.AnswerContext(ctx, req.SQL, mode)
		if aerr != nil {
			outcome = s.queryError(w, r, aerr)
			return
		}
		ans = &answer{table: a.Table, mode: a.Mode.String(), degraded: a.Degraded}
	}
	elapsed := time.Since(execStart)
	rows = ans.table.NumRows()
	// Degraded answers are approximations (or shard partials); they must
	// never seed the exact result cache.
	if cacheKey != "" && !ans.degraded {
		s.results.Put(cacheKey, ans, int64(rows)+1)
	}
	if ans.degraded {
		s.st.count(&s.st.degraded)
		outcome = "degraded"
	}
	s.st.observe(mode.String(), elapsed, false)
	writeAnswer(w, root, req.Trace, ans, elapsed, false)
}

// routeShard decides whether a query takes the distributed path: the
// server has a coordinator, the SQL parses, it is single-table, and the
// table is the sharded one. Everything else (including SQL that fails to
// parse here) falls through to the local engine, which owns error
// reporting.
func (s *Server) routeShard(sql string) (*sqlparse.Statement, bool) {
	if s.cfg.Shard == nil {
		return nil, false
	}
	st, err := sqlparse.Parse(sql)
	if err != nil || st.JoinTable != "" || st.Table != s.cfg.Shard.Table() {
		return nil, false
	}
	return st, true
}

// logRequest emits the one structured line per query request when
// Config.RequestLog is set.
func (s *Server) logRequest(session, mode, outcome string, d time.Duration, rows int) {
	if s.cfg.RequestLog == nil {
		return
	}
	s.cfg.RequestLog.LogAttrs(context.Background(), slog.LevelInfo, "query",
		slog.String("session", session),
		slog.String("mode", mode),
		slog.String("outcome", outcome),
		slog.Duration("elapsed", d),
		slog.Int("rows", rows))
}

// decodeBody decodes a JSON request body under the configured size cap,
// writing the typed 4xx response itself on failure: 413 for an oversized
// body, 400 for malformed JSON.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorBody{Error: fmt.Sprintf("request body exceeds %d bytes", mbe.Limit)})
		} else {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "malformed JSON body: " + err.Error()})
		}
		return false
	}
	return true
}

// queryError classifies a failed query and returns the outcome label the
// request log and slow ring record: client disconnects count as
// cancelled (there is no one left to answer), a context.Canceled with
// the client still connected and no deadline fired is an engine bug and
// a 500 with its own counter, deadline overruns are 504, unknown tables
// 404, injected faults 500 (the infrastructure failed, not the query),
// and anything else the engine rejects is a 400 — the engine's remaining
// errors are user-query errors by construction.
func (s *Server) queryError(w http.ResponseWriter, r *http.Request, err error) string {
	switch {
	case errors.Is(err, fault.ErrInjected):
		s.st.count(&s.st.injected)
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return "injected"
	case errors.Is(err, shard.ErrAllShardsFailed):
		// The whole fleet is unreachable — infrastructure down, not a bad
		// query; there is no partial left to degrade to.
		s.st.count(&s.st.failed)
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return "shard_failed"
	case errors.Is(err, context.Canceled):
		if r.Context().Err() != nil {
			s.st.count(&s.st.cancelled)
			return "cancelled"
		}
		// Nothing external cancelled this query, yet the engine returned
		// context.Canceled: that is an internal failure, not a user error.
		s.st.count(&s.st.cancelledInternal)
		writeJSON(w, http.StatusInternalServerError,
			errorBody{Error: "internal: query cancelled with no client disconnect or deadline: " + err.Error()})
		return "internal_cancel"
	case errors.Is(err, context.DeadlineExceeded):
		s.st.count(&s.st.timedOut)
		writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: "query deadline exceeded"})
		return "timeout"
	case errors.Is(err, core.ErrNoSuchTable):
		s.st.count(&s.st.failed)
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
		return "failed"
	default:
		s.st.count(&s.st.failed)
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return "failed"
	}
}

func (s *Server) handleSuggest(w http.ResponseWriter, r *http.Request) {
	if !s.enter() {
		s.reject(w, http.StatusServiceUnavailable, ErrDraining, &s.st.rejDrain)
		return
	}
	defer s.exit()
	sess, _, ok := s.session(r)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown session"})
		return
	}
	var req struct {
		K int `json:"k"`
	}
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.K <= 0 {
		req.K = 3
	}
	sugs, err := sess.SuggestNext(req.K)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	out := make([]Suggestion, 0, len(sugs))
	for _, sg := range sugs {
		out = append(out, Suggestion{Fragments: sg.Fragments, Score: sg.Score})
	}
	writeJSON(w, http.StatusOK, map[string]any{"suggestions": out})
}

func (s *Server) handleEndSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sess, ok := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown session"})
		return
	}
	sess.End()
	s.st.count(&s.st.sessionsEnded)
	writeJSON(w, http.StatusOK, map[string]string{"status": "ended"})
}

func (s *Server) handleTables(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"tables": s.eng.Tables()})
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.reject(w, http.StatusServiceUnavailable, ErrDraining, &s.st.rejDrain)
		return
	}
	var req struct {
		Name string `json:"name"`
		Path string `json:"path"`
	}
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Name == "" || req.Path == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "body must be JSON with \"name\" and \"path\""})
		return
	}
	if err := s.eng.LoadCSV(req.Name, req.Path); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	s.invalidateCache()
	writeJSON(w, http.StatusOK, map[string]string{"status": "loaded", "table": req.Name})
}

func (s *Server) handleDemo(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.reject(w, http.StatusServiceUnavailable, ErrDraining, &s.st.rejDrain)
		return
	}
	var req struct {
		Kind string `json:"kind"`
		Rows int    `json:"rows"`
		Seed int64  `json:"seed"`
	}
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Rows <= 0 {
		req.Rows = 100_000
	}
	if req.Rows > 10_000_000 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "rows capped at 10M"})
		return
	}
	t, err := workload.Demo(req.Kind, rand.New(rand.NewSource(req.Seed)), req.Rows)
	if err == nil {
		err = s.eng.Register(t)
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	s.invalidateCache()
	writeJSON(w, http.StatusOK, map[string]any{"status": "loaded", "table": t.Name(), "rows": t.NumRows()})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleSlow serves the retained slow-query traces, newest first. With
// no SlowThreshold configured the ring is off and the list is empty.
func (s *Server) handleSlow(w http.ResponseWriter, _ *http.Request) {
	entries := []trace.Entry{}
	var threshold string
	if s.slow != nil {
		entries = s.slow.Snapshot()
		threshold = s.cfg.SlowThreshold.String()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"threshold": threshold,
		"slow":      entries,
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// ---- helpers ----

func (s *Server) invalidateCache() {
	if s.results != nil {
		s.results.Clear()
	}
}

// reject writes a load-shedding response with a Retry-After hint and bumps
// the matching counter.
func (s *Server) reject(w http.ResponseWriter, status int, err error, counter *int64) {
	s.st.count(counter)
	retry := s.cfg.QueueTimeout
	w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(retry.Seconds()))))
	writeJSON(w, status, errorBody{Error: err.Error(), RetryAfterMS: retry.Milliseconds()})
}

// writeJSON marshals before touching the ResponseWriter: once the status
// line is out there is no way to signal an encode failure, and a 200 with
// an empty body reaches clients as a bare io.EOF they cannot classify
// (the chaos harness caught exactly that, via ±Inf CI values). A payload
// that will not marshal becomes a typed 500 instead.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		buf, _ = json.Marshal(errorBody{Error: "response encoding failed: " + err.Error()})
	}
	writeBody(w, status, append(buf, '\n'))
}
