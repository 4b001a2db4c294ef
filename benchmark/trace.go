package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"dex/internal/aqp"
	"dex/internal/cache"
	"dex/internal/core"
	"dex/internal/crack"
	"dex/internal/exec"
	"dex/internal/metrics"
	"dex/internal/onlineagg"
	"dex/internal/par"
	"dex/internal/protocol"
	"dex/internal/server"
	"dex/internal/shard"
	"dex/internal/sqlparse"
	"dex/internal/storage"
)

// The traced run prices each layer by calling its public functions from
// here, one client, in process, around the same op sequence the timed
// rounds play. The spans are the benchmark's own: a span is a call this file
// made, its children are the calls made inside it, and an op's layer spans
// are re-executions of the op's work, not a cut through one execution —
// reading the server's internal span tree instead is a later change.

type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1: no parent
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps spans in memory. The traced run is single-threaded, so
// the innermost open span is the parent of the next one.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int
	op    int
}

func (r *recorder) begin(name string) int {
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Op: r.op, ID: id, Parent: parent})
	r.open = append(r.open, id)
	r.spans[id].StartNS = int64(time.Since(r.t0))
	return id
}

func (r *recorder) end() {
	now := int64(time.Since(r.t0))
	id := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[id].EndNS = now
}

// child adds, inside the closed span parent, a span whose length was
// measured elsewhere (the server reports its own engine time). Only the
// length is a measurement; the span is placed at the end of its parent.
func (r *recorder) child(parent int, name string, d time.Duration) {
	end := r.spans[parent].EndNS
	r.spans = append(r.spans, span{Name: name, Op: r.op, ID: len(r.spans), Parent: parent,
		StartNS: end - int64(d), EndNS: end})
}

type spanTotal struct {
	n            int
	totalNS, own int64
}

// totals sums duration and self time (duration minus the children's) by
// span name.
func (r *recorder) totals() map[string]spanTotal {
	childNS := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			childNS[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := map[string]spanTotal{}
	for _, s := range r.spans {
		t := out[s.Name]
		t.n++
		t.totalNS += s.EndNS - s.StartNS
		t.own += s.EndNS - s.StartNS - childNS[s.ID]
		out[s.Name] = t
	}
	return out
}

// Online mode's stopping rule and batch size: core.Options' defaults,
// which engineOptions leaves in place.
const (
	onlineRelCI = 0.01
	onlineBatch = 4096
)

// traced holds what the layer pass needs besides the target.
type traced struct {
	t        *target
	rec      *recorder
	m        map[string]float64
	log      io.Writer
	opts     exec.ExecOptions
	parts    []*storage.Table // fleet: the partitions as the workers hold them
	index    *crack.Index[float64]
	catalog  *aqp.Catalog
	results  *cache.Sync[string, *server.QueryResult]
	replay   []execCall // full-table exec calls, re-run at Parallelism 1
	parNS    int64
	ops      int
	filtered int // ops with a WHERE clause

	zoneSkipped int64 // morsels the zone maps skipped in the loopback pass

	cracks, gathered, batches, frameBytes int
	readLocked, probes                    int
	processed, coverageMin                float64
}

type execCall struct {
	table *storage.Table
	q     exec.Query
}

// traceWorkload runs the traced passes and returns the per-layer metrics.
func traceWorkload(w workload, cfg runConfig) (result, error) {
	spin := spinMS()
	cal, err := newCalibration()
	if err != nil {
		return result{}, err
	}
	defer cal.close()
	host := cal.settle(3)
	t, err := newTarget(w, cfg.seed)
	if err != nil {
		return result{}, err
	}
	defer t.close()
	sessions := buildSessions(w, t, cfg.seed)
	oracle, err := buildOracle(t, sessions)
	if err != nil {
		return result{}, err
	}
	one := w
	one.clients = 1
	tr := &traced{t: t, rec: &recorder{t0: time.Now()}, m: map[string]float64{}, log: cfg.log,
		opts: engineOptions(cfg.seed).Exec, coverageMin: 1}
	tr.m["storage.encode_s"] = t.encodeS

	// Warm-up, then the loopback pass the other passes are compared with:
	// tracing off, answers checked.
	svc, err := t.newService()
	if err != nil {
		return result{}, err
	}
	runRound(svc, sessions, one, nil, nil)
	svc.close()
	if svc, err = t.newService(); err != nil {
		return result{}, err
	}
	before := svc.srv.Stats()
	base := runRound(svc, sessions, one, nil, nil)
	tr.ops = base.numOps()
	tr.serverCounters(svc, before)
	svc.close()
	verify(&base, sessions, oracle)
	var tl tally
	tl.add(base)

	// The same pass asking for the server's span tree: what tracing costs.
	if svc, err = t.newService(); err != nil {
		return result{}, err
	}
	withSpans := runRound(svc, sessions, one, nil, func(req *server.QueryRequest) { req.Trace = true })
	svc.close()
	p50, p50Spans := metrics.Quantile(base.latenciesMS(true), 0.5), metrics.Quantile(withSpans.latenciesMS(true), 0.5)
	tr.m["trace.overhead_frac"] = (p50Spans - p50) / p50

	if err := tr.handlerPass(sessions); err != nil {
		return result{}, err
	}
	tr.m["server.wire_ms"] = metrics.Mean(base.latenciesMS(true)) - tr.rec.meanMS("server.handler")
	if err := tr.layerPass(sessions); err != nil {
		return result{}, err
	}
	tr.m["host.spin_ms"] = (spin + spinMS()) / 2
	tr.m["host.factor"] = (host + cal.settle(3)) / 2
	tr.fillSpanMetrics()
	tr.printTable()
	if cfg.traceDir != "" {
		if err := tr.writeSpans(cfg.traceDir, cfg.seed); err != nil {
			return result{}, err
		}
	}
	return newResult(tl, perLayer, tr.m), nil
}

// serverCounters reads what the server, the engine and (behind a
// coordinator) the workers counted over the loopback pass. The service is
// fresh; the workers are not, so theirs is the growth since before.
func (tr *traced) serverCounters(svc *service, before server.StatsSnapshot) {
	st := svc.srv.Stats()
	tr.m["server.rejected"] = float64(st.Queries.RejectedBusy + st.Queries.RejectedDrain)
	tr.m["server.degraded"] = float64(st.Queries.Degraded)
	tr.m["server.timed_out"] = float64(st.Queries.TimedOut)
	tr.m["cache.hit_frac"] = float64(st.Cache.Hits) / float64(tr.ops)
	scanned, skipped := svc.eng.RowsScanned(), svc.eng.ZoneSkipped()
	hits, falls := svc.eng.AggKernelHits(), svc.eng.AggKernelFallbacks()
	if st.Shard != nil {
		scanned, skipped = 0, 0
		for i, sh := range st.Shard.Shards {
			scanned += sh.RowsScanned - before.Shard.Shards[i].RowsScanned
			skipped += sh.ZoneSkipped - before.Shard.Shards[i].ZoneSkipped
		}
		rpc, gather := tr.t.fleet.Coord.Histograms()
		for _, h := range rpc {
			tr.m["shard.rpc_p50_ms"] += h.Quantile(0.5) * 1e3 / float64(len(rpc))
		}
		tr.m["shard.gather_p50_ms"] = gather.Quantile(0.5) * 1e3
	}
	tr.m["exec.rows_scanned_per_op"] = float64(scanned) / float64(tr.ops)
	if hits+falls > 0 {
		tr.m["exec.agg_kernel_hit_frac"] = float64(hits) / float64(hits+falls)
	}
	tr.zoneSkipped = skipped
}

// handlerPass plays the ops straight into Server.ServeHTTP: no socket, no
// client decode. What is left of the client's latency is the wire.
func (tr *traced) handlerPass(sessions []session) error {
	_, srv, err := tr.t.newServer()
	if err != nil {
		return err
	}
	call := func(method, path string, body any) (*httptest.ResponseRecorder, error) {
		buf, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(buf)))
		return w, nil
	}
	tr.rec.op = 0
	for _, sess := range sessions {
		w, err := call(http.MethodPost, "/v1/sessions", struct{}{})
		if err != nil {
			return err
		}
		var created struct {
			SessionID string `json:"session_id"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &created); err != nil || created.SessionID == "" {
			return fmt.Errorf("handler pass: create session: status %d", w.Code)
		}
		for _, sql := range sess.sqls {
			req := server.QueryRequest{SQL: sql, Mode: tr.t.w.mode, TimeoutMS: deadline.Milliseconds()}
			handler := tr.rec.begin("server.handler")
			w, err := call(http.MethodPost, "/v1/sessions/"+created.SessionID+"/query", req)
			if err != nil {
				return err
			}
			// Only the engine's own time is read back; decoding 100 KB of
			// rows inside the span would bill the client's work to the handler.
			var res struct {
				ElapsedMS float64 `json:"elapsed_ms"`
			}
			body := w.Body.Bytes()
			tr.rec.end()
			if w.Code != http.StatusOK {
				return fmt.Errorf("handler pass: %q: status %d: %s", sql, w.Code, body)
			}
			if err := json.Unmarshal(body, &res); err != nil {
				return err
			}
			tr.rec.child(handler, "server.engine", time.Duration(res.ElapsedMS*float64(time.Millisecond)))
			tr.rec.op++
		}
	}
	tr.m["server.encode_admit_ms"] = tr.rec.meanMS("server.handler") - tr.rec.meanMS("server.engine")
	return nil
}

// layerPass re-executes every op layer by layer on a fresh engine.
func (tr *traced) layerPass(sessions []session) error {
	t := tr.t
	eng, err := t.newEngine()
	if err != nil {
		return err
	}
	if t.fleet != nil {
		sels, err := shard.Split(t.plain, shard.Spec{Table: "sales", Column: "amount", Scheme: shard.Hash, Shards: t.w.shards})
		if err != nil {
			return err
		}
		for _, sel := range sels {
			tr.parts = append(tr.parts, t.plain.Gather(sel))
		}
	}
	if t.w.mode == "cracked" {
		amount, err := t.enc.ColumnByName("amount")
		if err != nil {
			return err
		}
		tr.index = crack.New(amount.(*storage.FloatColumn).V, engineOptions(t.seed).CrackOptions)
	}
	t0 := time.Now()
	if tr.catalog, err = aqp.NewCatalog(t.enc, rand.New(rand.NewSource(t.seed)), 0.01, 0.1); err != nil {
		return err
	}
	tr.m["aqp.catalog_build_s"] = time.Since(t0).Seconds()
	tr.results, _ = cache.NewSync[string, *server.QueryResult](1 << 20)
	mode, _ := core.ParseMode(t.w.mode)

	tr.rec.op = 0
	for _, sess := range sessions {
		for _, sql := range sess.sqls {
			if err := tr.layerOp(eng, mode, sql); err != nil {
				return fmt.Errorf("layer pass: %q: %w", sql, err)
			}
			tr.rec.op++
		}
	}

	ops := float64(tr.ops)
	tr.m["crack.cracks_per_op"] = float64(tr.cracks) / ops
	if tr.index != nil {
		tr.m["crack.pieces_end"] = float64(tr.index.NumPieces())
	}
	if tr.probes > 0 {
		tr.m["crack.readlock_frac"] = float64(tr.readLocked) / float64(tr.probes)
	}
	tr.m["storage.gather_rows_per_op"] = float64(tr.gathered) / ops
	tr.m["onlineagg.batches_per_op"] = float64(tr.batches) / ops
	tr.m["onlineagg.processed_frac"] = tr.processed / ops
	tr.m["protocol.frame_kb_per_op"] = float64(tr.frameBytes) / 1024 / ops
	if t.fleet != nil {
		tr.m["shard.coverage_min"] = tr.coverageMin
	}
	if morsels := float64(tr.filtered) * math.Ceil(float64(t.w.rows)/par.DefaultMorselSize); morsels > 0 {
		tr.m["exec.zone_skipped_frac"] = float64(tr.zoneSkipped) / morsels
	}

	// The same full-table executions with one worker: what morsel
	// parallelism buys in latency (it buys nothing in CPU).
	if len(tr.replay) > 0 {
		seq := tr.opts
		seq.Parallelism = 1
		t0 := time.Now()
		for _, c := range tr.replay {
			if _, err := exec.ExecuteCtx(context.Background(), c.table, c.q, seq); err != nil {
				return err
			}
		}
		tr.m["exec.par_speedup"] = float64(time.Since(t0)) / float64(tr.parNS)
	}
	return nil
}

func (tr *traced) layerOp(eng *core.Engine, mode core.Mode, sql string) error {
	t, rec := tr.t, tr.rec
	rec.begin("op")
	defer rec.end()
	rec.begin("sqlparse.parse")
	st, err := sqlparse.Parse(sql)
	rec.end()
	if err != nil {
		return err
	}
	q := sqlparse.ExpandStar(st.Query, t.enc.Schema())
	if q.Where != nil {
		tr.filtered++
	}
	rows := 0
	switch {
	case t.fleet != nil:
		if rows, err = tr.fleetLayers(st.Table, q); err != nil {
			return err
		}
	default:
		var res *storage.Table
		rec.begin("core.exec")
		err = underDeadline(func(ctx context.Context) (err error) {
			res, err = eng.ExecuteContext(ctx, st.Table, st.Query, mode)
			return err
		})
		rec.end()
		if err != nil {
			return err
		}
		rows = res.NumRows()
		switch mode {
		case core.Cracked:
			err = tr.crackedLayers(sql, q)
		case core.Online:
			err = tr.onlineLayers(q)
		default:
			_, err = tr.execLayer(t.enc, q, true)
		}
		if err != nil {
			return err
		}
	}
	if aq, ok := estimateShape(q); ok {
		rec.begin("aqp.approx")
		_, err := tr.catalog.Approx(aq, aqp.Bound{RelErr: 0.05})
		rec.end()
		if err != nil && !errors.Is(err, aqp.ErrNoSample) {
			return err // missing the error bound is an answer; anything else is not
		}
	}
	key := "exact\x00" + sql
	rec.begin("cache.get")
	_, hit := tr.results.Get(key)
	rec.end()
	if !hit {
		val := &server.QueryResult{}
		rec.begin("cache.put")
		tr.results.Put(key, val, int64(rows)+1)
		rec.end()
	}
	return nil
}

// underDeadline runs fn under the op deadline, as the server would. A
// cancellable context also keeps exec on its morsel-granular paths, the
// ones a served query takes.
func underDeadline(fn func(context.Context) error) error {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	return fn(ctx)
}

// execLayer times exec.ExecuteCtx under a span named for the op's shape.
func (tr *traced) execLayer(table *storage.Table, q exec.Query, keep bool) (*storage.Table, error) {
	name := "exec.project"
	switch {
	case len(q.GroupBy) > 0:
		name = "exec.groupby"
	case q.HasAggregates():
		name = "exec.agg"
	case len(q.OrderBy) > 0:
		name = "exec.topk"
	}
	var res *storage.Table
	id := tr.rec.begin(name)
	err := underDeadline(func(ctx context.Context) (err error) {
		res, err = exec.ExecuteCtx(ctx, table, q, tr.opts)
		return err
	})
	tr.rec.end()
	if keep {
		tr.parNS += tr.rec.spans[id].EndNS - tr.rec.spans[id].StartNS
		tr.replay = append(tr.replay, execCall{table, q})
	}
	return res, err
}

// crackedLayers walks core's cracked path by hand: probe a benchmark-owned
// index fed the same ranges, gather the qualifying rows, execute the rest
// of the query over the gathered table.
func (tr *traced) crackedLayers(sql string, q exec.Query) error {
	st, err := parseStmt(sql)
	if err != nil {
		return err
	}
	if len(st.ranges) != 1 || st.ranges[0].col != "amount" {
		_, err := tr.execLayer(tr.t.enc, q, false) // not a crackable shape: core falls back to a scan
		return err
	}
	rec := tr.rec
	rec.begin("crack.pipeline")
	defer rec.end()
	rec.begin("crack.probe")
	rows, ps, err := tr.index.Probe(st.ranges[0].lo, st.ranges[0].hi)
	rec.end()
	if err != nil {
		return err
	}
	tr.probes++
	if ps.Lock == crack.LockRead {
		tr.readLocked++
	}
	tr.cracks = ps.Cracks
	tr.gathered += len(rows)
	rec.begin("storage.gather")
	sub := tr.t.enc.Gather(rows)
	rec.end()
	q.Where = nil
	_, err = tr.execLayer(sub, q, false)
	return err
}

func (tr *traced) onlineLayers(q exec.Query) error {
	aq, ok := estimateShape(q)
	if !ok {
		return fmt.Errorf("not an estimable shape")
	}
	rec := tr.rec
	rec.begin("onlineagg.pipeline")
	defer rec.end()
	rec.begin("onlineagg.new")
	r, err := onlineagg.New(tr.t.enc, aq, tr.t.seed+int64(rec.op))
	rec.end()
	if err != nil {
		return err
	}
	rec.begin("onlineagg.run")
	var snaps []onlineagg.Snapshot
	err = underDeadline(func(ctx context.Context) (err error) {
		snaps, err = r.RunUntilCtx(ctx, onlineRelCI, onlineBatch)
		return err
	})
	rec.end()
	tr.batches += len(snaps)
	tr.processed += r.Progress()
	return err
}

// fleetLayers times the coordinator whole, then walks its path by hand
// over the benchmark's own copy of the partitions: plan, per-shard
// partials, the frame each partial would cross the wire in, merge.
func (tr *traced) fleetLayers(table string, q exec.Query) (int, error) {
	rec := tr.rec
	var res shard.Result
	rec.begin("shard.execute")
	err := underDeadline(func(ctx context.Context) (err error) {
		res, err = tr.t.fleet.Coord.Execute(ctx, table, q, core.Exact)
		return err
	})
	rec.end()
	if err != nil {
		return 0, err
	}
	tr.coverageMin = math.Min(tr.coverageMin, res.Coverage)

	rec.begin("shard.pipeline")
	defer rec.end()
	rec.begin("shard.plan")
	plan, err := shard.PlanQuery(q, false)
	rec.end()
	if err != nil {
		return 0, err
	}
	partials := make([]*storage.Table, len(tr.parts))
	for i, part := range tr.parts {
		if partials[i], err = tr.execLayer(part, plan.Push, true); err != nil {
			return 0, err
		}
	}
	frames := make([][]byte, len(partials))
	rec.begin("protocol.encode")
	for i, p := range partials {
		if frames[i], err = json.Marshal(protocol.FromTable(p)); err != nil {
			break
		}
		tr.frameBytes += len(frames[i])
	}
	rec.end()
	if err != nil {
		return 0, err
	}
	rec.begin("protocol.decode")
	for i, f := range frames {
		var wt protocol.WireTable
		if err = json.Unmarshal(f, &wt); err != nil {
			break
		}
		if partials[i], err = wt.ToTable(); err != nil {
			break
		}
	}
	rec.end()
	if err != nil {
		return 0, err
	}
	rec.begin("shard.merge")
	_, err = plan.Merge(partials)
	rec.end()
	return res.Table.NumRows(), err
}

// estimateShape is the single-aggregate, at-most-one-group shape the
// approximate modes serve (core's approxShape, which is not exported).
func estimateShape(q exec.Query) (aqp.Query, bool) {
	var agg *exec.SelectItem
	for i := range q.Select {
		if q.Select[i].Agg != exec.AggNone {
			if agg != nil {
				return aqp.Query{}, false
			}
			agg = &q.Select[i]
		}
	}
	if agg == nil || len(q.GroupBy) > 1 {
		return aqp.Query{}, false
	}
	aq := aqp.Query{Agg: agg.Agg, Col: agg.Col, Where: q.Where}
	if len(q.GroupBy) == 1 {
		aq.GroupBy = q.GroupBy[0]
	}
	return aq, true
}

// meanMS is the mean length of the spans called name, in ms (0 if none).
func (r *recorder) meanMS(name string) float64 {
	t := r.totals()[name]
	if t.n == 0 {
		return 0
	}
	return float64(t.totalNS) / float64(t.n) / 1e6
}

// fillSpanMetrics sets every per-layer time metric that is a span's mean
// length: "crack.probe_ms" is the mean of the "crack.probe" spans.
func (tr *traced) fillSpanMetrics() {
	totals := tr.rec.totals()
	for _, def := range perLayer {
		if _, done := tr.m[def.name]; done {
			continue
		}
		span, perUnit := strings.CutSuffix(def.name, "_ms")
		nsPerUnit := 1e6
		if !perUnit {
			span, perUnit = strings.CutSuffix(def.name, "_us")
			nsPerUnit = 1e3
		}
		if t := totals[span]; perUnit && t.n > 0 {
			tr.m[def.name] = float64(t.totalNS) / float64(t.n) / nsPerUnit
		}
	}
}

func (tr *traced) printTable() {
	totals := tr.rec.totals()
	names := make([]string, 0, len(totals))
	for name := range totals {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(tr.log, "%-22s %7s %12s %12s %12s\n", "span", "n", "total_ms", "self_ms", "mean_ms")
	for _, name := range names {
		t := totals[name]
		fmt.Fprintf(tr.log, "%-22s %7d %12.3f %12.3f %12.4f\n", name, t.n,
			float64(t.totalNS)/1e6, float64(t.own)/1e6, float64(t.totalNS)/1e6/float64(t.n))
	}
}

func (tr *traced) writeSpans(dir string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(map[string]any{"workload": tr.t.w.name, "seed": seed, "spans": tr.rec.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+tr.t.w.name+".json"), buf, 0o644)
}
