// Package core is the engine facade: it wires registered tables, the
// adaptive cracking indexes, sampled estimates (AQP and online
// aggregation) and in-situ raw tables behind one query entry point with
// selectable execution modes — the "exploration-ready database system" the
// tutorial's future section calls for, in miniature.
package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

	"dex/internal/aqp"
	"dex/internal/crack"
	"dex/internal/exec"
	"dex/internal/expr"
	"dex/internal/onlineagg"
	"dex/internal/rawload"
	"dex/internal/recommend"
	"dex/internal/sqlparse"
	"dex/internal/storage"
	"dex/internal/trace"
)

// Package-level sentinel errors.
var (
	ErrBadMode     = errors.New("core: unknown execution mode")
	ErrNotApprox   = errors.New("core: query shape not supported by approximate modes (need exactly one aggregate, at most one GROUP BY column)")
	ErrNoSuchTable = errors.New("core: no such table")
	ErrTableExists = errors.New("core: table already exists")
)

// Mode selects how a query executes.
type Mode uint8

// Execution modes.
const (
	// Exact executes the query fully.
	Exact Mode = iota
	// Cracked routes eligible range predicates through the adaptive
	// cracker index, building it as a side effect (adaptive indexing).
	Cracked
	// Approx answers aggregate queries from a random sample with
	// confidence intervals (AQP): Online mode's runner, stopped at a 5 %
	// relative error or a tenth of the rows, whichever comes first.
	Approx
	// Online runs online aggregation until the relative CI target is met.
	// An aggregate folds the bucket cells exact mode folds as the exact
	// part and samples only the candidate rows exact mode refines — all of
	// them in one batch when they fit, exactly; other shapes walk the rows
	// in a keyed random order.
	Online
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Exact:
		return "exact"
	case Cracked:
		return "cracked"
	case Approx:
		return "approx"
	case Online:
		return "online"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// The approximate modes' fixed targets: Approx mode's relative-error bound
// and its row cap, a 1/approxShare share of the table's rows; Online mode's
// stopping rule — every group's ci95 within onlineRelCI of its estimate;
// and the batch of rows both read between checks.
const (
	approxRelErr = 0.05
	approxShare  = 10
	onlineRelCI  = 0.01
	onlineBatch  = 4096
)

// Options configures an Engine. Approx mode's relative-error bound and row
// cap and Online mode's stopping rule and batch are fixed: approxRelErr
// (0.05), a tenth of the rows (approxShare), onlineRelCI (0.01) and
// onlineBatch (4096 rows).
type Options struct {
	Seed int64
	// CrackOptions configures the adaptive indexes: the crackers of the
	// value sub-buckets a cracked query's bounds fall in.
	CrackOptions crack.Options
	// Exec tunes the execution pipeline used by the Exact mode, the
	// post-join query, and the post-probe stage of Cracked mode (the crack
	// probe itself synchronizes inside the index; its row ids then feed the
	// pipeline as a selection vector), and the index plan the approximate
	// modes take their cells and candidates from. Their runner itself reads
	// its rows sequentially, in an order the query's seed fixes, so a fixed
	// Seed replays its answers. Its Counters are the engine's own, whatever
	// the caller sets: RowsScanned and its siblings read them.
	Exec exec.ExecOptions
	// Degrade enables graceful degradation: an Exact or Cracked query that
	// exceeds its deadline returns Approx mode's answer, tagged Degraded,
	// instead of a DeadlineExceeded error, when its shape allows it
	// (exactly one aggregate, at most one GROUP BY column — the shapes
	// Approx mode serves). The estimate runs past the expired deadline,
	// bounded by Approx mode's own stopping rule: a 5 % relative error or
	// a tenth of the rows. Client cancellation never degrades: a
	// disconnected client is not waiting for any answer.
	Degrade bool
}

// Engine is the exploration engine. Cracked-mode probes need no
// engine-level lock: each crack.Index carries its own RWMutex, probes that
// align with existing piece boundaries share a read lock, and only probes
// that must reorganize a bucket escalate to the write lock — so queries
// against a converged index (or distinct indexes) run fully in parallel.
// Engine.mu is never held while a probe or a stats read waits on a
// cracker's lock.
type Engine struct {
	// tmu guards tables alone: a lookup never waits behind a build on mu.
	tmu    sync.RWMutex
	tables map[string]*version
	// mu guards the versions' derived state and the fields below.
	mu      sync.Mutex
	opt     Options
	rng     *rand.Rand
	rowVecs [][]int // idle row vectors: sampled strata and batches, cracked edge rows
	// counters are what every query's pipeline counts into (opt.Exec's).
	counters exec.Counters
	// relCI is Online mode's stopping rule and batch both approximate
	// modes' batch size: onlineRelCI and onlineBatch, which in-package
	// tests lower to reach runs of many batches.
	relCI float64
	batch int
	// pastSessions archives ended sessions for query recommendation.
	pastSessions []recommend.Session
}

// version is one registration of a table, in memory or in situ, with the
// state built from its rows. A query resolves its version once and reads
// and builds everything there, so what a query that Replace overtakes
// builds stays with the rows it started on. Engine.mu guards the derived
// fields. (Not a slot on storage.Table, which could hold it only as an
// any: crack imports storage.)
type version struct {
	t       *storage.Table          // nil for an in-situ table
	raw     *rawload.RawTable       // nil for an in-memory table
	cracks  map[crackKey]cracker    // a column's value sub-bucket → its cracker
	touches map[crackKey]touchCount // a sub-bucket → its touches while it has no cracker
}

// New creates an engine.
func New(opt Options) *Engine {
	e := &Engine{
		rng:    rand.New(rand.NewSource(opt.Seed)),
		tables: map[string]*version{},
		relCI:  onlineRelCI,
		batch:  onlineBatch,
	}
	// The engine always counts: the service layer reads the scanned-row
	// counter live to tell a progressing query from a stalled one, and the
	// per-morsel atomic add is noise against the scan itself.
	opt.Exec.Counters = &e.counters
	e.opt = opt
	return e
}

// Register adds an in-memory table in its encoded form: columns the
// heuristics select (low-cardinality strings, clustered ints) are
// dictionary- or run-length-coded, which is what the code-space predicate
// kernels and the dense dict group-by run on. Encoding is an optimization
// only — an encode error (for example one injected at the
// storage/segment-encode seam) keeps the plain table and the load still
// succeeds — and idempotent: an already-encoded table registers as is. A
// name already taken fails with ErrTableExists.
func (e *Engine) Register(t *storage.Table) error {
	return e.store(t.Name(), &version{t: encoded(t)}, false)
}

func encoded(t *storage.Table) *storage.Table {
	enc, st, err := storage.EncodeTable(t, storage.EncodeOptions{})
	if err != nil || st.Dict+st.RLE == 0 {
		return t
	}
	return enc
}

// Replace registers t as a new version of its name, overwriting any
// previous one; queries already running finish on the old version, and
// what they build stays there. Shard workers use it when a re-partition
// reassigns their slice of a table.
func (e *Engine) Replace(t *storage.Table) {
	_ = e.store(t.Name(), &version{t: encoded(t)}, true) // replacing cannot fail
}

// store makes v name's version; a taken name is ErrTableExists unless replace.
func (e *Engine) store(name string, v *version, replace bool) error {
	v.cracks, v.touches = map[crackKey]cracker{}, map[crackKey]touchCount{}
	e.tmu.Lock()
	defer e.tmu.Unlock()
	if _, ok := e.tables[name]; ok && !replace {
		return fmt.Errorf("%q: %w", name, ErrTableExists)
	}
	e.tables[name] = v
	return nil
}

// lookup resolves a name to its current version.
func (e *Engine) lookup(name string) (*version, error) {
	e.tmu.RLock()
	v, ok := e.tables[name]
	e.tmu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%q: %w", name, ErrNoSuchTable)
	}
	return v, nil
}

// RowsScanned returns the engine's cumulative scanned-row count: rows
// visited by predicate evaluation and aggregate accumulation across all
// queries so far. It advances live, morsel by morsel, while queries run —
// the observability signal /admin/stats exposes and the cancellation tests
// watch stop.
func (e *Engine) RowsScanned() int64 {
	return e.counters.Scanned.Load()
}

// ZoneSkipped returns the engine's cumulative count of morsels the value
// index skipped whole, as holding no candidate: never scanned.
func (e *Engine) ZoneSkipped() int64 {
	return e.counters.IndexSkipped.Load()
}

// IndexMorsels returns the engine's cumulative count of morsels the value
// index served in place of a scan: skipped as holding no candidate, or
// answered by refining its candidates.
func (e *Engine) IndexMorsels() int64 {
	return e.counters.IndexMorsels.Load()
}

// CellQueries returns the engine's cumulative count of aggregate queries
// answered from bucket cells: a range interior's, in exact or cracked
// mode, or every bucket of a column for a query with no WHERE.
func (e *Engine) CellQueries() int64 {
	return e.counters.CellQueries.Load()
}

// AggKernelHits returns the engine's cumulative count of aggregate queries
// answered by the typed accumulation kernels.
func (e *Engine) AggKernelHits() int64 {
	return e.counters.AggKernelHits.Load()
}

// AggKernelFallbacks returns the cumulative count of aggregate queries
// that fell back to generic accumulation (multi-column groups, wide
// dictionaries, string inputs).
func (e *Engine) AggKernelFallbacks() int64 {
	return e.counters.AggKernelFallbacks.Load()
}

// TableRows reports the row count of a registered in-memory table, or ok
// false when no such table exists. Shard workers answer the coordinator's
// Stats probe with it, so the healer can tell a worker that still holds
// its partition from a blank restart.
func (e *Engine) TableRows(name string) (int64, bool) {
	v, err := e.lookup(name)
	if err != nil || v.t == nil {
		return 0, false
	}
	return int64(v.t.NumRows()), true
}

// ParseMode parses a mode name (exact|cracked|approx|online).
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "", "exact":
		return Exact, nil
	case "cracked":
		return Cracked, nil
	case "approx":
		return Approx, nil
	case "online":
		return Online, nil
	default:
		return Exact, fmt.Errorf("unknown mode %q: %w", s, ErrBadMode)
	}
}

// LoadCSV loads a CSV file eagerly and registers it.
func (e *Engine) LoadCSV(name, path string) error {
	t, err := storage.ReadCSVFile(name, path)
	if err != nil {
		return err
	}
	return e.Register(t)
}

// AttachCSV registers a CSV file for in-situ (NoDB-style) querying: no
// bytes are read until a query touches the table, and only touched columns
// are ever parsed. A name already taken fails with ErrTableExists.
func (e *Engine) AttachCSV(name, path string, schema storage.Schema) error {
	r, err := rawload.Open(name, path, schema)
	if err != nil {
		return err
	}
	return e.store(name, &version{raw: r}, false)
}

// Tables lists the registered names, sorted; in-situ ones end " (in-situ)".
func (e *Engine) Tables() []string {
	e.tmu.RLock()
	names := make([]string, 0, len(e.tables))
	for n, v := range e.tables {
		if v.raw != nil {
			n += " (in-situ)"
		}
		names = append(names, n)
	}
	e.tmu.RUnlock()
	sort.Strings(names)
	return names
}

// schema is the version's schema, for star expansion.
func (v *version) schema() storage.Schema {
	if v.raw != nil {
		return v.raw.Schema()
	}
	return v.t.Schema()
}

// table resolves the version to an in-memory table, materializing q's
// columns of an in-situ table — the only storage-layer work here that can
// dominate a query, so it gets its own trace span.
func (v *version) table(ctx context.Context, q exec.Query) (*storage.Table, error) {
	if v.raw == nil {
		return v.t, nil
	}
	cols := columnsOf(q, v.raw.Schema())
	sp := trace.FromContext(ctx).Child("materialize")
	sp.SetStr("table", v.raw.Name())
	sp.SetInt("columns", int64(len(cols)))
	t, err := v.raw.Materialize(cols...)
	if err == nil {
		sp.SetInt("rows", int64(t.NumRows()))
	}
	sp.End()
	return t, err
}

func columnsOf(q exec.Query, schema storage.Schema) []string {
	seen := map[string]bool{}
	var out []string
	add := func(c string) {
		if c == "" || c == "*" || seen[c] || schema.Index(c) < 0 {
			return
		}
		seen[c] = true
		out = append(out, c)
	}
	for _, s := range q.Select {
		add(s.Col)
	}
	if q.Where != nil {
		for _, c := range q.Where.Columns() {
			add(c)
		}
	}
	for _, g := range q.GroupBy {
		add(g)
	}
	for _, o := range q.OrderBy {
		add(o.Col)
	}
	if len(out) == 0 && len(schema) > 0 {
		out = append(out, schema[0].Name)
	}
	return out
}

// SQL parses and executes a statement under the given mode. Joins are
// executed eagerly (hash join), then the rest of the query runs against the
// joined table in Exact mode; the adaptive/approximate modes apply to
// single-table statements.
func (e *Engine) SQL(sql string, mode Mode) (*storage.Table, error) {
	return e.SQLContext(context.Background(), sql, mode)
}

// SQLContext is SQL under a context: a cancelled or expired ctx stops
// execution cooperatively (the morsel scheduler checks it between morsel
// claims; online aggregation between batches) and returns ctx.Err(). This
// is the entry point the service layer uses to plumb per-request deadlines
// and client-disconnect cancellation down to the operators.
func (e *Engine) SQLContext(ctx context.Context, sql string, mode Mode) (*storage.Table, error) {
	st, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	if st.JoinTable != "" {
		return e.executeJoin(ctx, st)
	}
	return e.ExecuteContext(ctx, st.Table, st.Query, mode)
}

// executeJoin runs a two-table statement: hash-join then query.
func (e *Engine) executeJoin(ctx context.Context, st *sqlparse.Statement) (*storage.Table, error) {
	// Joins need the whole tables materialized.
	lv, err := e.lookup(st.Table)
	if err != nil {
		return nil, err
	}
	rv, err := e.lookup(st.JoinTable)
	if err != nil {
		return nil, err
	}
	left, err := lv.table(ctx, allColumnsQuery(lv.schema()))
	if err != nil {
		return nil, err
	}
	right, err := rv.table(ctx, allColumnsQuery(rv.schema()))
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	jsp := trace.FromContext(ctx).Child("join")
	jsp.SetInt("left_rows", int64(left.NumRows()))
	jsp.SetInt("right_rows", int64(right.NumRows()))
	joined, err := exec.Join(left, right, st.LeftKey, st.RightKey)
	if err == nil {
		jsp.SetInt("rows_out", int64(joined.NumRows()))
	}
	jsp.End()
	if err != nil {
		return nil, err
	}
	q := sqlparse.ExpandStar(st.Query, joined.Schema())
	return exec.ExecuteCtx(ctx, joined, q, e.opt.Exec)
}

func allColumnsQuery(schema storage.Schema) exec.Query {
	var q exec.Query
	for _, f := range schema {
		q.Select = append(q.Select, exec.SelectItem{Col: f.Name})
	}
	return q
}

// Execute runs a parsed query against a named table under the given mode.
func (e *Engine) Execute(table string, q exec.Query, mode Mode) (*storage.Table, error) {
	return e.ExecuteContext(context.Background(), table, q, mode)
}

// Answer is a query result plus the execution metadata the service layer
// surfaces to clients.
type Answer struct {
	Table *storage.Table
	// Degraded marks a result produced by the degradation contract: the
	// requested exact execution exceeded its deadline and a sampled
	// approximation (with estimate, ci95 and sample_n columns) was
	// returned in its place.
	Degraded bool
	// Mode is the mode that actually produced the table — Approx when
	// Degraded, the requested mode otherwise.
	Mode Mode
}

// ExecuteAnswer is ExecuteContext with the degradation contract applied:
// when Options.Degrade is set and an Exact or Cracked query returns
// context.DeadlineExceeded, the engine answers the query in Approx mode on
// the same version and returns that tagged Degraded, instead of the error.
// The estimate keeps the request's values (its trace, under a degrade
// span) but not its expired deadline: Approx mode's stopping rule is its
// only bound. Queries whose shape the approximate path cannot serve, and
// client cancellations, keep the original error.
func (e *Engine) ExecuteAnswer(ctx context.Context, table string, q exec.Query, mode Mode) (Answer, error) {
	v, q, err := e.plan(ctx, table, q, mode)
	if err != nil {
		return Answer{}, err
	}
	res, err := e.execute(ctx, v, q, mode)
	if err == nil {
		return Answer{Table: res, Mode: mode}, nil
	}
	if !e.opt.Degrade || (mode != Exact && mode != Cracked) || !errors.Is(err, context.DeadlineExceeded) {
		return Answer{}, err
	}
	sp := trace.FromContext(ctx).Child("degrade")
	dres, derr := e.estimate(trace.With(context.WithoutCancel(ctx), sp), v, q, Approx)
	sp.End()
	if derr != nil {
		return Answer{}, err // surface the original deadline overrun
	}
	return Answer{Table: dres, Degraded: true, Mode: Approx}, nil
}

// ExecuteContext is Execute under a context, on the table's version as of
// entry. Cancellation points per mode: Exact checks between morsel claims,
// Cracked before and after the crack and then between morsel claims,
// Approx and Online between batches. Both treat an expired deadline as a
// stopping rule, not a failure: once a batch is in, the estimates at the
// deadline are the answer.
func (e *Engine) ExecuteContext(ctx context.Context, table string, q exec.Query, mode Mode) (*storage.Table, error) {
	v, q, err := e.plan(ctx, table, q, mode)
	if err != nil {
		return nil, err
	}
	return e.execute(ctx, v, q, mode)
}

// plan resolves the table's version and expands q's star against it.
func (e *Engine) plan(ctx context.Context, table string, q exec.Query, mode Mode) (*version, exec.Query, error) {
	psp := trace.FromContext(ctx).Child("plan")
	defer psp.End()
	psp.SetStr("table", table)
	psp.SetStr("mode", mode.String())
	v, err := e.lookup(table)
	if err != nil {
		return nil, q, err
	}
	return v, sqlparse.ExpandStar(q, v.schema()), nil
}

func (e *Engine) execute(ctx context.Context, v *version, q exec.Query, mode Mode) (*storage.Table, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch mode {
	case Exact:
		t, err := v.table(ctx, q)
		if err != nil {
			return nil, err
		}
		return exec.ExecuteCtx(ctx, t, q, e.opt.Exec)
	case Cracked:
		return e.executeCracked(ctx, v, q)
	case Approx, Online:
		return e.estimate(ctx, v, q, mode)
	default:
		return nil, fmt.Errorf("%v: %w", mode, ErrBadMode)
	}
}

// crackable returns the one-column interval that is the whole WHERE clause,
// which a cracker probe can answer, or the stable reason there is none; the
// crack span reports that reason as its fallback.
func crackable(w *expr.Pred, schema storage.Schema) (expr.Interval, string) {
	ivs, reason := expr.Intervals(schema, w)
	switch {
	case reason != "":
	case len(ivs) == 0:
		reason = "no range"
	case len(ivs) > 1:
		reason = "multi-column"
	default:
		return ivs[0], ""
	}
	return expr.Interval{}, reason
}

// executeCracked answers a one-column range query through the range
// partition the column's value index already has, at the level exact
// mode's plan for it refines (exec.RangeBuckets): its equi-depth buckets,
// each cut into the index's sub-buckets. The buckets strictly inside the
// range's bucket run hold only rows inside it, and so does every
// sub-bucket of an edge bucket between its bound's sub-bucket and the
// range's other side, so the one edge reader (Buckets.ReadEdges) lists
// those, and cracked mode supplies only its read of the sub-buckets
// holding the two bounds (crackRead): each through a crack index over its
// own rows, made on its crackTouch-th touch (edgeCracker). Until then the
// read declines, and the reader refines the sub-bucket's row list as exact
// mode does. The edge rows inside the range, ascending, are the pipeline's
// selection, and the rest is read as exact mode reads it: the interior's
// bucket cells and the edges' covered sub-cells folded when exact mode's
// plan folds them, else the interior's rows. A column with no value index —
// run-length coded, empty, or under a morsel size past
// storage.MaxIndexMorsel — has no partition to crack and runs exact mode's
// pipeline. Either way the answer equals exact mode's bit for bit — group
// order, projection order, MIN/MAX values and ties, and every SUM/AVG,
// whose one float sum no worker count or fold order moves — however far
// the crackers have cracked.
func (e *Engine) executeCracked(ctx context.Context, v *version, q exec.Query) (*storage.Table, error) {
	t, err := v.table(ctx, q)
	if err != nil {
		return nil, err
	}
	iv, reason := crackable(q.Where, t.Schema())
	var b exec.Buckets
	if reason == "" {
		if b, err = exec.RangeBuckets(ctx, t, q, e.opt.Exec); err != nil {
			return nil, err
		}
		if b.Index() == nil {
			reason = "no index"
		}
	}
	// Every cracked-mode query opens the span, so one that did not crack
	// says why. A column with no index runs under the plan already chosen.
	csp := trace.FromContext(ctx).Child("crack")
	if reason != "" {
		csp.SetStr("fallback", reason)
		csp.End()
		if reason == "no index" {
			return exec.ExecutePlanned(ctx, t, b, q, e.opt.Exec)
		}
		return exec.ExecuteCtx(ctx, t, q, e.opt.Exec)
	}
	// The probes synchronize inside each cracker: boundary-aligned lookups
	// share its read lock, reorganizing ones take the write lock. The stats
	// come from the probes' own critical sections, so the span reflects the
	// crackers this query actually saw.
	csp.SetStr("col", iv.Col)
	var st edgeStats
	var read exec.BoundRead
	if iv.Float {
		above, bounded := iv.FloatAbove()
		read = crackRead(e, v, t, iv.Col, b.Index(), iv.FLo, above, bounded, math.Inf(-1), &st)
	} else {
		above, bounded := iv.IntAbove()
		read = crackRead(e, v, t, iv.Col, b.Index(), iv.ILo, above, bounded, math.MinInt64, &st)
	}
	sel, refined, err := b.ReadEdges(e.takeRowVec(0), read)
	defer e.giveRowVec(sel)
	e.counters.Scanned.Add(int64(refined))
	if err != nil {
		csp.End()
		return nil, err
	}
	bl, bh := b.Run()
	csp.SetInt("buckets", int64(max(bh-bl+1, 0)))
	csp.SetInt("edges", int64(st.edges))
	csp.SetInt("edges_scanned", int64(st.scanned))
	csp.SetInt("edges_built", int64(st.built))
	csp.SetStr("lock_mode", st.lock.String())
	csp.SetInt("pieces", int64(st.pieces))
	csp.SetInt("cracks", int64(st.cracks))
	csp.SetInt("rows_out", int64(len(sel)))
	csp.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The edge rows are the pipeline's input selection: no sub-table is
	// copied out, the range predicate they answer is not re-evaluated, and
	// they are distinct and ascending, as ExecuteSel requires.
	return exec.ExecuteSel(ctx, t, b, sel, q, e.opt.Exec)
}

// edgeStats sums what a query's edge reads saw: the sub-buckets read,
// those declined for want of a cracker and the crackers made, the write
// lock if any probe took it, and the probed crackers' pieces and cracks.
type edgeStats struct {
	edges, scanned, built, pieces, cracks int
	lock                                  crack.LockMode
}

// crackRead is cracked mode's read of a bound's sub-bucket for the edge
// reader, over the rows whose value v in column col satisfies lo <= v <
// above (lo <= v when not bounded), adding each read to st: the
// sub-bucket's cracker's probe, or a decline while it has none. The lower
// bound's sub-bucket is probed from lo up: every value it holds is under
// above unless it holds the upper bound too. The upper bound's is probed
// from least, the type's least value, so that each of its probes cracks at
// most at above, and a drill-down in its range reads every value it holds
// below above.
func crackRead[T int64 | float64](e *Engine, v *version, t *storage.Table, col string, vi *storage.ValueIndex, lo, above T, bounded bool, least T, st *edgeStats) exec.BoundRead {
	return func(dst []int, k, j int, lower, upper bool) ([]int, bool, error) {
		ed, built, err := edgeCracker[T](e, v, t, col, vi, k, j)
		if err != nil {
			return dst, false, err
		}
		st.edges++
		if ed == nil {
			st.scanned++
			return dst, false, nil
		}
		from := least
		if lower {
			from = lo
		}
		var ps crack.ProbeStats
		if upper && bounded {
			dst, ps, err = ed.ProbeInto(dst, from, above)
		} else {
			dst, ps, err = ed.ProbeFrom(dst, from)
		}
		if err != nil {
			return dst, false, err
		}
		// The cracker's row ids are positions in its ascending rows, so
		// mapping them keeps them ascending.
		for i, p := range dst {
			dst[i] = int(ed.rows[p])
		}
		if built {
			st.built++
		}
		st.lock = max(st.lock, ps.Lock)
		st.pieces += ps.Pieces
		st.cracks += ps.Cracks
		return dst, true, nil
	}
}

// takeRowVec returns an empty row-id vector with room for n row ids — an
// estimate's stratum or batch, or a cracked query's edge rows: the largest
// recycled one, grown to n, else a new one. A free list under the engine's
// lock rather than a sync.Pool, whose per-P caches and GC sweeps make the
// hit rate — and so the bytes a query allocates — differ from run to run.
func (e *Engine) takeRowVec(n int) []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	best := -1
	for i, v := range e.rowVecs {
		if best < 0 || cap(v) > cap(e.rowVecs[best]) {
			best = i
		}
	}
	if best < 0 {
		return make([]int, 0, n)
	}
	v := e.rowVecs[best]
	e.rowVecs = slices.Delete(e.rowVecs, best, best+1)
	return slices.Grow(v, n)
}

// giveRowVec recycles v; four vectors per core are kept, since more
// queries than that do not run at once for long, and a query holds two at
// most: an estimate's stratum and scratch, or a cracked query's edge rows.
func (e *Engine) giveRowVec(v []int) {
	e.mu.Lock()
	if len(e.rowVecs) < 4*runtime.GOMAXPROCS(0) {
		e.rowVecs = append(e.rowVecs, v[:0])
	}
	e.mu.Unlock()
}

// crackKey names one of a version's crackers: the value bucket of a
// column and the value index's sub-bucket of it whose rows it holds — one
// holding a range's bound, which depends on the data alone, so every
// input and key over the column shares it.
type crackKey struct {
	col         string
	bucket, sub int
}

// cracker is what the engine reads of a cracker, whichever the type of the
// column it cracks.
type cracker interface {
	NumPieces() int
	Cracks() int
}

// edge is one sub-bucket's cracker: a crack index over the values of its
// rows, whose row ids are positions in rows.
type edge[T int64 | float64] struct {
	*crack.Index[T]
	bounds *storage.ValueBuckets // the bucket bounds it was cut under
	rows   []int32               // its rows, ascending: the index's row list, shared
}

// crackTouch is the touch of a cracker's key — the sub-bucket of a value
// bucket holding a bound — that makes its cracker. The touches before it
// read the sub-bucket's rows, so a sub-bucket no later query comes back
// to costs no copy of them: the cost-aware trigger of adaptive adaptive
// indexing (Schuhknecht, Dittrich and Linden, ICDE 2018), per sub-bucket.
const crackTouch = 3

// touchCount counts a cracker key's touches while it has no cracker, under
// the bounds its bucket was cut under.
type touchCount struct {
	bounds *storage.ValueBuckets
	n      int
}

// sameBounds reports whether bucket bounds a and b are drawn to the same
// values.
func sameBounds(a, b *storage.ValueBuckets) bool { return a == b || *a == *b }

// edgeCracker returns v's cracker of the rows of sub-bucket sub of bucket
// k of t's column col, cut under vi's bounds; built reports whether this
// call made it. A cracker is made on the crackTouch-th touch of its key: a
// touch before that counts itself and returns a nil cracker, and the
// caller reads the rows. Counting and making share one critical section,
// so concurrent crackTouch-th touches make one cracker. An INT column
// cracks as int64, a FLOAT one as float64. Under other bounds — the table
// grew and its buckets were drawn again — the count starts again and the
// cracker is made anew; bounds drawn again to the same values, as an
// in-situ table's are for each query's materialized table, keep both.
func edgeCracker[T int64 | float64](e *Engine, v *version, t *storage.Table, col string, vi *storage.ValueIndex, k, sub int) (ed *edge[T], built bool, err error) {
	key, bounds := crackKey{col, k, sub}, vi.ValueBuckets
	e.mu.Lock()
	defer e.mu.Unlock()
	if ed, ok := v.cracks[key].(*edge[T]); ok && sameBounds(ed.bounds, bounds) {
		return ed, false, nil
	}
	tc, ok := v.touches[key]
	if !ok || !sameBounds(tc.bounds, bounds) {
		tc = touchCount{bounds: bounds}
	}
	if tc.n++; tc.n < crackTouch {
		v.touches[key] = tc
		return nil, false, nil
	}
	delete(v.touches, key)
	xs, err := crackValues[T](t, col)
	if err != nil {
		return nil, false, err
	}
	rows, _, err := vi.SubRows(k, sub)
	if err != nil {
		return nil, false, err
	}
	ed = &edge[T]{Index: crack.NewAt(xs, rows, e.opt.CrackOptions), bounds: bounds, rows: rows}
	v.cracks[key] = ed
	return ed, true, nil
}

// crackValues returns the values of t's column col as a cracker reads
// them: an INT column's as int64, a FLOAT one's as float64.
func crackValues[T int64 | float64](t *storage.Table, col string) ([]T, error) {
	c, err := t.ColumnByName(col)
	if err != nil {
		return nil, err
	}
	var vals any
	switch c := c.(type) {
	case *storage.IntColumn:
		vals = c.V
	case *storage.FloatColumn:
		vals = c.V
	}
	xs, ok := vals.([]T)
	if !ok {
		return nil, fmt.Errorf("core: cracking needs an INT or FLOAT column, %q is %v", col, c.Type())
	}
	return xs, nil
}

// crackers copies out v's crackers of column col, every column's when col
// is "", by column. The caller reads their stats after Engine.mu is
// released: a stats read waits on each cracker's lock, which a probe may
// hold while it cracks, and no query should wait behind that on
// Engine.mu.
func (e *Engine) crackers(v *version, col string) map[string][]cracker {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := map[string][]cracker{}
	for k, c := range v.cracks {
		if col == "" || k.col == col {
			out[k.col] = append(out[k.col], c)
		}
	}
	return out
}

// sumStats sums the pieces and cracks of a column's crackers.
func sumStats(cs []cracker) (pieces, cracks int) {
	for _, c := range cs {
		pieces += c.NumPieces()
		cracks += c.Cracks()
	}
	return pieces, cracks
}

// CrackStats reports (pieces, cracks) summed over the crackers of a
// column of a table's current version, or ok false when it has none yet.
func (e *Engine) CrackStats(table, col string) (pieces, cracks int, ok bool) {
	v, err := e.lookup(table)
	if err != nil || col == "" {
		return 0, 0, false
	}
	cs := e.crackers(v, col)[col]
	pieces, cracks = sumStats(cs)
	return pieces, cracks, len(cs) > 0
}

// CrackIndexStat describes one column's crackers in CrackIndexes: their
// pieces and cracks summed.
type CrackIndexStat struct {
	Table  string
	Column string
	Pieces int
	Cracks int
}

// CrackIndexes lists every cracked column of the tables' current versions,
// in deterministic (table, column) order, its buckets' crackers summed —
// the shard Stats probe and /admin/stats enumerate them without knowing
// which columns queries happened to crack.
func (e *Engine) CrackIndexes() []CrackIndexStat {
	e.tmu.RLock()
	versions := maps.Clone(e.tables)
	e.tmu.RUnlock()
	var out []CrackIndexStat
	for table, v := range versions {
		for col, cs := range e.crackers(v, "") {
			pieces, cracks := sumStats(cs)
			out = append(out, CrackIndexStat{Table: table, Column: col, Pieces: pieces, Cracks: cracks})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Table != out[b].Table {
			return out[a].Table < out[b].Table
		}
		return out[a].Column < out[b].Column
	})
	return out
}

// approxShape converts an exec.Query into the single-aggregate aqp.Query
// the approximate modes support.
func approxShape(q exec.Query) (aqp.Query, string, error) {
	var agg *exec.SelectItem
	groupCols := map[string]bool{}
	for _, g := range q.GroupBy {
		groupCols[g] = true
	}
	groupName := ""
	for i := range q.Select {
		s := &q.Select[i]
		if s.Agg != exec.AggNone {
			if agg != nil {
				return aqp.Query{}, "", ErrNotApprox
			}
			agg = s
			continue
		}
		if !groupCols[s.Col] {
			return aqp.Query{}, "", ErrNotApprox
		}
	}
	if agg == nil || len(q.GroupBy) > 1 {
		return aqp.Query{}, "", ErrNotApprox
	}
	if len(q.GroupBy) == 1 {
		groupName = q.GroupBy[0]
	}
	return aqp.Query{Agg: agg.Agg, Col: agg.Col, Where: q.Where, GroupBy: groupName}, agg.Name(), nil
}

// estimatesTable renders group estimates as a result table with estimate,
// ci95 and sample_n columns; the group column keeps its type in t's
// schema, rows or none.
func estimatesTable(t *storage.Table, groupCol, aggName string, ests []aqp.GroupEstimate) (*storage.Table, error) {
	schema := storage.Schema{}
	if groupCol != "" {
		typ := storage.TString
		if i := t.Schema().Index(groupCol); i >= 0 {
			typ = t.Schema()[i].Type
		}
		schema = append(schema, storage.Field{Name: groupCol, Type: typ})
	}
	schema = append(schema,
		storage.Field{Name: aggName, Type: storage.TFloat},
		storage.Field{Name: "ci95", Type: storage.TFloat},
		storage.Field{Name: "sample_n", Type: storage.TInt},
	)
	out, err := storage.NewTable(t.Name(), schema)
	if err != nil {
		return nil, err
	}
	for _, g := range ests {
		row := []storage.Value{}
		if groupCol != "" {
			row = append(row, g.Group)
		}
		row = append(row, storage.Float(g.Est), storage.Float(g.CI), storage.Int(int64(g.N)))
		if err := out.AppendRow(row...); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// estimate answers q in Approx or Online mode with one runner over exact
// mode's index plan for the query (exec.RangeBuckets), in two strata after
// AQP++: the interior's bucket cells and the edges' covered sub-cells,
// when the plan folds them, are the exact part, folded into the
// estimator, and the candidates the plan refines — the rows of the
// sub-buckets holding the bounds beside cells, else the rows of a run
// narrow enough to refine — are sampled, all of them in the first batch
// when they fit in one, so the answer is exact. A plan with no such
// candidates — no index, or a wide run exact mode scans — walks the
// table's rows in the order of a keyed permutation (onlineagg.New), which
// costs no memory beyond a batch's scratch vector. Either way the query
// makes one engine-RNG draw, the seed of its order, so a fixed Seed
// replays. Online mode stops at its CI target (Engine.relCI); Approx mode
// at approxRelErr or after a tenth of the rows (approxShare), whichever
// comes first.
func (e *Engine) estimate(ctx context.Context, v *version, q exec.Query, mode Mode) (*storage.Table, error) {
	aq, aggName, err := approxShape(q)
	if err != nil {
		return nil, err
	}
	t, err := v.table(ctx, q)
	if err != nil {
		return nil, err
	}
	osp := trace.FromContext(ctx).Child("online")
	defer osp.End()
	b, err := exec.RangeBuckets(trace.With(ctx, osp), t, q, e.opt.Exec)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	seed := e.rng.Int63()
	e.mu.Unlock()
	// The stratum and the scratch vector a batch's window is mapped into
	// come from the free list and go back to it after. With no stratum the
	// stratum's vector is the scratch; a stratum that fits in one batch
	// needs none, being read where it lies.
	vec, ok, err := b.Edges(e.takeRowVec(0))
	if err != nil {
		e.giveRowVec(vec)
		return nil, err
	}
	if !ok {
		vec = slices.Grow(vec, min(t.NumRows(), e.batch))
	}
	defer e.giveRowVec(vec)
	var r *onlineagg.Runner
	if ok {
		if r, err = onlineagg.NewEdges(t, aq, vec, seed); err == nil {
			osp.SetInt("cells", int64(b.Cells(r.AddCell)))
			osp.SetInt("edge_rows", int64(len(vec)))
		}
	} else {
		r, err = onlineagg.New(t, aq, seed)
	}
	if err != nil {
		return nil, err
	}
	switch {
	case !ok:
		r.UseScratch(vec)
	case len(vec) > e.batch:
		scratch := e.takeRowVec(e.batch)
		defer e.giveRowVec(scratch)
		r.UseScratch(scratch)
	}
	target, limit := e.relCI, 0
	if mode == Approx {
		target, limit = approxRelErr, (t.NumRows()+approxShare-1)/approxShare
	}
	batches, err := r.Run(ctx, target, e.batch, limit)
	osp.SetInt("batches", int64(batches))
	osp.SetInt("processed", int64(r.Processed()))
	osp.SetInt("matched", int64(r.Matched()))
	if aq.Where != nil {
		reason := r.KernelFallback()
		osp.SetBool("kernel", reason == "")
		if reason != "" {
			osp.SetStr("kernel_fallback", reason)
		}
	}
	if err != nil {
		return nil, err
	}
	return estimatesTable(t, aq.GroupBy, aggName, r.Estimates())
}
