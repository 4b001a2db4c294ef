// Package core is the engine facade: it wires registered tables, the
// adaptive cracking indexes, the AQP sample catalog, online aggregation and
// in-situ raw tables behind one query entry point with selectable execution
// modes — the "exploration-ready database system" the tutorial's future
// section calls for, in miniature.
package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dex/internal/aqp"
	"dex/internal/crack"
	"dex/internal/exec"
	"dex/internal/expr"
	"dex/internal/onlineagg"
	"dex/internal/par"
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
	// Approx answers aggregate queries from pre-built samples with
	// confidence intervals (AQP).
	Approx
	// Online runs online aggregation until the relative CI target is met.
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

// Options configures an Engine.
type Options struct {
	Seed int64
	// SampleFracs are the uniform sample fractions built lazily per table
	// for Approx mode. Default {0.01, 0.1}.
	SampleFracs []float64
	// ApproxRelErr is the default relative-error bound for Approx mode.
	// Default 0.05.
	ApproxRelErr float64
	// OnlineRelCI is the stopping criterion for Online mode. Default 0.01.
	OnlineRelCI float64
	// OnlineBatch is the online-aggregation batch size. Default 4096.
	OnlineBatch int
	// CrackOptions configures the adaptive indexes.
	CrackOptions crack.Options
	// Exec tunes the execution pipeline used by the Exact mode, the
	// post-join query, and the post-probe stage of Cracked mode (the crack
	// probe itself synchronizes inside the index; its row ids then feed the
	// pipeline as a selection vector). The approximate modes — AQP, online
	// aggregation — keep their sequential semantics: the sampling modes
	// depend on a deterministic row visit order.
	Exec exec.ExecOptions
	// Degrade enables graceful degradation: an Exact or Cracked query that
	// exceeds its deadline returns a sampled approximate answer tagged
	// Degraded instead of a DeadlineExceeded error, when its shape allows
	// it (exactly one aggregate, at most one GROUP BY column — the same
	// shapes Approx mode serves). Client cancellation never degrades: a
	// disconnected client is not waiting for any answer.
	Degrade bool
	// DegradeGrace is the time budget for computing the approximate
	// fallback answer after the exact deadline fired (default 2s).
	DegradeGrace time.Duration
}

func (o *Options) fill() {
	if len(o.SampleFracs) == 0 {
		o.SampleFracs = []float64{0.01, 0.1}
	}
	if o.ApproxRelErr <= 0 {
		o.ApproxRelErr = 0.05
	}
	if o.OnlineRelCI <= 0 {
		o.OnlineRelCI = 0.01
	}
	if o.OnlineBatch <= 0 {
		o.OnlineBatch = 4096
	}
	if o.DegradeGrace <= 0 {
		o.DegradeGrace = 2 * time.Second
	}
}

// Engine is the exploration engine. Cracked-mode probes need no
// engine-level lock: each crack.Index carries its own RWMutex, probes that
// align with existing piece boundaries share a read lock, and only probes
// that must reorganize the column escalate to the write lock — so queries
// against a converged index (or distinct indexes) run fully in parallel.
type Engine struct {
	// tmu guards tables alone: a lookup never waits behind a build on mu.
	tmu    sync.RWMutex
	tables map[string]*version
	// mu guards the versions' derived state and the fields below.
	mu      sync.Mutex
	opt     Options
	rng     *rand.Rand
	rowVecs [][]int // cracked mode's idle row-id vectors
	// partsFree holds cracked mode's idle parts probes (takeParts).
	partsFree []*crack.Parts[[]storage.Cell]
	// pastSessions archives ended sessions for query recommendation.
	pastSessions []recommend.Session
}

// version is one registration of a table, in memory or in situ, with the
// state built from its rows. A query resolves its version once and reads
// and builds everything there, so what a query that Replace overtakes
// builds stays with the rows it started on. Engine.mu guards the derived
// fields. (Not a slot on storage.Table, which could hold it only as an
// any: aqp imports storage.)
type version struct {
	t       *storage.Table     // nil for an in-situ table
	raw     *rawload.RawTable  // nil for an in-memory table
	cracks  map[string]cracker // column → crack index
	samples *aqp.Catalog
	shuffle []int // Online mode's row order
}

// New creates an engine.
func New(opt Options) *Engine {
	opt.fill()
	// The engine always counts scanned rows: the service layer reads the
	// counter live to tell a progressing query from a stalled one, and the
	// per-morsel atomic add is noise against the scan itself. A caller that
	// supplies its own counter keeps it.
	if opt.Exec.Scanned == nil {
		opt.Exec.Scanned = new(atomic.Int64)
	}
	if opt.Exec.ZoneSkipped == nil {
		opt.Exec.ZoneSkipped = new(atomic.Int64)
	}
	if opt.Exec.IndexMorsels == nil {
		opt.Exec.IndexMorsels = new(atomic.Int64)
	}
	if opt.Exec.CellQueries == nil {
		opt.Exec.CellQueries = new(atomic.Int64)
	}
	if opt.Exec.AggKernelHits == nil {
		opt.Exec.AggKernelHits = new(atomic.Int64)
	}
	if opt.Exec.AggKernelFallbacks == nil {
		opt.Exec.AggKernelFallbacks = new(atomic.Int64)
	}
	return &Engine{
		opt:    opt,
		rng:    rand.New(rand.NewSource(opt.Seed)),
		tables: map[string]*version{},
	}
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
	v.cracks = map[string]cracker{}
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
	return e.opt.Exec.Scanned.Load()
}

// ZoneSkipped returns the engine's cumulative count of morsels the value
// index skipped whole, as holding no candidate: never scanned.
func (e *Engine) ZoneSkipped() int64 {
	return e.opt.Exec.ZoneSkipped.Load()
}

// IndexMorsels returns the engine's cumulative count of morsels the value
// index served in place of a scan: skipped as holding no candidate, or
// answered by refining its candidates.
func (e *Engine) IndexMorsels() int64 {
	return e.opt.Exec.IndexMorsels.Load()
}

// CellQueries returns the engine's cumulative count of aggregate queries
// answered from cells: a range interior's bucket cells (every bucket of a
// column for a query with no WHERE), or, in cracked mode, the pieces'
// partials.
func (e *Engine) CellQueries() int64 {
	return e.opt.Exec.CellQueries.Load()
}

// AggKernelHits returns the engine's cumulative count of aggregate queries
// answered by the typed accumulation kernels.
func (e *Engine) AggKernelHits() int64 {
	return e.opt.Exec.AggKernelHits.Load()
}

// AggKernelFallbacks returns the cumulative count of aggregate queries
// that fell back to generic accumulation (multi-column groups, wide
// dictionaries, string inputs).
func (e *Engine) AggKernelFallbacks() int64 {
	return e.opt.Exec.AggKernelFallbacks.Load()
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
// context.DeadlineExceeded, the engine computes a sampled approximate
// answer under a fresh DegradeGrace budget and returns it tagged
// Degraded, instead of the error. Queries whose shape the approximate
// path cannot serve, and client cancellations, keep the original error.
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
	dres, derr := e.degradedAnswer(ctx, v, q)
	if derr != nil {
		return Answer{}, err // surface the original deadline overrun
	}
	return Answer{Table: dres, Degraded: true, Mode: Approx}, nil
}

// degradedAnswer computes the approximate stand-in for a timed-out exact
// query on the same version, under its own grace budget, detached from the
// expired request context. Only the trace span survives the detachment, so
// the fallback work still shows up in the query's profile.
func (e *Engine) degradedAnswer(parent context.Context, v *version, q exec.Query) (*storage.Table, error) {
	sp := trace.FromContext(parent).Child("degrade")
	defer sp.End()
	ctx, cancel := context.WithTimeout(trace.With(context.Background(), sp), e.opt.DegradeGrace)
	defer cancel()
	return e.executeApprox(ctx, v, q)
}

// ExecuteContext is Execute under a context, on the table's version as of
// entry. Cancellation points per mode: Exact checks between morsel claims,
// Cracked before and after the crack and then between morsel claims,
// Online between batches, Approx at the mode boundaries (sample lookups
// are sub-millisecond once built). Online mode treats an expired deadline
// as its stopping rule, not a failure: once a batch is in, the estimates
// at the deadline are the answer.
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
	case Approx:
		return e.executeApprox(ctx, v, q)
	case Online:
		return e.executeOnline(ctx, v, q)
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

// crackProbe is what one cracked query asks its column's index for: the
// row ids in range, into rows, or, when parts is set, the partials of the
// pieces in range and the pending inserts.
type crackProbe struct {
	rows  []int
	parts *crack.Parts[[]storage.Cell]
}

// partsKey names a piece's cells (storage.PieceCells): keyed by a
// dictionary group column, aggregating one numeric input, "" for none.
type partsKey struct{ group, input string }

// probeInterval probes the rows with lo <= v <= hi of column col through
// the column's crack index, above being the least value over hi: a
// half-open probe [lo, above), or, when hi is the type's maximum and
// nothing lies above it, a probe with no upper cut.
func probeInterval[T int64 | float64](e *Engine, v *version, t *storage.Table, col string, pr *crackProbe, lo, above T, bounded bool) (st crack.ProbeStats, err error) {
	ix, err := crackIndex[T](e, v, t, col)
	switch {
	case err != nil:
	case pr.parts != nil && bounded:
		st, err = crack.ProbeParts(ix, pr.parts, lo, above)
	case pr.parts != nil:
		st, err = crack.ProbePartsFrom(ix, pr.parts, lo)
	case bounded:
		pr.rows, st, err = ix.ProbeAppend(pr.rows, lo, above)
	default:
		pr.rows, st, err = ix.ProbeFrom(pr.rows, lo)
	}
	return st, err
}

// executeCracked answers a one-column range query through the column's
// cracker index. An aggregate that cells can answer (exec.CellShape) folds
// the partials of the crack pieces in range — each piece's cells, keyed by
// the group column and aggregating the input, built the first time a probe
// covers the piece and dropped when a crack splits it — so a drill-down
// reads only the rows of pieces no earlier probe aggregated, and none at
// all once the index has converged on its bounds. Any other query gets the
// probe's row ids, ascending, as the pipeline's selection. Either way the
// answer equals exact mode's — group order, projection order, MIN/MAX
// values and ties — however far the index has cracked, up to the
// association of a float SUM/AVG, which the pieces add in crack order.
func (e *Engine) executeCracked(ctx context.Context, v *version, q exec.Query) (*storage.Table, error) {
	t, err := v.table(ctx, q)
	if err != nil {
		return nil, err
	}
	// Every cracked-mode query opens the span, so one that did not crack
	// says why.
	csp := trace.FromContext(ctx).Child("crack")
	iv, reason := crackable(q.Where, t.Schema())
	if reason != "" {
		csp.SetStr("fallback", reason)
		csp.End()
		return exec.ExecuteCtx(ctx, t, q, e.opt.Exec)
	}
	csp.SetStr("col", iv.Col)
	pr := &crackProbe{}
	if q.HasAggregates() || len(q.GroupBy) > 0 {
		if group, input, why := exec.CellShape(t, q); why != "" {
			csp.SetStr("parts_fallback", why)
		} else {
			pr.parts = e.takeParts(t, group, input)
			defer e.giveParts(pr.parts)
		}
	}
	if pr.parts == nil {
		// The row-id vector is the engine's to reuse: a drill-down probe
		// returns a large share of the table, and a fresh vector per query
		// is most of what the row path would allocate. Nothing downstream
		// keeps it (sinks fold it, a projection gathers through it).
		pr.rows = e.takeRowVec(t.NumRows())
		defer func() { e.giveRowVec(pr.rows) }()
	}
	// The probe synchronizes inside the index: boundary-aligned lookups
	// share the index read lock, reorganizing ones take the write lock. The
	// stats come from the probe's own critical section, so the span reflects
	// the index state this query actually saw — not whatever a concurrent
	// probe left behind by the time the span is annotated.
	var st crack.ProbeStats
	if iv.Float {
		above, bounded := iv.FloatAbove()
		st, err = probeInterval(e, v, t, iv.Col, pr, iv.FLo, above, bounded)
	} else {
		above, bounded := iv.IntAbove()
		st, err = probeInterval(e, v, t, iv.Col, pr, iv.ILo, above, bounded)
	}
	if err != nil {
		csp.End()
		return nil, err
	}
	csp.SetStr("lock_mode", st.Lock.String())
	csp.SetInt("pieces", int64(st.Pieces))
	csp.SetInt("cracks", int64(st.Cracks))
	if p := pr.parts; p != nil {
		// The rows the sets were built from are the rows this query read.
		e.opt.Exec.Scanned.Add(int64(p.BuiltRows))
		csp.SetInt("parts", int64(len(p.Sets)))
		csp.SetInt("parts_built", int64(p.Built))
		csp.SetInt("part_rows_built", int64(p.BuiltRows))
		csp.SetInt("pending_rows", int64(len(p.Pending)))
	} else {
		csp.SetInt("rows_out", int64(len(pr.rows)))
	}
	csp.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p := pr.parts; p != nil {
		return exec.ExecuteCells(ctx, t, p.Sets, p.Pending, q, e.opt.Exec)
	}
	// The probe's row ids are the pipeline's input selection: no sub-table
	// is copied out, the range predicate they answer is not re-evaluated,
	// and they are distinct and ascending, as ExecuteSel requires, so the
	// sinks read the columns front to back.
	return exec.ExecuteSel(ctx, t, pr.rows, q, e.opt.Exec)
}

// takeParts returns a parts probe for the cells of a crack index's pieces
// keyed by the dictionary column group and aggregating the plain numeric
// column input, "" for none, as exec.CellShape names them: a recycled one,
// whose set list is reused, when there is one. A piece is built on as many
// workers as the pipeline would run its rows on, and the pieces one probe
// lacks sets for across the pipeline's parallelism.
func (e *Engine) takeParts(t *storage.Table, group, input string) *crack.Parts[[]storage.Cell] {
	var key *storage.DictColumn
	var in storage.Column
	if group != "" {
		c, _ := t.ColumnByName(group)
		key = c.(*storage.DictColumn)
	}
	if input != "" {
		in, _ = t.ColumnByName(input)
	}
	pool := par.NewPool(par.Options{Parallelism: e.opt.Exec.Parallelism, MorselSize: e.opt.Exec.MorselSize})
	e.mu.Lock()
	p := &crack.Parts[[]storage.Cell]{}
	if k := len(e.partsFree); k > 0 {
		p, e.partsFree = e.partsFree[k-1], e.partsFree[:k-1]
	}
	e.mu.Unlock()
	p.Key, p.Workers = partsKey{group, input}, pool.Workers()
	p.Build = func(rows []int) []storage.Cell {
		return storage.PieceCells(rows, key, in, pool.WorkersFor(len(rows)), pool.MorselSize())
	}
	return p
}

// giveParts recycles a parts probe, as giveRowVec does a row vector; its
// set list no longer holds the sets, which the index may drop.
func (e *Engine) giveParts(p *crack.Parts[[]storage.Cell]) {
	clear(p.Sets)
	p.Build = nil
	e.mu.Lock()
	if len(e.partsFree) < runtime.GOMAXPROCS(0) {
		e.partsFree = append(e.partsFree, p)
	}
	e.mu.Unlock()
}

// takeRowVec returns an empty row-id vector with room for n row ids — a
// cracked probe of an n-row table, an online batch of n rows: a recycled
// one when the last one recycled is large enough, else a new one. A free
// list under the engine's lock rather than a sync.Pool, whose per-P caches
// and GC sweeps make the hit rate — and so the bytes a query allocates —
// differ from run to run.
func (e *Engine) takeRowVec(n int) []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if k := len(e.rowVecs); k > 0 && cap(e.rowVecs[k-1]) >= n {
		v := e.rowVecs[k-1]
		e.rowVecs = e.rowVecs[:k-1]
		return v
	}
	return make([]int, 0, n)
}

// giveRowVec recycles v; one vector per core is kept, since more queries
// than that do not run at once for long.
func (e *Engine) giveRowVec(v []int) {
	e.mu.Lock()
	if len(e.rowVecs) < runtime.GOMAXPROCS(0) {
		e.rowVecs = append(e.rowVecs, v[:0])
	}
	e.mu.Unlock()
}

// cracker is what the engine reads of a crack index, whichever the type
// of the column it cracks.
type cracker interface {
	NumPieces() int
	Cracks() int
}

// crackIndex returns (building on demand) v's cracker index of a column of
// t: an INT or run-coded INT column cracks as int64, a FLOAT one as float64.
func crackIndex[T int64 | float64](e *Engine, v *version, t *storage.Table, col string) (*crack.Index[T], error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ix, ok := v.cracks[col].(*crack.Index[T]); ok {
		return ix, nil
	}
	c, err := t.ColumnByName(col)
	if err != nil {
		return nil, err
	}
	var vals any
	switch c := c.(type) {
	case *storage.IntColumn:
		vals = c.V
	case *storage.RLEIntColumn:
		// Cracking reorganizes its own copy of the values, which defeats the
		// run-length representation anyway — decode once and crack that.
		vals = c.Decode().V
	case *storage.FloatColumn:
		vals = c.V
	}
	xs, ok := vals.([]T)
	if !ok {
		return nil, fmt.Errorf("core: cracking needs an INT or FLOAT column, %q is %v", col, c.Type())
	}
	ix := crack.New(xs, e.opt.CrackOptions)
	v.cracks[col] = ix
	return ix, nil
}

// CrackStats reports (pieces, cracks) for a column index of a table's
// current version, or ok false when no index exists yet.
func (e *Engine) CrackStats(table, col string) (pieces, cracks int, ok bool) {
	v, err := e.lookup(table)
	if err != nil {
		return 0, 0, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if ix, have := v.cracks[col]; have {
		return ix.NumPieces(), ix.Cracks(), true
	}
	return 0, 0, false
}

// CrackIndexStat describes one adaptive index in CrackIndexes.
type CrackIndexStat struct {
	Table  string
	Column string
	Pieces int
	Cracks int
}

// CrackIndexes lists every crack index built so far on the tables' current
// versions, in deterministic (table, column) order — the shard Stats probe
// and /admin/stats enumerate them without knowing which columns queries
// happened to crack.
func (e *Engine) CrackIndexes() []CrackIndexStat {
	e.tmu.RLock()
	versions := maps.Clone(e.tables)
	e.tmu.RUnlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []CrackIndexStat
	for table, v := range versions {
		for col, ix := range v.cracks {
			out = append(out, CrackIndexStat{Table: table, Column: col, Pieces: ix.NumPieces(), Cracks: ix.Cracks()})
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
// ci95 and sample_n columns.
func estimatesTable(name, groupCol, aggName string, ests []aqp.GroupEstimate) (*storage.Table, error) {
	schema := storage.Schema{}
	if groupCol != "" {
		typ := storage.TString
		if len(ests) > 0 {
			typ = ests[0].Group.Typ
		}
		schema = append(schema, storage.Field{Name: groupCol, Type: typ})
	}
	schema = append(schema,
		storage.Field{Name: aggName, Type: storage.TFloat},
		storage.Field{Name: "ci95", Type: storage.TFloat},
		storage.Field{Name: "sample_n", Type: storage.TInt},
	)
	out, err := storage.NewTable(name, schema)
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

func (e *Engine) executeApprox(ctx context.Context, v *version, q exec.Query) (*storage.Table, error) {
	aq, aggName, err := approxShape(q)
	if err != nil {
		return nil, err
	}
	t, err := v.table(ctx, q)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ssp := trace.FromContext(ctx).Child("sample")
	e.mu.Lock()
	cat := v.samples
	built := cat == nil
	if built {
		cat, err = aqp.NewCatalog(t, e.rng, e.opt.SampleFracs...)
		v.samples = cat
	}
	e.mu.Unlock()
	ssp.SetBool("built", built)
	if err != nil {
		ssp.End()
		return nil, err
	}
	res, err := cat.Approx(aq, aqp.Bound{RelErr: e.opt.ApproxRelErr})
	ssp.End()
	if err != nil && res == nil {
		return nil, err
	}
	return estimatesTable(t.Name(), aq.GroupBy, aggName, res.Groups)
}

func (e *Engine) executeOnline(ctx context.Context, v *version, q exec.Query) (*storage.Table, error) {
	aq, aggName, err := approxShape(q)
	if err != nil {
		return nil, err
	}
	t, err := v.table(ctx, q)
	if err != nil {
		return nil, err
	}
	// The version's shuffle is built by its first Online query and shared,
	// read-only, by every later one; each query enters it at its own
	// rotation, so prefixes differ from query to query while a fixed Seed
	// still replays the same sequence. Both come from the engine rand.Rand
	// — shared state, drawn under the engine lock.
	osp := trace.FromContext(ctx).Child("online")
	n := t.NumRows()
	e.mu.Lock()
	shuffle := v.shuffle
	built := shuffle == nil
	if built {
		shuffle = e.rng.Perm(n)
		v.shuffle = shuffle
	}
	start := int(e.rng.Int63() % int64(max(n, 1)))
	e.mu.Unlock()
	osp.SetBool("built", built)
	r, err := onlineagg.NewShuffled(t, aq, shuffle, start)
	if err != nil {
		osp.End()
		return nil, err
	}
	scratch := e.takeRowVec(min(n, e.opt.OnlineBatch))
	defer e.giveRowVec(scratch)
	r.UseScratch(scratch)
	batches, err := r.Run(ctx, e.opt.OnlineRelCI, e.opt.OnlineBatch)
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
	osp.End()
	if err != nil {
		return nil, err
	}
	return estimatesTable(t.Name(), aq.GroupBy, aggName, r.Estimates())
}
