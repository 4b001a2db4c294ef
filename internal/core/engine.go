// Package core is the engine facade: it wires the storage catalog, the
// adaptive cracking indexes, the AQP sample catalog, online aggregation and
// in-situ raw tables behind one query entry point with selectable execution
// modes — the "exploration-ready database system" the tutorial's future
// section calls for, in miniature.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dex/internal/aqp"
	"dex/internal/catalog"
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
	mu       sync.Mutex
	opt      Options
	cat      *catalog.Catalog
	rng      *rand.Rand
	cracks   map[string]map[string]cracker // table → column → crack index
	samples  map[string]*aqp.Catalog
	shuffles map[string][]int // Online mode's row order, one per table
	raw      map[string]*rawload.RawTable
	rowVecs  [][]int // cracked mode's idle row-id vectors
	// pastSessions archives ended sessions for query recommendation.
	pastSessions []recommend.Session
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
		opt:      opt,
		cat:      catalog.New(),
		rng:      rand.New(rand.NewSource(opt.Seed)),
		cracks:   map[string]map[string]cracker{},
		samples:  map[string]*aqp.Catalog{},
		shuffles: map[string][]int{},
		raw:      map[string]*rawload.RawTable{},
	}
}

// Register adds an in-memory table in its encoded form: columns the
// heuristics select (low-cardinality strings, clustered ints) are
// dictionary- or run-length-coded, which is what the code-space predicate
// kernels and the dense dict group-by run on. Encoding is an optimization
// only — an encode error (for example one injected at the
// storage/segment-encode seam) keeps the plain table and the load still
// succeeds — and idempotent: an already-encoded table registers as is.
func (e *Engine) Register(t *storage.Table) error {
	return e.cat.Register(encoded(t))
}

func encoded(t *storage.Table) *storage.Table {
	enc, st, err := storage.EncodeTable(t, storage.EncodeOptions{})
	if err != nil || st.Dict+st.RLE == 0 {
		return t
	}
	return enc
}

// Replace registers a table, overwriting any previous registration under
// the same name and dropping derived state (crack indexes, samples, the
// online shuffle) built from the old data. Shard workers use it when a
// re-partition reassigns their slice of a table.
func (e *Engine) Replace(t *storage.Table) {
	e.cat.Replace(encoded(t))
	e.mu.Lock()
	delete(e.cracks, t.Name())
	delete(e.samples, t.Name())
	delete(e.shuffles, t.Name())
	e.mu.Unlock()
}

// RowsScanned returns the engine's cumulative scanned-row count: rows
// visited by predicate evaluation and aggregate accumulation across all
// queries so far. It advances live, morsel by morsel, while queries run —
// the observability signal /admin/stats exposes and the cancellation tests
// watch stop.
func (e *Engine) RowsScanned() int64 {
	return e.opt.Exec.Scanned.Load()
}

// ZoneSkipped returns the engine's cumulative zone-map skip count: morsels
// the pruner proved disjoint from a range predicate and never scanned.
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
// whose range interior the bucket cells answered, every bucket of a
// column for a query with no WHERE.
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
	t, err := e.cat.Get(name)
	if err != nil {
		return 0, false
	}
	return int64(t.NumRows()), true
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

// LoadCSV loads a CSV file eagerly into the catalog.
func (e *Engine) LoadCSV(name, path string) error {
	t, err := storage.ReadCSVFile(name, path)
	if err != nil {
		return err
	}
	return e.Register(t)
}

// AttachCSV registers a CSV file for in-situ (NoDB-style) querying: no
// bytes are read until a query touches the table, and only touched columns
// are ever parsed.
func (e *Engine) AttachCSV(name, path string, schema storage.Schema) error {
	r, err := rawload.Open(name, path, schema)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.raw[name] = r
	return nil
}

// Tables lists registered table names (in-memory and in-situ).
func (e *Engine) Tables() []string {
	names := e.cat.Names()
	e.mu.Lock()
	defer e.mu.Unlock()
	for n := range e.raw {
		names = append(names, n+" (in-situ)")
	}
	return names
}

// table resolves a name to an in-memory table, materializing the needed
// columns of an in-situ table when necessary. The materialization — the
// only storage-layer work here that can dominate a query — gets its own
// trace span; catalog hits are sub-microsecond and stay unspanned.
func (e *Engine) table(ctx context.Context, name string, q exec.Query) (*storage.Table, error) {
	if t, err := e.cat.Get(name); err == nil {
		return t, nil
	}
	e.mu.Lock()
	r, ok := e.raw[name]
	e.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%q: %w", name, ErrNoSuchTable)
	}
	cols := columnsOf(q, r.Schema())
	sp := trace.FromContext(ctx).Child("materialize")
	sp.SetStr("table", name)
	sp.SetInt("columns", int64(len(cols)))
	t, err := r.Materialize(cols...)
	if err == nil {
		sp.SetInt("rows", int64(t.NumRows()))
	}
	sp.End()
	return t, err
}

// schemaOf returns the schema for star expansion.
func (e *Engine) schemaOf(name string) (storage.Schema, error) {
	if t, err := e.cat.Get(name); err == nil {
		return t.Schema(), nil
	}
	e.mu.Lock()
	r, ok := e.raw[name]
	e.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%q: %w", name, ErrNoSuchTable)
	}
	return r.Schema(), nil
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
	lschema, err := e.schemaOf(st.Table)
	if err != nil {
		return nil, err
	}
	rschema, err := e.schemaOf(st.JoinTable)
	if err != nil {
		return nil, err
	}
	left, err := e.table(ctx, st.Table, allColumnsQuery(lschema))
	if err != nil {
		return nil, err
	}
	right, err := e.table(ctx, st.JoinTable, allColumnsQuery(rschema))
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
	res, err := e.ExecuteContext(ctx, table, q, mode)
	if err == nil {
		return Answer{Table: res, Mode: mode}, nil
	}
	if !e.opt.Degrade || (mode != Exact && mode != Cracked) || !errors.Is(err, context.DeadlineExceeded) {
		return Answer{}, err
	}
	dres, derr := e.degradedAnswer(ctx, table, q)
	if derr != nil {
		return Answer{}, err // surface the original deadline overrun
	}
	return Answer{Table: dres, Degraded: true, Mode: Approx}, nil
}

// degradedAnswer computes the approximate stand-in for a timed-out exact
// query under its own grace budget, detached from the expired request
// context. Only the trace span survives the detachment, so the fallback
// work still shows up in the query's profile.
func (e *Engine) degradedAnswer(parent context.Context, table string, q exec.Query) (*storage.Table, error) {
	sp := trace.FromContext(parent).Child("degrade")
	defer sp.End()
	ctx, cancel := context.WithTimeout(trace.With(context.Background(), sp), e.opt.DegradeGrace)
	defer cancel()
	schema, err := e.schemaOf(table)
	if err != nil {
		return nil, err
	}
	return e.executeApprox(ctx, table, sqlparse.ExpandStar(q, schema))
}

// ExecuteContext is Execute under a context. Cancellation points per mode:
// Exact checks between morsel claims, Cracked before and after the crack
// and then between morsel claims, Online between batches, Approx at the
// mode boundaries (sample lookups are sub-millisecond once built). Online
// mode treats an expired deadline as its stopping rule, not a failure:
// once a batch is in, the estimates at the deadline are the answer.
func (e *Engine) ExecuteContext(ctx context.Context, table string, q exec.Query, mode Mode) (*storage.Table, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	psp := trace.FromContext(ctx).Child("plan")
	psp.SetStr("table", table)
	psp.SetStr("mode", mode.String())
	schema, err := e.schemaOf(table)
	if err != nil {
		psp.End()
		return nil, err
	}
	q = sqlparse.ExpandStar(q, schema)
	psp.End()
	switch mode {
	case Exact:
		t, err := e.table(ctx, table, q)
		if err != nil {
			return nil, err
		}
		return exec.ExecuteCtx(ctx, t, q, e.opt.Exec)
	case Cracked:
		return e.executeCracked(ctx, table, q)
	case Approx:
		return e.executeApprox(ctx, table, q)
	case Online:
		return e.executeOnline(ctx, table, q)
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

// probeInterval collects the rows with lo <= v <= hi of column col into
// dst through the column's crack index, above being the least value over
// hi: a half-open probe [lo, above), or, when hi is the type's maximum and
// nothing lies above it, a probe with no upper cut.
func probeInterval[T int64 | float64](e *Engine, table string, t *storage.Table, col string, dst []int, lo, above T, bounded bool) ([]int, crack.ProbeStats, error) {
	ix, err := crackIndex[T](e, table, t, col)
	switch {
	case err != nil:
		return dst, crack.ProbeStats{}, err
	case !bounded:
		return ix.ProbeFrom(dst, lo)
	}
	return ix.ProbeAppend(dst, lo, above)
}

// executeCracked answers a one-column range query through the column's
// cracker index. The probe's row ids come back ascending, so the answer
// equals exact mode's row for row — group order, projection order, MIN/MAX
// ties — with SUM/AVG up to float association, however far the index has
// cracked.
func (e *Engine) executeCracked(ctx context.Context, table string, q exec.Query) (*storage.Table, error) {
	t, err := e.table(ctx, table, q)
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
	// The probe synchronizes inside the index: boundary-aligned lookups
	// share the index read lock, reorganizing ones take the write lock. The
	// stats come from the probe's own critical section, so the span reflects
	// the index state this query actually saw — not whatever a concurrent
	// probe left behind by the time the span is annotated.
	// The row-id vector is the engine's to reuse: a drill-down probe returns
	// a large share of the table, and a fresh vector per query is most of
	// what cracked mode would allocate. Nothing downstream keeps it (sinks
	// fold it, a projection gathers through it).
	rows := e.takeRowVec(t.NumRows())
	defer func() { e.giveRowVec(rows) }()
	var st crack.ProbeStats
	if iv.Float {
		above, bounded := iv.FloatAbove()
		rows, st, err = probeInterval(e, table, t, iv.Col, rows, iv.FLo, above, bounded)
	} else {
		above, bounded := iv.IntAbove()
		rows, st, err = probeInterval(e, table, t, iv.Col, rows, iv.ILo, above, bounded)
	}
	if err != nil {
		csp.End()
		return nil, err
	}
	csp.SetStr("lock_mode", st.Lock.String())
	csp.SetInt("pieces", int64(st.Pieces))
	csp.SetInt("cracks", int64(st.Cracks))
	csp.SetInt("rows_out", int64(len(rows)))
	csp.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The probe's row ids are the pipeline's input selection: no sub-table
	// is copied out, the range predicate they answer is not re-evaluated,
	// and they are distinct and ascending, as ExecuteSel requires, so the
	// sinks read the columns front to back.
	return exec.ExecuteSel(ctx, t, rows, q, e.opt.Exec)
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

// crackIndex returns (building on demand) the cracker index of a column:
// an INT or run-coded INT column cracks as int64, a FLOAT one as float64.
func crackIndex[T int64 | float64](e *Engine, table string, t *storage.Table, col string) (*crack.Index[T], error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	byCol, ok := e.cracks[table]
	if !ok {
		byCol = map[string]cracker{}
		e.cracks[table] = byCol
	}
	if ix, ok := byCol[col].(*crack.Index[T]); ok {
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
	v, ok := vals.([]T)
	if !ok {
		return nil, fmt.Errorf("core: cracking needs an INT or FLOAT column, %q is %v", col, c.Type())
	}
	ix := crack.New(v, e.opt.CrackOptions)
	byCol[col] = ix
	return ix, nil
}

// CrackStats reports (pieces, cracks) for a table's column index, or ok
// false when no index exists yet.
func (e *Engine) CrackStats(table, col string) (pieces, cracks int, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ix, have := e.cracks[table][col]; have {
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

// CrackIndexes lists every crack index the engine has built so far, in
// deterministic (table, column) order — the shard Stats probe and
// /admin/stats enumerate them without knowing which columns queries
// happened to crack.
func (e *Engine) CrackIndexes() []CrackIndexStat {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []CrackIndexStat
	for table, byCol := range e.cracks {
		for col, ix := range byCol {
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

func (e *Engine) executeApprox(ctx context.Context, table string, q exec.Query) (*storage.Table, error) {
	aq, aggName, err := approxShape(q)
	if err != nil {
		return nil, err
	}
	t, err := e.table(ctx, table, q)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ssp := trace.FromContext(ctx).Child("sample")
	e.mu.Lock()
	cat, ok := e.samples[table]
	if !ok {
		cat, err = aqp.NewCatalog(t, e.rng, e.opt.SampleFracs...)
		if err == nil {
			e.samples[table] = cat
		}
	}
	e.mu.Unlock()
	ssp.SetBool("built", !ok)
	if err != nil {
		ssp.End()
		return nil, err
	}
	res, err := cat.Approx(aq, aqp.Bound{RelErr: e.opt.ApproxRelErr})
	ssp.End()
	if err != nil && res == nil {
		return nil, err
	}
	return estimatesTable(table, aq.GroupBy, aggName, res.Groups)
}

func (e *Engine) executeOnline(ctx context.Context, table string, q exec.Query) (*storage.Table, error) {
	aq, aggName, err := approxShape(q)
	if err != nil {
		return nil, err
	}
	t, err := e.table(ctx, table, q)
	if err != nil {
		return nil, err
	}
	// The table's shuffle is built by its first Online query and shared,
	// read-only, by every later one; each query enters it at its own
	// rotation, so prefixes differ from query to query while a fixed Seed
	// still replays the same sequence. Both come from the engine rand.Rand
	// — shared state, drawn under the engine lock. A shuffle of the wrong
	// length belongs to a table Replace has since swapped out under a
	// query that was already running; it is rebuilt, never indexed.
	osp := trace.FromContext(ctx).Child("online")
	n := t.NumRows()
	e.mu.Lock()
	shuffle := e.shuffles[table]
	built := len(shuffle) != n
	if built {
		shuffle = e.rng.Perm(n)
		e.shuffles[table] = shuffle
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
	return estimatesTable(table, aq.GroupBy, aggName, r.Estimates())
}
