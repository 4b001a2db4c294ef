// The execution pipeline: every served query compiles to one plan and runs
// through one morsel-driven driver (internal/par).
//
//	compile:  filter  = typed predicate kernel (expr.CompileKernel), else the
//	                    generic expr.FilterRange; zone pruners whenever the
//	                    WHERE clause yields a per-column interval; under a
//	                    typed kernel, the bucket cells of a typed aggregate
//	                    whose WHERE is one range with an interior, or two
//	                    under a scalar one (bucketcells.go), else the
//	                    value index of the interval estimated to hold the
//	                    fewest rows (zonemap.go)
//	          sink    = typed scalar / typed group accumulators (aggkernel.go),
//	                    else the generic boxed scalar / group accumulators;
//	                    a projection's sink is a per-worker top-k heap under
//	                    ORDER BY, else a gather over the parked buffers
//	                    (rows.go)
//	per morsel: skip (zone map, or no index candidate) → the index's
//	            candidates — under bucket cells, the two edge buckets'
//	            alone — through Kernel.Refine when they are few enough,
//	            else filter the morsel — either way into a pooled selection
//	            buffer → sink.consume
//	then:       the interior's cells fold into the sink → ordered merge
//	            (sink.finish) → aggregates only: HAVING / ORDER BY / LIMIT
//	            (finish); the row sinks apply their own
//
// Compilation never fails a query for being unspecializable: a predicate or
// aggregate shape the typed layer rejects selects the generic filter or sink
// inside the same loop, and the stable fallback reason lands on the scan
// span and the fallback counter. The input is either the dense row range
// [0, n) plus the WHERE clause (ExecuteCtx) or a caller-supplied selection
// vector of distinct, ascending row ids that stands in for it (ExecuteSel —
// cracked mode hands over the index probe's row ids). Either way a row's
// position is its row id: there is no other position space.
//
// The index's candidates are a superset of the morsel's qualifying rows,
// read out ascending, and Refine applies the whole WHERE to them, so a
// morsel hands its sink the same rows in the same order on either path.
//
// Parallel execution is semantically transparent: qualifying rows reach the
// sink ascending within a morsel, scalar partials are morsel-indexed and
// merged in morsel order (so a float SUM is deterministic for a given
// morsel size, whatever the scheduling), aggregate states are a commutative
// monoid under merge (NaN — the engine's NULL — is skipped), and merged
// groups are re-sorted by the row id of their first row, which is what
// bucket cells record too. Against the sequential reference evaluator
// (Execute) the only observable difference is the floating-point
// association order of SUM/AVG partials, bucket cells' included.
//
// The scheduler checks ctx between morsel claims, so a cancelled query
// stops within one morsel per worker, and ExecOptions.Scanned advances
// morsel by morsel while the query runs.
package exec

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"dex/internal/expr"
	"dex/internal/fault"
	"dex/internal/par"
	"dex/internal/storage"
	"dex/internal/trace"
)

// disableTrace skips the per-query span extraction entirely — the
// pre-tracing baseline the overhead guard in trace_guard_test.go
// compares against. Test-only; never set in production code.
var disableTrace bool

// fpScan injects scan-level faults, hit once per morsel. Latency policies
// here are how tests make a query overrun its deadline on demand (and so
// how the degradation contract in core is exercised).
var fpScan = fault.Register("exec/scan")

// fpKernel injects faults at the kernel-dispatch seam: hit once per query
// whose WHERE clause compiles to a typed kernel, before any morsel runs.
var fpKernel = fault.Register("exec/kernel-dispatch")

// ExecOptions tunes query execution. The zero value is the full pipeline:
// zone-map pruning, typed predicate kernels and typed aggregation are what
// the engine does, not things a caller turns on.
type ExecOptions struct {
	// Parallelism is the number of workers: 0 means GOMAXPROCS, 1 runs the
	// morsels inline on the calling goroutine.
	Parallelism int
	// MorselSize is the rows per scheduling unit (0 = par.DefaultMorselSize).
	// Inputs that fit in a single morsel always run inline.
	MorselSize int
	// Scanned, when non-nil, is incremented live with the number of rows
	// each pipeline stage visits (predicate evaluation and aggregate
	// accumulation). Several queries may share one counter; it advances
	// with morsel granularity while execution is in flight, so a stalled
	// counter means a stalled (or cancelled) query.
	Scanned *atomic.Int64
	// ZoneSkipped, when non-nil, accumulates the number of morsels the
	// zone-map pruner skipped. Like Scanned it may be shared across
	// queries; /admin/stats and the shard Stats probe read it.
	ZoneSkipped *atomic.Int64
	// IndexMorsels, when non-nil, accumulates the number of morsels the
	// value index served in place of a scan: skipped as holding no
	// candidate, or answered by refining its candidates. Shared and read
	// like ZoneSkipped.
	IndexMorsels *atomic.Int64
	// CellQueries, when non-nil, counts the aggregate queries whose range
	// interior the bucket cells answered, behind one range, two or no
	// WHERE. Shared and read like ZoneSkipped.
	CellQueries *atomic.Int64
	// AggKernelHits / AggKernelFallbacks, when non-nil, count aggregate
	// queries answered by the typed sinks vs the generic ones.
	AggKernelHits      *atomic.Int64
	AggKernelFallbacks *atomic.Int64
	// Nothing reads these three; benchmark/target.go still names them. The follow-up benchmark PR drops that literal, then the fields.
	ZoneMap, Kernels, AggKernels bool
}

// ExecuteOpts is ExecuteCtx under a background context.
func ExecuteOpts(t *storage.Table, q Query, opt ExecOptions) (*storage.Table, error) {
	return ExecuteCtx(context.Background(), t, q, opt)
}

// ExecuteCtx runs the query through the pipeline. Cancellation is checked
// between morsel claims, so a cancelled or timed-out query returns
// ctx.Err() within one morsel's worth of work per worker.
func ExecuteCtx(ctx context.Context, t *storage.Table, q Query, opt ExecOptions) (*storage.Table, error) {
	return execute(ctx, t, nil, q, opt)
}

// ExecuteSel runs the query over the rows of t listed in sel. sel must hold
// distinct row ids in ascending order — what the cracker index's probes
// return — since the sinks order groups, ties and projected rows by row id.
// The selection stands in for the WHERE clause — q.Where is not evaluated —
// so an operator that already knows the qualifying rows feeds them
// straight to the sinks. Output order is that of Execute over
// t.Gather(sel).
func ExecuteSel(ctx context.Context, t *storage.Table, sel []int, q Query, opt ExecOptions) (*storage.Table, error) {
	if sel == nil {
		sel = []int{} // non-nil marks selection input, even when empty
	}
	return execute(ctx, t, sel, q, opt)
}

func execute(ctx context.Context, t *storage.Table, sel []int, q Query, opt ExecOptions) (*storage.Table, error) {
	if len(q.Select) == 0 {
		return nil, ErrEmptySelect
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// The span is extracted once per query, never per morsel; when the
	// request is untraced sp is nil and every call on it is a no-op.
	var sp *trace.Span
	if !disableTrace {
		sp = trace.FromContext(ctx)
	}
	pool := par.NewPool(par.Options{Parallelism: opt.Parallelism, MorselSize: opt.MorselSize})
	p, err := compile(t, sel, q, pool, opt, sp)
	if err != nil {
		return nil, err
	}
	out, err := p.run(ctx, pool, opt, sp)
	if err != nil || !p.agg {
		return out, err
	}
	fsp := sp.Child("finish")
	out, err = finish(out, q)
	fsp.End()
	return out, err
}

// sink is the consuming end of the pipeline: an aggregate accumulator or a
// row sink that sees each morsel's qualifying rows once.
type sink interface {
	// consume folds the qualifying rows of the morsel's input [lo, hi)
	// into the sink. rows lists their row ids, ascending, and the row id is
	// what orders them among all rows (first-seen group order, ties); a nil
	// rows means every row of the dense range [lo, hi) qualifies, which
	// only a dense plan's sink is ever handed. Calls with the same worker
	// id never overlap.
	consume(worker, lo, hi int, rows []int)
	// finish merges the per-morsel and per-worker state in input order and
	// renders the output table (pre-HAVING for aggregates).
	finish() (*storage.Table, error)
}

// plan is one query compiled against one table.
type plan struct {
	t *storage.Table
	q Query
	n int // input length: table rows, or len(sel)
	// sel is the input selection, distinct ascending row ids; nil means the
	// dense range [0, n).
	sel []int
	// where is the predicate still to evaluate; nil means every input row
	// qualifies (no WHERE, a trivial one, or selection input).
	where        *expr.Pred
	kern         *expr.Kernel // typed filter; nil with where set = generic FilterRange
	kernFallback string
	pruners      []zonePruner
	index        rowIndex // prunes rows before the kernel; a nil vi scans every morsel
	sink         sink
	stage        string // the merge span's name
	agg          bool   // an aggregate query; else a projection
	dense        bool   // sink reads dense ranges unmaterialized (nil rows)
	typed        bool   // the aggregate sink is the typed one
	aggFallback  string // why it is not
	// known means the input already is the answer's row set (a selection or
	// the whole table, no ORDER BY): there is nothing to scan.
	known bool
	// parked holds each morsel's pooled buffer while the gather sink still
	// reads it; run returns them once the sink has finished.
	parked []*[]int
}

func compile(t *storage.Table, sel []int, q Query, pool *par.Pool, opt ExecOptions, sp *trace.Span) (*plan, error) {
	p := &plan{t: t, q: q, sel: sel, n: t.NumRows(), stage: "project"}
	p.agg = q.HasAggregates() || len(q.GroupBy) > 0
	var ak *aggKernel
	var aggReason string
	if p.agg {
		ak, aggReason = compileAggKernel(t, q)
	}
	switch {
	case sel != nil:
		p.n = len(sel)
	case q.Where != nil && q.Where.Kind != expr.KTrue:
		p.where = q.Where
		if p.kern, p.kernFallback = expr.CompileKernel(t, p.where); p.kern != nil {
			if err := fpKernel.Hit(); err != nil {
				return nil, err
			}
		}
		ivs, rest := expr.Intervals(t.Schema(), p.where)
		var err error
		if p.pruners, err = zonePruners(t, ivs, pool.MorselSize()); err != nil {
			return nil, err
		}
		// The candidates go through the kernel's Refine: only a compiled
		// WHERE can take them. Bucket cells answer rows unrefined, so they
		// need a WHERE that is exactly its intervals.
		if p.kern != nil && rest == "" {
			if p.index, err = chooseCells(t, ivs, ak, q, pool.MorselSize(), sp); err != nil {
				return nil, err
			}
		}
		if p.kern != nil && p.index.vi == nil {
			if p.index, err = chooseIndex(t, ivs, pool.MorselSize(), sp); err != nil {
				return nil, err
			}
		}
	default: // no WHERE: the range that covers every bucket
		var err error
		if p.index, err = chooseAllCells(t, ak, q, pool.MorselSize(), sp); err != nil {
			return nil, err
		}
	}
	morsels, workers := pool.Morsels(p.n), pool.WorkersFor(p.n)
	if !p.agg {
		return p, p.compileRows(morsels, workers, pool.MorselSize())
	}
	p.stage = "aggregate"
	if len(q.GroupBy) > 0 {
		p.stage = "group_by"
	}
	if ak != nil {
		p.sink, p.typed, p.dense = newTypedSink(ak, t, q, pool.MorselSize(), morsels, workers), true, true
		if opt.AggKernelHits != nil {
			opt.AggKernelHits.Add(1)
		}
		if p.index.cells != nil && opt.CellQueries != nil {
			opt.CellQueries.Add(1)
		}
		return p, nil
	}
	// An invalid select list falls back too: the generic sink re-derives
	// and reports the canonical error.
	gs, err := newGenericSink(t, q, pool.MorselSize(), morsels, workers)
	if err != nil {
		return nil, err
	}
	p.sink, p.aggFallback = gs, aggReason
	if opt.AggKernelFallbacks != nil {
		opt.AggKernelFallbacks.Add(1)
	}
	return p, nil
}

// compileRows picks a projection's sink: the top-k heap under ORDER BY,
// else the gather — over the parked morsel buffers, or straight over the
// input when that already is the answer's row set.
func (p *plan) compileRows(morsels, workers, m int) error {
	q := p.q
	if q.Having != nil {
		return errHavingNoAgg
	}
	out, err := projection(p.t, q)
	if err != nil {
		return err
	}
	limit := max(q.Limit, 0) // 0: none
	if len(q.OrderBy) > 0 {
		order, err := newRowOrder(out.schema, out.in, q.OrderBy)
		if err != nil {
			return err
		}
		p.sink, p.dense = &topSink{out: out, order: order, k: limit, locals: make([]*topHeap, workers)}, true
		if limit > 0 {
			p.stage = "topk"
		}
		return nil
	}
	g := &gatherSink{out: out, limit: limit, m: m}
	switch {
	case p.sel != nil:
		g.parts, p.known = [][]int{p.sel}, true
	case p.where == nil: // the whole table: only its first LIMIT rows are read
		n := p.n
		if limit > 0 {
			n = min(n, limit)
		}
		first := make([]int, n)
		for i := range first {
			first[i] = i
		}
		g.parts, p.known = [][]int{first}, true
	default:
		g.parts, p.parked = make([][]int, morsels), make([]*[]int, morsels)
	}
	p.sink = g
	return nil
}

// qualify returns the qualifying rows of the morsel's input [lo, hi),
// ascending. buf, when non-nil, is the pooled buffer backing rows, which the
// caller must putSel once rows is dead. A nil rows (dense sink, no
// predicate) means the whole range qualifies. cand refines the value
// index's candidates of the morsel in place of scanning it; they come out
// ascending, so rows is the same either way.
func (p *plan) qualify(lo, hi, m int, cand bool) (rows []int, buf *[]int, err error) {
	switch {
	case p.sel != nil:
		return p.sel[lo:hi], nil, nil
	case cand:
		buf = getSel()
		*buf = p.kern.Refine(p.index.candidates(lo/m, *buf))
	case p.kern != nil:
		buf = getSel()
		*buf = p.kern.Run(lo, hi, *buf)
	case p.where != nil:
		generic, ferr := expr.FilterRange(p.t, p.where, lo, hi)
		if ferr != nil {
			return nil, nil, ferr
		}
		buf = getSel()
		*buf = append(*buf, generic...)
	case p.dense:
		return nil, nil, nil
	default:
		buf = getSel()
		for r := lo; r < hi; r++ {
			*buf = append(*buf, r)
		}
	}
	return *buf, buf, nil
}

// run is the one morsel driver: for each morsel prune → qualify → consume,
// then the ordered merge. It is the only place query execution fans out.
// Pruning skips a morsel its zone maps or its value index prove empty, and
// a morsel with few enough index candidates refines them in place of a
// scan.
func (p *plan) run(ctx context.Context, pool *par.Pool, opt ExecOptions, sp *trace.Span) (*storage.Table, error) {
	m := pool.MorselSize()
	count := func(rows int) {
		if opt.Scanned != nil {
			opt.Scanned.Add(int64(rows))
		}
	}
	// The gather sink reads the parked buffers at finish; the sweep also
	// covers the error and cancellation paths, so no buffer outlives the
	// query.
	if p.parked != nil {
		defer func() {
			for _, b := range p.parked {
				if b != nil {
					putSel(b)
				}
			}
		}()
	}
	scanSp := sp.Child("scan")
	// One struct, so the morsel closure captures one heap object, not five.
	var n struct{ matched, skipped, indexSkipped, candidates, candMorsels atomic.Int64 }
	var err error
	if p.known {
		n.matched.Store(int64(p.n))
	} else {
		err = pool.ForEachErrCtx(ctx, p.n, func(worker, lo, hi int) error {
			if ferr := fpScan.Hit(); ferr != nil {
				return ferr
			}
			for _, pr := range p.pruners {
				if pr.skip(lo / m) {
					// Skipped morsels are not scanned: no rows touched, no
					// progress counted — the live counter reflects real work.
					n.skipped.Add(1)
					return nil
				}
			}
			visited, cand := hi-lo, false
			if ix := &p.index; ix.vi != nil {
				switch c := ix.count(lo / m); {
				case c == 0:
					n.indexSkipped.Add(1)
					return nil
				case ix.cells != nil || c <= int(indexCrossover*float64(hi-lo)):
					visited, cand = c, true
					n.candidates.Add(int64(c))
					n.candMorsels.Add(1)
				}
			}
			rows, buf, ferr := p.qualify(lo, hi, m, cand)
			if ferr != nil {
				return ferr
			}
			qualified := hi - lo
			if rows != nil {
				qualified = len(rows)
			}
			n.matched.Add(int64(qualified))
			if p.where != nil {
				count(visited)
			}
			p.sink.consume(worker, lo, hi, rows)
			count(qualified)
			switch {
			case buf == nil:
			case p.parked != nil:
				p.parked[lo/m] = buf
			default:
				putSel(buf)
			}
			return nil
		})
	}
	// The interior's cells fold in once every morsel's rows are in: no
	// worker touches the sink any more.
	if p.index.cells != nil && err == nil {
		n.matched.Add(int64(p.sink.(*typedSink).addCells(&p.index)))
	}
	if opt.ZoneSkipped != nil && n.skipped.Load() > 0 {
		opt.ZoneSkipped.Add(n.skipped.Load())
	}
	if served := n.indexSkipped.Load() + n.candMorsels.Load(); opt.IndexMorsels != nil && served > 0 {
		opt.IndexMorsels.Add(served)
	}
	if scanSp != nil {
		scanSp.SetInt("rows_in", int64(p.n))
		scanSp.SetInt("rows_out", n.matched.Load())
		scanSp.SetInt("morsels", int64(pool.Morsels(p.n)))
		scanSp.SetInt("workers", int64(pool.WorkersFor(p.n)))
		if p.where != nil {
			scanSp.SetInt("zone_skipped", n.skipped.Load())
		}
		if p.index.vi != nil {
			scanSp.SetStr("index", p.index.col)
			scanSp.SetInt("index_morsels", n.indexSkipped.Load()+n.candMorsels.Load())
			scanSp.SetInt("index_candidates", n.candidates.Load())
			scanSp.SetInt("index_skipped", n.indexSkipped.Load())
		}
		if p.index.cells != nil {
			scanSp.SetInt("bucket_cells", int64(p.index.buckets()))
			scanSp.SetInt("edge_candidates", n.candidates.Load())
			scanSp.SetInt("cell_keys", int64(p.index.keys()))
		}
		if p.where != nil {
			scanSp.SetBool("kernel", p.kern != nil)
			if p.kern != nil {
				scanSp.SetInt("kernel_leaves", int64(p.kern.Leaves()))
			} else {
				scanSp.SetStr("kernel_fallback", p.kernFallback)
			}
		}
		if p.agg {
			scanSp.SetBool("agg_kernel", p.typed)
			if !p.typed {
				scanSp.SetStr("agg_kernel_fallback", p.aggFallback)
			}
		}
		scanSp.End()
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	st := sp.Child(p.stage)
	defer st.End()
	st.SetInt("rows_in", n.matched.Load())
	if p.stage == "topk" {
		st.SetInt("k", int64(p.q.Limit))
	}
	out, err := p.sink.finish()
	switch {
	case err != nil:
	case !p.agg:
		st.SetInt("gathered", int64(out.NumRows()))
	case len(p.q.GroupBy) > 0:
		st.SetInt("groups", int64(out.NumRows()))
	}
	return out, err
}

// genericSink is the boxed fallback accumulator, built from the same
// aggState and groupTable pieces as the reference evaluator: scalar
// aggregation keeps one partial per morsel, group-by one hash table per
// worker.
type genericSink struct {
	t         *storage.Table
	q         Query
	m         int
	groupCols []storage.Column // nil for scalar aggregation
	inputs    []storage.Column
	partials  [][]*aggState // scalar: per morsel
	locals    []*groupTable // group-by: per worker
}

func newGenericSink(t *storage.Table, q Query, m, morsels, workers int) (*genericSink, error) {
	s := &genericSink{t: t, q: q, m: m}
	var err error
	if len(q.GroupBy) > 0 {
		s.groupCols, s.inputs, err = groupInputs(t, q)
		s.locals = make([]*groupTable, workers)
	} else {
		s.inputs, err = scalarInputs(t, q)
		s.partials = make([][]*aggState, morsels)
	}
	return s, err
}

func (s *genericSink) consume(worker, lo, _ int, rows []int) {
	if s.groupCols == nil {
		states := newAggStates(s.q)
		accumulateScalar(s.inputs, states, rows)
		s.partials[lo/s.m] = states
		return
	}
	if s.locals[worker] == nil {
		s.locals[worker] = newGroupTable()
	}
	s.locals[worker].accumulate(s.groupCols, s.inputs, s.q, rows)
}

func (s *genericSink) finish() (*storage.Table, error) {
	if s.groupCols == nil {
		return mergeScalarPartials(s.t, s.q, s.partials)
	}
	gt := newGroupTable()
	for _, o := range s.locals {
		if o != nil {
			gt.merge(o)
		}
	}
	sort.Slice(gt.order, func(a, b int) bool {
		return gt.groups[gt.order[a]].first < gt.groups[gt.order[b]].first
	})
	return buildGroupOutput(s.t, s.q, gt)
}

// mergeScalarPartials folds morsel-indexed scalar partials, typed or
// generic, in morsel order and renders the one-row output. A nil partial is
// a pruned morsel: it contributed nothing.
func mergeScalarPartials(t *storage.Table, q Query, partials [][]*aggState) (*storage.Table, error) {
	states := newAggStates(q)
	for _, p := range partials {
		if p == nil {
			continue
		}
		for i, st := range states {
			st.merge(p[i])
		}
	}
	return buildScalarOutput(t.Name(), q, states)
}

// selPool recycles per-morsel selection buffers across queries.
var selPool = sync.Pool{
	New: func() any {
		s := make([]int, 0, par.DefaultMorselSize)
		return &s
	},
}

// selOutstanding counts pool buffers currently claimed; it must return to
// its starting value after every query, cancelled or not (the leak test's
// hook).
var selOutstanding atomic.Int64

func getSel() *[]int {
	selOutstanding.Add(1)
	buf := selPool.Get().(*[]int)
	*buf = (*buf)[:0] // reset: stale rows from a prior query must be unreachable
	return buf
}

func putSel(buf *[]int) {
	selPool.Put(buf)
	selOutstanding.Add(-1)
}

// slotPool recycles the typed group sink's per-morsel slot vectors across
// morsels and queries, as selPool does the selection buffers: a vector per
// worker accumulator would cost a morsel's worth of int32s per worker per
// query. A vector is allocated for a whole default morsel at least: sized
// to the first morsel's qualifying rows, it would be reallocated each time
// a later morsel qualified more.
var slotPool = sync.Pool{New: func() any { return new([]int32) }}

// getSlots claims a slot vector of length n; its entries are stale and the
// slot pass overwrites every one. The claimer puts it back in slotPool.
func getSlots(n int) *[]int32 {
	buf := slotPool.Get().(*[]int32)
	if cap(*buf) < n {
		*buf = make([]int32, n, max(n, par.DefaultMorselSize))
	}
	*buf = (*buf)[:n]
	return buf
}
