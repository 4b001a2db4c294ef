// The execution pipeline: every served query compiles to one plan and runs
// through one morsel-driven driver (internal/par).
//
//	compile:  filter  = typed predicate kernel (expr.CompileKernel), else the
//	                    generic expr.FilterRange; under a typed kernel, the
//	                    bucket cells of a typed aggregate whose WHERE is
//	                    one range with an interior, or two under a scalar
//	                    one (bucketcells.go), else — under either filter —
//	                    the value index of the interval estimated to hold
//	                    the fewest rows (index.go)
//	          sink    = typed scalar / typed group accumulators (aggkernel.go),
//	                    else the generic boxed scalar / group accumulators;
//	                    a projection's sink is a per-worker top-k heap under
//	                    ORDER BY, else a gather over the parked buffers
//	                    (rows.go)
//	per morsel: skip (no index candidate) → the index's candidates
//	            through Kernel.Refine when they are few enough and the
//	            filter is the kernel, else filter the morsel — either way
//	            into a pooled selection buffer → sink.consume; under a
//	            selection, skip (no share of it, no interior row) → its
//	            share, merged with the morsel's interior rows if any →
//	            sink.consume
//	then:       the interior's bucket cells and the edges' covered
//	            sub-cells fold into the sink → ordered merge
//	            (sink.finish) → aggregates only: HAVING / ORDER BY / LIMIT
//	            (finish); the row sinks apply their own
//
// Compilation never fails a query for being unspecializable: a predicate or
// aggregate shape the typed layer rejects selects the generic filter or sink
// inside the same loop, and the stable fallback reason lands on the scan
// span and the fallback counter. The input is the dense row range [0, n)
// plus the WHERE clause (ExecuteCtx), or a selection vector of distinct,
// ascending row ids that stands in for it. A bucket-cells plan makes its
// own: the one edge reader (readEdges) reads its edges' parts once, before
// any morsel runs, refining the index's sub-buckets holding the bounds.
// Cracked mode hands one over (ExecuteSel): the same reader's rows, with
// the bounds' sub-buckets probed through their crackers, and the interior
// of its range's value buckets comes from the value index, as rows or as
// bucket cells. A selection is split at the morsels once per query. Either
// way the table's morsels are the unit of work and a row's position is its
// row id: there is no other position space.
//
// The index's candidates are a superset of the morsel's qualifying rows,
// read out ascending, and Refine applies the whole WHERE to them, so a
// morsel hands its sink the same rows in the same order on either path.
//
// Parallel execution is semantically transparent, bit for bit: qualifying
// rows reach the sink ascending within a morsel, every worker keeps its own
// accumulator, and aggregate states are a commutative monoid under merge —
// NaN, the engine's NULL, is skipped, a MIN/MAX tie goes to the earlier
// row, and SUM/AVG keep the one order-free sum (rsum), so no worker count,
// morsel size or bucket-cell fold moves a float SUM's bits. Merged groups
// are re-sorted by the row id of their first row, which is what bucket
// cells record too. So ExecuteCtx and ExecuteSel over the same rows answer
// what the sequential reference evaluator (Execute) does, bit for bit.
//
// The scheduler checks ctx between morsel claims, so a cancelled query
// stops within one morsel per worker, and Counters.Scanned advances
// morsel by morsel while the query runs.
package exec

import (
	"context"
	"fmt"
	"slices"
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
// value-index skipping, typed predicate kernels and typed aggregation are
// what the engine does, not things a caller turns on.
type ExecOptions struct {
	// Parallelism is the number of workers: 0 means GOMAXPROCS, 1 runs the
	// morsels inline on the calling goroutine.
	Parallelism int
	// MorselSize is the rows per scheduling unit (0 = par.DefaultMorselSize).
	// Inputs that fit in a single morsel always run inline.
	MorselSize int
	// Counters, when non-nil, accumulate what the queries run with them do.
	// Several queries may share them; core.Engine always points this at
	// its own.
	Counters *Counters
	// Nothing reads these three; benchmark/target.go still names them. The follow-up benchmark PR drops that literal, then the fields.
	ZoneMap, Kernels, AggKernels bool
}

// Counters are the pipeline's cumulative counts, read live while queries
// run: /admin/stats, /metrics and the shard Stats probe report them.
type Counters struct {
	// Scanned advances with the rows each pipeline stage visits (predicate
	// evaluation and aggregate accumulation), morsel by morsel while a
	// query runs, so a stalled counter means a stalled (or cancelled)
	// query.
	Scanned atomic.Int64
	// IndexSkipped counts the morsels the value index skipped whole, as
	// holding no candidate: never scanned.
	IndexSkipped atomic.Int64
	// IndexMorsels counts the morsels the value index served in place of a
	// scan: skipped (those IndexSkipped counts), or answered by refining
	// their candidates.
	IndexMorsels atomic.Int64
	// CellQueries counts the aggregate queries answered from bucket cells:
	// a range interior's, behind one range (cracked mode's included), two,
	// or every cell of a column under no WHERE.
	CellQueries atomic.Int64
	// AggKernelHits and AggKernelFallbacks count the aggregate queries the
	// typed sinks answered and those the generic ones did.
	AggKernelHits      atomic.Int64
	AggKernelFallbacks atomic.Int64
}

// ExecuteOpts is ExecuteCtx under a background context.
func ExecuteOpts(t *storage.Table, q Query, opt ExecOptions) (*storage.Table, error) {
	return ExecuteCtx(context.Background(), t, q, opt)
}

// ExecuteCtx runs the query through the pipeline. Cancellation is checked
// between morsel claims, so a cancelled or timed-out query returns
// ctx.Err() within one morsel's worth of work per worker.
func ExecuteCtx(ctx context.Context, t *storage.Table, q Query, opt ExecOptions) (*storage.Table, error) {
	return execute(ctx, t, nil, nil, q, opt)
}

// ExecutePlanned is ExecuteCtx under the index plan b that RangeBuckets
// chose for q at the same options: the pipeline does not choose it again.
func ExecutePlanned(ctx context.Context, t *storage.Table, b Buckets, q Query, opt ExecOptions) (*storage.Table, error) {
	return execute(ctx, t, nil, &b.ix, q, opt)
}

// ExecuteSel runs the query over the rows of t listed in sel plus the
// interior of b. sel must hold distinct row ids in ascending order — what
// the cracker index's probes return — since the sinks order groups, ties
// and projected rows by row id; it is split at the table's morsel
// boundaries, so every morsel hands its sink the rows that ExecuteCtx's
// morsel would over the same rows. The selection and b stand in for the
// WHERE clause — q.Where is not evaluated — so an operator that already
// knows the qualifying rows feeds them straight to the sinks. Output order
// is that of Execute over the rows gathered in order.
//
// The zero Buckets has no interior: sel is the whole input. The Buckets of
// q's range (RangeBuckets) adds the rows of the buckets strictly inside
// its run, which lie inside the range; sel must then list the range's
// rows in the parts of the run's edge buckets alone, as the edge reader
// (Buckets.ReadEdges) does. Where exact mode's plan folds the interior's
// bucket cells and the edges' covered sub-cells, so does this one, after
// sel's rows; otherwise each morsel's interior rows, read from the value
// index, are merged into its share of sel. A morsel with neither is
// skipped, and counted as the index skipping it.
func ExecuteSel(ctx context.Context, t *storage.Table, b Buckets, sel []int, q Query, opt ExecOptions) (*storage.Table, error) {
	if sel == nil {
		sel = []int{} // non-nil marks selection input, even when empty
	}
	return execute(ctx, t, sel, &b.ix, q, opt)
}

// execute runs q over sel (nil: every row) under the index plan ix, or the
// one compile chooses when ix is nil.
func execute(ctx context.Context, t *storage.Table, sel []int, ix *rowIndex, q Query, opt ExecOptions) (*storage.Table, error) {
	if len(q.Select) == 0 {
		return nil, ErrEmptySelect
	}
	if ctx == nil {
		ctx = context.Background()
	}
	c := opt.Counters
	if c == nil {
		c = new(Counters) // counted, then dropped
	}
	// The span is extracted once per query, never per morsel; when the
	// request is untraced sp is nil and every call on it is a no-op.
	var sp *trace.Span
	if !disableTrace {
		sp = trace.FromContext(ctx)
	}
	pool := par.NewPool(par.Options{Parallelism: opt.Parallelism, MorselSize: opt.MorselSize})
	p, err := compile(t, sel, ix, q, pool, c, sp)
	if err != nil {
		return nil, err
	}
	out, err := p.run(ctx, pool, c, sp)
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
	// finish merges the per-worker state — in input order for the row sinks,
	// in any order for the aggregates, whose merge is order-free — and
	// renders the output table (pre-HAVING for aggregates).
	finish() (*storage.Table, error)
}

// plan is one query compiled against one table.
type plan struct {
	t *storage.Table
	q Query
	n int // table rows: the morsels run over [0, n)
	// sel is the input selection, distinct ascending row ids, and morsel m
	// reads its share sel[starts[m]:starts[m+1]]; nil means the dense range
	// [0, n).
	sel, starts []int
	// given: sel is the caller's (ExecuteSel); else the plan read it
	// itself, refining edge rows of its own, which its spans report.
	given bool
	// where is the predicate still to evaluate; nil means every input row
	// qualifies (no WHERE, a trivial one, or selection input).
	where        *expr.Pred
	kern         *expr.Kernel // typed filter; nil with where set = generic FilterRange
	kernFallback string
	// index skips morsels and prunes rows; a nil vi scans every morsel.
	// With cells, the interior's cells whose keys lie in [kl, kh] are
	// folded into the typed sink once every morsel is in. Under a
	// selection it is the range's buckets (ExecuteSel), whose interior adds
	// rows or cells.
	index       rowIndex
	sink        sink
	stage       string // the merge span's name
	agg         bool   // an aggregate query; else a projection
	dense       bool   // sink reads dense ranges unmaterialized (nil rows)
	typed       bool   // the aggregate sink is the typed one
	aggFallback string // why it is not
	// known means the input already is the answer's row set (a selection or
	// the whole table, no ORDER BY): there is nothing to scan.
	known bool
	// parked holds each morsel's pooled buffer while the gather sink still
	// reads it; run returns them once the sink has finished.
	parked []*[]int
	// scratch holds, per worker, the buffer a selection's share merges with
	// its interior rows in, taken from the pool once a query rather than
	// once a morsel; run returns them.
	scratch []*[]int
}

func compile(t *storage.Table, sel []int, ix *rowIndex, q Query, pool *par.Pool, c *Counters, sp *trace.Span) (*plan, error) {
	p := &plan{t: t, q: q, sel: sel, given: sel != nil, n: t.NumRows(), stage: "project"}
	p.agg = q.HasAggregates() || len(q.GroupBy) > 0
	var ak *aggKernel
	var aggReason string
	if p.agg {
		ak, aggReason = compileAggKernel(t, q)
	}
	if sel == nil && hasWhere(q) {
		p.where = q.Where
		if p.kern, p.kernFallback = expr.CompileKernel(t, p.where); p.kern != nil {
			if err := fpKernel.Hit(); err != nil {
				return nil, err
			}
		}
	}
	if ix != nil {
		p.index = *ix
	} else {
		var err error
		if p.index, err = choosePlan(t, p.kern, ak, q, pool.MorselSize(), sp); err != nil {
			return nil, err
		}
	}
	if p.index.cells != nil {
		if _, _, why := cellShape(ak, q); why != "" {
			return nil, fmt.Errorf("exec: cells cannot answer %s: %s", q, why)
		}
	}
	morsels, workers := pool.Morsels(p.n), pool.WorkersFor(p.n)
	if sel != nil && p.index.interior() {
		p.scratch = make([]*[]int, workers)
	}
	if !p.agg {
		return p, p.compileRows(morsels, workers, pool.MorselSize())
	}
	p.stage = "aggregate"
	if len(q.GroupBy) > 0 {
		p.stage = "group_by"
	}
	if ak != nil {
		p.sink, p.typed, p.dense = newTypedSink(ak, t, q, workers), true, true
		c.AggKernelHits.Add(1)
		if p.index.cells != nil {
			c.CellQueries.Add(1)
		}
		return p, nil
	}
	// An invalid select list falls back too: the generic sink re-derives
	// and reports the canonical error.
	gs, err := newGenericSink(t, q, workers)
	if err != nil {
		return nil, err
	}
	p.sink, p.aggFallback = gs, aggReason
	c.AggKernelFallbacks.Add(1)
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
	case p.sel != nil && !p.index.interior():
		g.parts, p.known = [][]int{p.sel}, true
	case p.sel == nil && p.where == nil: // the whole table: only its first LIMIT rows are read
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
// ascending, and how many rows it visited: the candidates it refined, the
// morsel's, or none for a selection. buf, when non-nil, is the pooled
// buffer backing rows, which the caller must putSel once rows is dead. A
// nil rows (dense sink, no predicate) means the whole range qualifies.
// cand refines a pooled copy of the value index's candidates of the morsel
// in place of scanning it — they come out ascending, so rows is the same
// either way. Under a selection, the morsel's share of it is merged with
// its interior rows, if any, in the worker's scratch buffer — a pooled
// buffer when the gather sink keeps it.
func (p *plan) qualify(worker, lo, hi, m int, cand bool) (rows []int, buf *[]int, visited int, err error) {
	visited = hi - lo
	switch {
	case p.sel != nil:
		rows = p.sel[p.starts[lo/m]:p.starts[lo/m+1]]
		if p.scratch == nil {
			return rows, nil, 0, nil
		}
		if buf = p.scratch[worker]; p.parked != nil || buf == nil {
			buf = getSel()
		}
		*buf = mergeInto(p.index.vi.Candidates(lo/m, p.index.bl+1, p.index.bh-1, (*buf)[:0]), rows)
		if p.parked == nil {
			p.scratch[worker] = buf
			return *buf, nil, 0, nil
		}
		return *buf, buf, 0, nil
	case cand:
		buf = getSel()
		*buf = p.index.vi.Candidates(lo/m, p.index.bl, p.index.bh, *buf)
		visited = len(*buf)
		*buf = p.kern.Refine(*buf)
	case p.kern != nil:
		buf = getSel()
		*buf = p.kern.Run(lo, hi, *buf)
	case p.where != nil:
		generic, ferr := expr.FilterRange(p.t, p.where, lo, hi)
		if ferr != nil {
			return nil, nil, 0, ferr
		}
		buf = getSel()
		*buf = append(*buf, generic...)
	case p.dense:
		return nil, nil, visited, nil
	default:
		buf = getSel()
		for r := lo; r < hi; r++ {
			*buf = append(*buf, r)
		}
	}
	return *buf, buf, visited, nil
}

// run is the one morsel driver: for each morsel skip → qualify → consume,
// then the ordered merge. It is the only place query execution fans out.
// A morsel the value index proves empty is skipped, and one with few
// enough index candidates refines them through the kernel in place of a
// scan; under a selection, one with no share of it and no interior row is
// skipped.
func (p *plan) run(ctx context.Context, pool *par.Pool, c *Counters, sp *trace.Span) (*storage.Table, error) {
	m := pool.MorselSize()
	// The gather sink reads the parked buffers at finish; the sweep also
	// covers the error and cancellation paths, so no buffer outlives the
	// query.
	if p.parked != nil || p.scratch != nil {
		defer func() {
			for _, b := range p.parked {
				if b != nil {
					putSel(b)
				}
			}
			for _, b := range p.scratch {
				if b != nil {
					putSel(b)
				}
			}
		}()
	}
	// One struct, so the morsel closure captures one heap object, not four.
	var n struct{ matched, indexSkipped, candidates, candMorsels atomic.Int64 }
	// A cells plan reads its edges once, here, with the one edge reader,
	// and runs on that selection; a selection is split at the morsels once.
	// Both go in one buffer of the free list: the edges, then the starts.
	if ix := &p.index; (ix.cells != nil || p.sel != nil) && !p.known {
		buf := getSel()
		defer putSel(buf)
		if p.sel == nil {
			refined := 0
			var err error
			if *buf, refined, err = ix.readEdges(*buf, nil); err != nil {
				return nil, err
			}
			n.candidates.Store(int64(refined))
			c.Scanned.Add(int64(refined))
			p.sel = *buf
		}
		at := len(*buf)
		*buf = splitAt(*buf, p.sel, p.n, m)
		p.starts = (*buf)[at:]
	}
	scanSp := sp.Child("scan")
	var err error
	if p.known {
		n.matched.Store(int64(p.n))
		if p.sel != nil {
			n.matched.Store(int64(len(p.sel)))
		}
	} else {
		err = pool.ForEach(ctx, p.n, func(worker, lo, hi int) error {
			if ferr := fpScan.Hit(); ferr != nil {
				return ferr
			}
			cand := false
			switch ix := &p.index; {
			case p.sel != nil:
				if p.starts[lo/m] == p.starts[lo/m+1] && (!ix.interior() || ix.vi.Count(lo/m, ix.bl+1, ix.bh-1) == 0) {
					if ix.vi != nil {
						n.indexSkipped.Add(1)
					}
					return nil
				}
				if ix.vi != nil {
					n.candMorsels.Add(1)
				}
			case ix.vi != nil:
				switch c := ix.vi.Count(lo/m, ix.bl, ix.bh); {
				case c == 0:
					// Skipped morsels are not scanned: no rows touched, no
					// progress counted — the live counter reflects real work.
					n.indexSkipped.Add(1)
					return nil
				case p.kern != nil && c <= int(indexCrossover*float64(hi-lo)):
					cand = true
					n.candMorsels.Add(1)
				}
			}
			rows, buf, visited, ferr := p.qualify(worker, lo, hi, m, cand)
			if ferr != nil {
				return ferr
			}
			if cand {
				n.candidates.Add(int64(visited))
			}
			qualified := hi - lo
			if rows != nil {
				qualified = len(rows)
			}
			n.matched.Add(int64(qualified))
			if p.where != nil {
				c.Scanned.Add(int64(visited))
			}
			// A morsel no row of which qualifies costs the sink nothing,
			// as a skipped one does: on a run-length column, which has no
			// index, the kernel's run rejection is what skips it.
			if qualified > 0 {
				p.sink.consume(worker, lo, hi, rows)
				c.Scanned.Add(int64(qualified))
			}
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
	// The cells fold in once every morsel's rows are in: no worker touches
	// the sink any more.
	if ix := &p.index; ix.cells != nil && err == nil {
		n.matched.Add(int64(p.sink.(*typedSink).addCells(ix)))
		if !p.given {
			ix.csp.SetInt("edge_rows", n.candidates.Load())
		}
	}
	if skipped := n.indexSkipped.Load(); skipped > 0 {
		c.IndexSkipped.Add(skipped)
	}
	if served := n.indexSkipped.Load() + n.candMorsels.Load(); served > 0 {
		c.IndexMorsels.Add(served)
	}
	if scanSp != nil {
		scanSp.SetInt("rows_in", int64(p.n))
		scanSp.SetInt("rows_out", n.matched.Load())
		scanSp.SetInt("morsels", int64(pool.Morsels(p.n)))
		scanSp.SetInt("workers", int64(pool.WorkersFor(p.n)))
		if p.index.vi != nil && !p.given {
			scanSp.SetStr("index", p.index.col)
			scanSp.SetInt("index_morsels", n.indexSkipped.Load()+n.candMorsels.Load())
			scanSp.SetInt("index_candidates", n.candidates.Load())
			scanSp.SetInt("index_skipped", n.indexSkipped.Load())
		}
		if p.index.cells != nil {
			scanSp.SetInt("bucket_cells", int64(p.index.buckets()))
			if !p.given {
				scanSp.SetInt("edge_candidates", n.candidates.Load())
			}
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
// aggState and groupTable pieces as the reference evaluator: every worker
// keeps its own scalar states or hash table, merged in any order.
type genericSink struct {
	t         *storage.Table
	q         Query
	groupCols []storage.Column // nil for scalar aggregation
	inputs    []storage.Column
	scalars   [][]*aggState // scalar: per worker
	locals    []*groupTable // group-by: per worker
}

func newGenericSink(t *storage.Table, q Query, workers int) (*genericSink, error) {
	s := &genericSink{t: t, q: q}
	var err error
	if len(q.GroupBy) > 0 {
		s.groupCols, s.inputs, err = groupInputs(t, q)
		s.locals = make([]*groupTable, workers)
	} else {
		s.inputs, err = scalarInputs(t, q)
		s.scalars = make([][]*aggState, workers)
	}
	return s, err
}

func (s *genericSink) consume(worker, _, _ int, rows []int) {
	if s.groupCols == nil {
		if s.scalars[worker] == nil {
			s.scalars[worker] = newAggStates(s.q)
		}
		accumulateScalar(s.inputs, s.scalars[worker], rows)
		return
	}
	if s.locals[worker] == nil {
		s.locals[worker] = newGroupTable()
	}
	s.locals[worker].accumulate(s.groupCols, s.inputs, s.q, rows)
}

func (s *genericSink) finish() (*storage.Table, error) {
	if s.groupCols == nil {
		states := newAggStates(s.q)
		for _, w := range s.scalars {
			for i, st := range w {
				states[i].merge(st)
			}
		}
		return buildScalarOutput(s.t.Name(), s.q, states)
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

// mergeInto merges a, ascending and disjoint from rows, into rows, which
// stays ascending, and returns the extended slice: a bound's rows into an
// edge's, or a selection's share into a morsel's interior rows. It merges
// from the back, in rows' own room, grown when short, so it needs no third
// vector; a is only read.
func mergeInto(rows, a []int) []int {
	i, j := len(rows)-1, len(a)-1
	rows = slices.Grow(rows, len(a))[:len(rows)+len(a)]
	for k := len(rows) - 1; j >= 0; k-- {
		if i >= 0 && rows[i] > a[j] {
			rows[k], i = rows[i], i-1
		} else {
			rows[k], j = a[j], j-1
		}
	}
	return rows
}

// splitAt appends to starts where each morsel of the given size over n
// rows starts in sel, ascending row ids, then len(sel), and returns the
// extended slice: morsel m's share of sel is sel[starts[m]:starts[m+1]].
func splitAt(starts, sel []int, n, morsel int) []int {
	at := 0
	for lo := 0; lo < n; lo += morsel {
		for at < len(sel) && sel[at] < lo {
			at++
		}
		starts = append(starts, at)
	}
	return append(starts, len(sel))
}

// A freeList recycles scratch buffers across morsels and queries, under
// a mutex. Not a sync.Pool: two garbage collections in a row empty a
// pool, and a gather query parks a selection buffer per qualifying
// morsel, so a query that came after them allocated its whole set anew
// (about 9 MB on a 1 M-row table) — bytes set by when the collector ran,
// not by the query. The list keeps at most keep buffers; one put back
// past that is left to the collector.
type freeList[T any] struct {
	mu   sync.Mutex
	bufs []*T
	keep int
}

// get claims a buffer, or returns nil when the list is empty.
func (l *freeList[T]) get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.bufs)
	if n == 0 {
		return nil
	}
	b := l.bufs[n-1]
	l.bufs[n-1] = nil
	l.bufs = l.bufs[:n-1]
	return b
}

func (l *freeList[T]) put(b *T) {
	l.mu.Lock()
	if len(l.bufs) < l.keep {
		l.bufs = append(l.bufs, b)
	}
	l.mu.Unlock()
}

// selFree recycles per-morsel selection buffers across queries; it keeps
// enough for two gather queries over a 2 M-row table at the default
// morsel size (32 MB).
var selFree = freeList[[]int]{keep: 256}

// selOutstanding counts pool buffers currently claimed; it must return to
// its starting value after every query, cancelled or not (the leak test's
// hook).
var selOutstanding atomic.Int64

func getSel() *[]int {
	selOutstanding.Add(1)
	buf := selFree.get()
	if buf == nil {
		s := make([]int, 0, par.DefaultMorselSize)
		return &s
	}
	*buf = (*buf)[:0] // reset: stale rows from a prior query must be unreachable
	return buf
}

func putSel(buf *[]int) {
	selFree.put(buf)
	selOutstanding.Add(-1)
}

// slotFree recycles the typed group sink's per-morsel slot vectors across
// morsels and queries, as selFree does the selection buffers: a vector per
// worker accumulator would cost a morsel's worth of int32s per worker per
// query. A vector is allocated for a whole default morsel at least: sized
// to the first morsel's qualifying rows, it would be reallocated each time
// a later morsel qualified more. One is claimed per worker at a time.
var slotFree = freeList[[]int32]{keep: 64}

// getSlots claims a slot vector of length n; its entries are stale and the
// slot pass overwrites every one. The claimer puts it back in slotFree.
func getSlots(n int) *[]int32 {
	buf := slotFree.get()
	if buf == nil {
		buf = new([]int32)
	}
	if cap(*buf) < n {
		*buf = make([]int32, n, max(n, par.DefaultMorselSize))
	}
	*buf = (*buf)[:n]
	return buf
}
