// Data skipping. The value index (storage.ValueIndex) is the one
// structure that skips work: the filtered scan takes the interval of the
// WHERE clause whose bucket run over its plain INT or FLOAT column the
// column's sample puts the fewest rows in, and per morsel counts that
// run's rows. A morsel with none is skipped whole — on any data with value
// locality, time-ordered ticks or clustered fact tables, that is most of
// them — one with at most indexCrossover of its rows as candidates
// refines just those through the typed kernel, and the rest are filtered
// in full, by the kernel or the generic evaluator. An unsatisfiable
// conjunction's interval is empty, its run holds no row, and every morsel
// is skipped. A run-length column gets no index: its kernel rejects whole
// runs.
//
// Skipping is strictly conservative: the per-column intervals come from
// expr.Intervals, which derives them only from the comparison leaves of the
// top-level conjunction, exactly as the filter evaluates them — the
// predicate kernel scans the very same ranges — and other conjuncts can
// only narrow the result further. An INT column compared with a FLOAT
// constant of any size, NaN included, gets an exact interval too. OR, NOT,
// LIKE, NE and string comparisons contribute no interval and skip
// nothing. The candidates cover every row inside the interval, so refining
// them keeps the same rows.
//
// Bucket cells (bucketcells.go) go one step further for an aggregate whose
// WHERE is exactly one interval, or two under a scalar aggregate: the
// buckets strictly inside one interval's bucket run hold only rows inside
// it, so their pre-aggregated cells — those whose key bucket lies inside
// the other interval, if any — stand in for them, and only the two edge
// buckets are read; no morsel is scanned. Exact mode goes one level
// further down: each edge bucket's sub-buckets wholly inside the interval
// fold their sub-cells too. What is left of an edge is read by the one
// edge reader (readEdges), which every mode shares and which differs per
// mode only in how it reads the index's sub-bucket holding the bound:
// exact mode refines its rows, cracked mode probes its cracker, online
// mode samples it whole. An aggregate with no WHERE folds every cell of a
// column with no NULL and reads no row.
package exec

import (
	"context"
	"slices"

	"dex/internal/expr"
	"dex/internal/par"
	"dex/internal/storage"
	"dex/internal/trace"
)

// disableIndex keeps every morsel on the scan path — the baseline the
// index-path parity tests compare against. Test-only; never set in
// production code.
var disableIndex bool

// indexCrossover is the candidate share of a morsel up to which refining
// the value index's candidates beats scanning the morsel.
// BenchmarkKernelScan's cand/ and scan/ series (make bench-kernels) put
// the two paths level at about 0.2 for the cheapest scans, a one-sided
// FLOAT bound and an INT range; behind a sink, which reads the candidates'
// rows again out of order, the level point drops to 0.15–0.2, so the
// constant sits at half the kernels' level, where every shape still wins.
// See EXPERIMENTS.md, E33.
const indexCrossover = 0.1

// rowIndex is the value index a plan prunes rows with: one column's index
// and the bucket run its interval covers, whose edge buckets bl and bh hold
// the interval's bounds in the index's sub-buckets sl and sh. With cells
// set, the cells of the buckets strictly between bl and bh whose keys lie
// in [kl, kh] are folded in (bucketcells.go), and the plan reads its
// edges' parts pl and ph (readEdges) — none when bl is -1: the run of a
// query with no WHERE, which covers every bucket. The parts are whole
// buckets unless the edges' second levels lo and hi cut them (subLevel),
// whose sub-cells outside the parts then fold with the interior.
type rowIndex struct {
	col    string
	vi     *storage.ValueIndex
	bl, bh int
	sl, sh int
	cells  *storage.BucketCells
	kl, kh int
	// keyed: a second interval keys the cells, so the rest of a part, which
	// lies inside this one, is refined too.
	keyed  bool
	pl, ph storage.Part
	lo, hi *storage.SubCells
	// kern is the compiled WHERE the edges' rows are refined through.
	kern *expr.Kernel
	// csp is the cells span the plan was chosen under; run adds the edge
	// rows refined to it.
	csp *trace.Span
}

// A BoundRead is a mode's read of sub-bucket j of edge bucket k, the
// index's sub-bucket holding the range's lower bound, its upper bound or
// both: it writes the rows it keeps into dst, which is empty, ascending —
// rows of the sub-bucket, a superset of those inside the range — and
// returns them with ok true. Or it declines, ok false, and the edge reader
// refines the sub-bucket's row list through the range's kernel, as exact
// mode does.
type BoundRead func(dst []int, k, j int, lower, upper bool) (_ []int, ok bool, err error)

// readEdges is the one edge reader every mode reads a plan's edges with:
// it appends to dst the rows of the edge buckets' parts that lie inside the
// range, but for those of the bounds' sub-buckets read keeps instead,
// ascending, and returns the extended slice and how many rows it refined.
// Each edge's sub-bucket holding a bound — one, for a range whose bounds
// share one — is read through read; where read is nil or declines, its row
// list (storage.ValueIndex.SubRows) is refined through the kernel. The
// rest of each part, between the bound's sub-bucket and the range's other
// side, holds only rows inside the range and merges in from its
// sub-buckets' row lists unread, or refined where a second interval keys
// the cells. dst grows once, by at most the parts' rows.
func (ix *rowIndex) readEdges(dst []int, read BoundRead) (_ []int, refined int, err error) {
	bl, bh := ix.bl, ix.bh
	if bl < 0 || bl > bh {
		return dst, 0, nil
	}
	type bound struct {
		k, j         int
		lower, upper bool
	}
	one := bl == bh && ix.sl == ix.sh
	bounds := []bound{{bl, ix.sl, true, one}, {bh, ix.sh, false, true}}
	if one {
		bounds = bounds[:1]
	}
	var buf [2 * storage.NumSubBuckets][]int32
	rest := buf[:0]
	if bl == bh {
		rest, err = ix.vi.PartLists(rest, bl, ix.sl+1, ix.sh-1)
	} else if rest, err = ix.vi.PartLists(rest, bl, ix.sl+1, int(ix.pl.Hi)); err == nil {
		rest, err = ix.vi.PartLists(rest, bh, int(ix.ph.Lo), ix.sh-1)
	}
	if err != nil {
		return dst, 0, err
	}
	all := rest // then the bounds' lists
	for _, b := range bounds {
		if all, err = ix.vi.PartLists(all, b.k, b.j, b.j); err != nil {
			return dst, 0, err
		}
	}
	lists, n := all[len(rest):], 0
	for _, l := range all {
		n += len(l)
	}
	// rows is dst's room, which holds every row the reader can keep, so
	// the merges never move it.
	dst = slices.Grow(dst, n)
	rows := storage.MergeLists(dst[len(dst):], rest)
	if ix.keyed {
		refined = len(rows)
		rows = ix.kern.Refine(rows)
	}
	scratch := getSel()
	defer putSel(scratch)
	for i, b := range bounds {
		ok := false
		if read != nil {
			if *scratch, ok, err = read((*scratch)[:0], b.k, b.j, b.lower, b.upper); err != nil {
				return dst, refined, err
			}
		}
		if !ok {
			refined += len(lists[i])
			*scratch = ix.kern.Refine(storage.MergeLists((*scratch)[:0], lists[i:i+1]))
		}
		rows = mergeInto(rows, *scratch)
	}
	return dst[:len(dst)+len(rows)], refined, nil
}

// boundSubs sets sl and sh to the index's sub-buckets of the edge buckets
// holding iv's bounds.
func (ix *rowIndex) boundSubs(iv expr.Interval) {
	if iv.Float {
		ix.sl, ix.sh = ix.vi.FloatSub(ix.bl, iv.FLo), ix.vi.FloatSub(ix.bh, iv.FHi)
	} else {
		ix.sl, ix.sh = ix.vi.IntSub(ix.bl, iv.ILo), ix.vi.IntSub(ix.bh, iv.IHi)
	}
}

// buckets returns how many of the interior's buckets hold cells: those
// that can hold a value.
func (ix *rowIndex) buckets() int {
	return len(ix.cells.Interior(ix.bl, ix.bh)) / len(ix.cells.Keys())
}

// keys returns how many of the cells' keys the fold covers.
func (ix *rowIndex) keys() int {
	n := 0
	for _, k := range ix.cells.Keys() {
		if int(k) >= ix.kl && int(k) <= ix.kh {
			n++
		}
	}
	return n
}

// interior reports whether the selection a plan reads is joined by the
// rows of the buckets strictly inside the run: its index has an interior
// of rows, not of cells.
func (ix *rowIndex) interior() bool {
	return ix.vi != nil && ix.cells == nil && ix.bh-ix.bl >= 2
}

// bucketRun maps an interval onto the bucket run of its column's buckets.
func bucketRun(b *storage.ValueBuckets, iv expr.Interval) (bl, bh int) {
	if iv.Float {
		return b.FloatRange(iv.FLo, iv.FHi)
	}
	return b.IntRange(iv.ILo, iv.IHi)
}

// hasWhere reports whether q has a WHERE clause to evaluate.
func hasWhere(q Query) bool { return q.Where != nil && q.Where.Kind != expr.KTrue }

// choosePlan is the one index plan for q over t under the typed kernel kern
// of its WHERE, nil for the generic filter or none, and the typed
// aggregation ak, nil for none: with no WHERE the bucket cells of the range
// that covers every bucket (chooseAllCells), else chooseRange over its
// top-level conjunction's intervals. compile runs it, and RangeBuckets
// hands it to cracked and online modes.
func choosePlan(t *storage.Table, kern *expr.Kernel, ak *aggKernel, q Query, morsel int, sp *trace.Span) (rowIndex, error) {
	if !hasWhere(q) {
		return chooseAllCells(t, ak, q, morsel, sp)
	}
	ivs, rest := expr.Intervals(t.Schema(), q.Where)
	ix, err := chooseRange(t, ivs, rest, kern, ak, q, morsel, sp)
	ix.kern = kern
	return ix, err
}

// chooseRange is the plan for a WHERE whose top-level conjunction yields
// the intervals ivs (rest says why they are not all of it) under the typed
// kernel kern, nil for the generic filter. Bucket cells answer rows
// unrefined and refine their edges through the kernel, so they need a
// compiled WHERE that is exactly its intervals; chooseCells decides the
// rest. Otherwise chooseIndex picks an interval's value index.
func chooseRange(t *storage.Table, ivs []expr.Interval, rest string, kern *expr.Kernel, ak *aggKernel, q Query, morsel int, sp *trace.Span) (rowIndex, error) {
	if kern != nil && rest == "" {
		if ix, err := chooseCells(t, ivs, ak, q, morsel, sp); err != nil || ix.vi != nil {
			return ix, err
		}
	}
	return chooseIndex(t, ivs, morsel, sp)
}

// Buckets is exact mode's index plan for a query, split at its column's
// value buckets (storage.ValueBuckets): the run [bl, bh] of the buckets
// its range touches, whose interior buckets bl+1 … bh-1 hold only rows
// inside it and whose edge buckets bl and bh it may cut, and the parts of
// the edge buckets the plan reads: under bucket cells, the sub-buckets
// holding the bounds, whose covered neighbours' sub-cells the plan folds;
// else the whole buckets. Every mode reads the parts with the one edge
// reader (ReadEdges), and the modes differ only in how they read the
// index's sub-bucket holding each bound: exact mode refines it, cracked
// mode probes its cracker (ReadEdges, then ExecuteSel, which reads the
// rest as exact mode does: the interior's bucket cells and the edges'
// covered sub-cells where exact mode's plan for the query folds them, else
// the interior's rows), and online mode samples it whole (Edges) beside
// the cells it folds (Cells). The zero Buckets has no index and no
// interior.
type Buckets struct{ ix rowIndex }

// RangeBuckets returns exact mode's index plan for q over t at opt's
// morsel size (choosePlan, the one compile runs): the bucket cells it
// folds, with its edges' second level, else the value index of one of its
// WHERE's intervals, else none. For a WHERE that is one interval of a
// numeric column, Index is nil when the column has none — a run-length
// column, an empty one, a morsel size past storage.MaxIndexMorsel — and
// cracked mode then runs exact mode's pipeline. The lookups, and any
// build, run under the spans exact mode opens for them.
func RangeBuckets(ctx context.Context, t *storage.Table, q Query, opt ExecOptions) (Buckets, error) {
	var ak *aggKernel
	if q.HasAggregates() || len(q.GroupBy) > 0 {
		ak, _ = compileAggKernel(t, q)
	}
	var kern *expr.Kernel
	if hasWhere(q) {
		kern, _ = expr.CompileKernel(t, q.Where)
	}
	morsel := par.NewPool(par.Options{Parallelism: opt.Parallelism, MorselSize: opt.MorselSize}).MorselSize()
	ix, err := choosePlan(t, kern, ak, q, morsel, trace.FromContext(ctx))
	return Buckets{ix}, err
}

// Index returns the value index the Buckets were cut from, nil when the
// plan has none.
func (b Buckets) Index() *storage.ValueIndex { return b.ix.vi }

// Run returns the bucket run [bl, bh]; bl > bh when the range is empty.
func (b Buckets) Run() (bl, bh int) { return b.ix.bl, b.ix.bh }

// ReadEdges appends to dst the rows of the plan's edges inside its range,
// ascending, but for those of the bounds' sub-buckets read keeps instead
// (nil: exact mode's refine), and returns the extended slice and how many
// rows it refined, the rows its caller counts as scanned: the one edge
// reader, exact mode's own. With no index, or the run of a query with no
// WHERE, there are none. err is a failed build of an edge's row list, or
// read's error.
func (b Buckets) ReadEdges(dst []int, read BoundRead) (_ []int, refined int, err error) {
	return b.ix.readEdges(dst, read)
}

// Cells calls fold with each cell exact mode folds — one that holds rows
// and whose key the plan qualifies — the interior's in (bucket, key)
// order, then the edges' covered sub-cells, and returns how many it
// folded; none without cells.
func (b Buckets) Cells(fold func(*storage.Cell)) int {
	ix := &b.ix
	if ix.cells == nil {
		return 0
	}
	n := 0
	subs := ix.subCells()
	for _, cells := range [][]storage.Cell{ix.cells.Interior(ix.bl, ix.bh), subs[0], subs[1]} {
		for i := range cells {
			if c := &cells[i]; cellIn(c, ix.kl, ix.kh) {
				fold(c)
				n++
			}
		}
	}
	return n
}

// Edges appends to dst the candidates exact mode's plan reads, over every
// morsel, ascending — beside cells, the rows of the edges' parts, read by
// the one edge reader with every row of the bounds' sub-buckets kept;
// none for the cells of a query with no WHERE; else the rows of the run —
// and returns the extended slice, grown once by exactly their count, with
// ok true. They are a superset of the rows the WHERE keeps outside the
// cells. It appends none and returns ok false when the plan has no index,
// or no cells and a run the column's sample puts more than indexCrossover
// of the rows in: exact mode scans most of such a run's morsels, and its
// candidates would be most of the table. err is a failed build of an
// edge's row list.
func (b Buckets) Edges(dst []int) (_ []int, ok bool, err error) {
	ix := &b.ix
	switch {
	case ix.vi == nil || ix.cells == nil && ix.vi.Fraction(ix.bl, ix.bh) > indexCrossover:
		return dst, false, nil
	case ix.cells != nil: // online mode's read keeps a bound's sub-bucket whole
		dst, _, err = ix.readEdges(dst, func(dst []int, k, j int, _, _ bool) ([]int, bool, error) {
			list, _, err := ix.vi.SubRows(k, j)
			return storage.MergeLists(dst, [][]int32{list}), err == nil, err
		})
		return dst, err == nil, err
	}
	morsels := ix.vi.Morsels()
	n := 0
	for m := 0; m < morsels; m++ {
		n += ix.vi.Count(m, ix.bl, ix.bh)
	}
	dst = slices.Grow(dst, n)
	for m := 0; m < morsels; m++ {
		if ix.vi.Count(m, ix.bl, ix.bh) > 0 {
			dst = ix.vi.Candidates(m, ix.bl, ix.bh, dst)
		}
	}
	return dst, true, nil
}

// chooseIndex picks, among the intervals on plain INT and FLOAT columns,
// the one whose bucket run the column's sample puts the fewest rows in —
// an empty interval's run holds none — and returns its column's value
// index at the given morsel size, or the zero rowIndex when no interval is
// on such a column. Only the chosen column's index is built. The choice,
// and the build on the column's first such query, run under an "index"
// span.
func chooseIndex(t *storage.Table, ivs []expr.Interval, morsel int, sp *trace.Span) (ix rowIndex, err error) {
	if disableIndex || len(ivs) == 0 {
		return ix, nil
	}
	isp := sp.Child("index")
	defer isp.End()
	best, frac := -1, 0.0
	for i, iv := range ivs {
		b, err := t.ValueBuckets(iv.Col)
		if err != nil {
			return ix, err
		}
		if b == nil {
			continue
		}
		if f := b.Fraction(bucketRun(b, iv)); best < 0 || f <= frac {
			best, frac = i, f
		}
	}
	if best < 0 {
		return ix, nil
	}
	iv := ivs[best]
	vi, built, err := t.ValueIndex(iv.Col, morsel)
	if vi == nil || err != nil {
		return ix, err
	}
	isp.SetStr("col", iv.Col)
	isp.SetBool("built", built)
	ix = rowIndex{col: iv.Col, vi: vi, pl: storage.Whole, ph: storage.Whole}
	ix.bl, ix.bh = bucketRun(vi.ValueBuckets, iv)
	ix.boundSubs(iv)
	return ix, nil
}
