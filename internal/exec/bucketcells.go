// Bucket cells: a range aggregate's interior answered from pre-aggregates.
// A typed aggregate whose WHERE is exactly the intervals of one or two
// plain INT or FLOAT columns, over at most one plain numeric input, asks
// one range column's bucket cells (storage.BucketCells) for its range's
// bucket run [bl, bh]. Every row of the buckets strictly between bl and bh
// satisfies that range, so their cells — one partial per (bucket, key) —
// are folded into the typed sink's state, and only the rows of the two
// edge buckets, read from the value index, go through Kernel.Refine into
// the sink as any morsel's rows do. No morsel is scanned. With one range
// the key is the dict group code of a scalar or dict-grouped aggregate;
// with two, the aggregate is scalar and the key is the second range
// column's value bucket, and only the cells whose key bucket lies wholly
// inside the second range are folded — the others lie wholly outside it.
// An aggregate with no WHERE is the range that covers every bucket of a
// column with no NULL: its run [-1, NumBuckets] has no edge bucket, so
// every cell is folded and no row is read.
//
// Exact mode's plan also cuts each edge bucket at its second level
// (storage.SubCells): the sub-cells of the sub-buckets between a bound
// and the interior fold with the interior's cells, and the edge reader
// (readEdges) refines only the rows of the index's sub-bucket holding the
// bound — about an eighth of the edge — and lists the rest of the level's
// sub-bucket from its row lists. RangeBuckets hands the same plan to
// cracked and online modes, which read the bound's sub-bucket their own
// way through the same reader.
//
// The fold follows the merge rules partials already obey: counts add, sums
// merge through rsum, a MIN/MAX tie goes to the earlier row, and a group's
// first row is the least of its cells' and its edge rows' — the typed sink
// orders rows by row id, as the cells do. So no answer can tell the cells
// path from a scan, a float SUM/AVG's included.
package exec

import (
	"math"

	"dex/internal/expr"
	"dex/internal/storage"
	"dex/internal/trace"
)

// disableBucketCells keeps range aggregates off the bucket cells — the
// candidate-path baseline the index parity tests compare against. Test-only;
// never set in production code.
var disableBucketCells bool

// cellShape names the columns cells would aggregate for the typed
// aggregation ak of q: its dictionary group column and its one plain
// numeric input, "" for none. why is "" for a cell shape, else it says
// what is not: no typed aggregation, a group key that is not
// dictionary-coded, a run-coded input, or inputs over two columns.
func cellShape(ak *aggKernel, q Query) (group, input, why string) {
	switch {
	case ak == nil:
		return "", "", "no typed sink"
	case ak.mode == gmDict:
		group = q.GroupBy[0]
	case ak.mode != gmScalar:
		return "", "", "group not dict-coded"
	}
	for i, spec := range ak.specs {
		switch spec.kind {
		case aiNone, aiCount:
		case aiI64, aiF64:
			if input != "" && input != q.Select[i].Col {
				return "", "", "multi-input"
			}
			input = q.Select[i].Col
		default:
			return "", "", "run-coded input"
		}
	}
	return group, input, ""
}

// chooseCells returns the bucket-cells index of a WHERE that is exactly
// the intervals ivs, when the typed aggregation ak has a cell shape and
// one interval, A, qualifies: its bucket run has an interior whose edge
// buckets the sample puts at most indexCrossover of the rows in — the
// candidate path's own limit, as the edges are its candidates: a value
// filling most of its column, an all-equal column, is cheaper scanned with
// everything else. With one interval the cells are keyed by the dict
// group column or nothing. Two intervals need a scalar aggregation; each
// is tried as A, and the other, B, keys the cells by its column's value
// buckets, which must all be resolved: each bucket's values lie all inside
// or all outside B. The splits settle that before anything is built, so
// an unaligned leaf never builds a set; the built cells settle B's two
// open-ended buckets. Otherwise it returns the zero rowIndex, and the
// caller tries the candidate path. The lookups, and the build on the first
// such query of a (column, key, input) triple, run under a "cells" span,
// whose built attribute is set once a set is asked for. The edges take
// their second level (subLevel), so a cracked or online query over the
// same plan reads only the parts exact mode refines.
func chooseCells(t *storage.Table, ivs []expr.Interval, ak *aggKernel, q Query, morsel int, sp *trace.Span) (ix rowIndex, err error) {
	group, input, why := cellShape(ak, q)
	if disableIndex || disableBucketCells || why != "" || len(ivs) > 2 || len(ivs) == 2 && group != "" {
		return ix, nil
	}
	csp := sp.Child("cells")
	defer csp.End()
	for a, iv := range ivs {
		key, kiv := group, (*expr.Interval)(nil)
		if len(ivs) == 2 {
			kiv = &ivs[1-a]
			key = kiv.Col
		}
		csp.SetStr("col", iv.Col)
		csp.SetStr("key", key)
		b, err := t.ValueBuckets(iv.Col)
		if err != nil {
			return ix, err
		}
		if b == nil {
			continue
		}
		if bl, bh := bucketRun(b, iv); bh-bl < 2 || b.Fraction(bl, bl)+b.Fraction(bh, bh) > indexCrossover {
			continue
		}
		if kiv != nil {
			kb, err := t.ValueBuckets(key)
			if err != nil {
				return ix, err
			}
			if kb == nil {
				continue
			}
			if _, _, ok := keyRun(kb, *kiv); !ok {
				continue
			}
		}
		cells, vi, built, err := t.BucketCells(iv.Col, key, input, morsel)
		csp.SetBool("built", built)
		if err != nil {
			return ix, err
		}
		if cells == nil {
			continue
		}
		ix = rowIndex{col: iv.Col, vi: vi, cells: cells, kh: math.MaxInt32} // every key
		if ix.bl, ix.bh = bucketRun(vi.ValueBuckets, iv); ix.bh-ix.bl < 2 {
			return rowIndex{}, nil // the bounds were redrawn meanwhile
		}
		if ix.keyed = kiv != nil; ix.keyed {
			var ok bool
			if ix.kl, ix.kh, ok = keyRun(cells, *kiv); !ok {
				return rowIndex{}, nil
			}
		}
		ix.csp = csp
		if err := ix.subLevel(iv); err != nil {
			return rowIndex{}, err
		}
		return ix, nil
	}
	return ix, nil
}

// subLevel cuts the plan's edge buckets at their second level, building
// each on its first such query: the lower edge at the sub-bucket holding
// the interval's lower bound, the upper at the one holding its upper
// bound. The sub-cells between them and the interior join the fold, and
// the edges' parts shrink to the two sub-buckets, which the edge reader
// reads (readEdges): the index's sub-bucket holding the bound, and the rest
// of the part listed. The cells span counts
// the sub-cells folded (sub_cells), says whether this query built a level
// (sub_built), and names the rule when an edge has none (sub_refused).
func (ix *rowIndex) subLevel(iv expr.Interval) error {
	ix.boundSubs(iv)
	lo, builtL, err := ix.cells.Sub(ix.bl)
	if err != nil {
		return err
	}
	hi, builtH, err := ix.cells.Sub(ix.bh)
	if err != nil {
		return err
	}
	ix.lo, ix.hi, ix.pl, ix.ph = lo, hi, lo.Part(ix.sl), hi.Part(ix.sh)
	if ix.csp != nil {
		n := 0
		for _, cells := range ix.subCells() {
			for i := range cells {
				if g := int(cells[i].Group); g >= ix.kl && g <= ix.kh {
					n++
				}
			}
		}
		ix.csp.SetInt("sub_cells", int64(n))
		ix.csp.SetBool("sub_built", builtL || builtH)
		if lo.Subs() == 1 || hi.Subs() == 1 {
			ix.csp.SetStr("sub_refused", "cells per row")
		}
	}
	return nil
}

// subCells returns the edges' sub-cells outside their parts — those the
// plan folds — none without a second level.
func (ix *rowIndex) subCells() [2][]storage.Cell {
	if ix.lo == nil {
		return [2][]storage.Cell{}
	}
	return [2][]storage.Cell{ix.lo.Above(ix.pl), ix.hi.Below(ix.ph)}
}

// chooseAllCells returns the bucket-cells index of an aggregate with no
// WHERE, when the typed aggregation ak has a cell shape: the range that
// covers every bucket of a column A, whose run has no edge bucket. A is
// the first plain INT or FLOAT column in schema order whose cell set
// passes the size rule and holds every row of the table; a NULL A lies in
// no cell, so a column whose bounds' sample met a NULL is passed over
// before anything is built, and one whose built cells miss a row after.
// With no such column it returns the zero rowIndex, and the query scans.
// The lookups, and the build on the first query of a (column, key, input)
// triple, run under a "cells" span whose range attribute is "all".
func chooseAllCells(t *storage.Table, ak *aggKernel, q Query, morsel int, sp *trace.Span) (ix rowIndex, err error) {
	group, input, why := cellShape(ak, q)
	if disableIndex || disableBucketCells || why != "" {
		return ix, nil
	}
	var csp *trace.Span
	defer func() { csp.End() }()
	for _, f := range t.Schema() {
		b, err := t.ValueBuckets(f.Name)
		if err != nil {
			return ix, err
		}
		if b == nil || b.Fraction(0, storage.NumBuckets-1) < 1 {
			continue
		}
		if csp == nil {
			csp = sp.Child("cells")
			csp.SetStr("range", "all")
			csp.SetStr("key", group)
		}
		csp.SetStr("col", f.Name)
		cells, vi, built, err := t.BucketCells(f.Name, group, input, morsel)
		csp.SetBool("built", built)
		if err != nil {
			return ix, err
		}
		if cells != nil && cells.Rows() == t.NumRows() {
			return rowIndex{col: f.Name, vi: vi, cells: cells, bl: -1, bh: storage.NumBuckets, kh: math.MaxInt32}, nil
		}
	}
	return ix, nil
}

// keyResolver resolves a key column's interval against its buckets: the
// column's bounds before its cells are built, the cells after.
type keyResolver interface {
	IntKeys(lo, hi int64) (kl, kh int, ok bool)
	FloatKeys(lo, hi float64) (kl, kh int, ok bool)
}

// keyRun maps an interval onto the run of its key column's buckets that
// lie wholly inside it; ok is false when a bucket straddles a bound.
func keyRun(r keyResolver, iv expr.Interval) (kl, kh int, ok bool) {
	if iv.Float {
		return r.FloatKeys(iv.FLo, iv.FHi)
	}
	return r.IntKeys(iv.ILo, iv.IHi)
}

// addCells folds the plan's cells whose keys lie in [kl, kh] — the
// interior's and the edges' sub-cells — into the sink's state and returns
// the rows they hold: into the first worker accumulator a morsel made,
// which no morsel touches any more.
func (s *typedSink) addCells(ix *rowIndex) (rows int) {
	var acc *aggAcc
	for _, a := range s.locals {
		if a != nil {
			acc = a
			break
		}
	}
	if acc == nil {
		acc = s.ak.newAcc()
		s.locals[0] = acc
	}
	rows = acc.addCells(ix.cells.Interior(ix.bl, ix.bh), ix.kl, ix.kh)
	for _, cells := range ix.subCells() {
		rows += acc.addCells(cells, ix.kl, ix.kh)
	}
	return rows
}

// addCells folds the cells whose keys lie in [kl, kh] into the
// accumulator, cell c into slot c.Group under a dict grouping, else slot
// 0, and returns the rows they hold; an empty cell leaves its group
// unseen. COUNT(*) and COUNT over a never-NULL column take a cell's rows,
// the other items its non-NULL count and sum, and MIN/MAX its extreme's
// row.
func (a *aggAcc) addCells(cells []storage.Cell, kl, kh int) (rows int) {
	dict := a.ak.mode == gmDict
	for i := range cells {
		c := &cells[i]
		if !cellIn(c, kl, kh) {
			continue
		}
		rows += c.Rows
		s := 0
		if dict {
			s = int(c.Group)
			switch f := a.firsts[s]; {
			case f < 0:
				a.firsts[s] = c.First
				a.unseen--
			case c.First < f:
				a.firsts[s] = c.First
			}
		}
		for j := range a.items {
			it := &a.items[j]
			switch {
			case it.spec.kind == aiNone:
			case it.spec.kind == aiCount:
				it.count[s] += int64(c.Rows)
			case it.has != nil:
				if c.N == 0 {
					continue
				}
				r := c.MinRow
				if it.sg < 0 {
					r = c.MaxRow
				}
				if it.iext != nil {
					mergeExt(it, it.iext, s, it.spec.i64[r], r)
				} else {
					mergeExt(it, it.fext, s, it.spec.f64[r], r)
				}
			case it.sum != nil:
				it.sum[s].Merge(&c.Sum)
				it.count[s] += int64(c.N)
			default: // COUNT over a FLOAT
				it.count[s] += int64(c.N)
			}
		}
	}
	return rows
}

// cellIn reports whether a fold over the keys [kl, kh] takes the cell c:
// it holds rows, and its key lies in the run.
func cellIn(c *storage.Cell, kl, kh int) bool {
	return c.Rows > 0 && int(c.Group) >= kl && int(c.Group) <= kh
}

// mergeExt is offer for an extreme met out of row order: it replaces the
// slot's extreme when it is strictly better, or equal and from an earlier
// row — aggState.merge's rule.
func mergeExt[T int64 | float64](it *aggItem, ext []T, s int, x T, r int) {
	if !it.has[s] || it.sg*float64(x) < it.sg*float64(ext[s]) ||
		float64(x) == float64(ext[s]) && r < it.at[s] {
		ext[s], it.at[s], it.has[s] = x, r, true
	}
}
