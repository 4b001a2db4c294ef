// Bucket cells: a range aggregate's interior answered from pre-aggregates.
// A typed scalar or dict-grouped aggregate whose WHERE is one range on a
// plain INT or FLOAT column, over at most one plain numeric input, asks
// its column's bucket cells (storage.BucketCells) for the range's bucket
// run [bl, bh]. Every row of the buckets strictly between bl and bh
// satisfies the range, so their cells — one partial per (bucket, group
// code) — are folded into the typed sink's state, and only the rows of the
// two edge buckets, read from the value index, go through Kernel.Refine
// into the sink as any morsel's rows do. No morsel is scanned.
//
// The fold follows the merge rules partials already obey: counts and sums
// add, a MIN/MAX tie goes to the earlier row, and a group's first row is
// the least of its cells' and its edge rows' — the typed sink's positions
// on a dense input are row ids, as the cells' are. So only a float SUM/AVG
// can tell the cells path from a scan, by the association of its partials.
package exec

import (
	"dex/internal/expr"
	"dex/internal/storage"
	"dex/internal/trace"
)

// disableBucketCells keeps range aggregates off the bucket cells — the
// candidate-path baseline the index parity tests compare against. Test-only;
// never set in production code.
var disableBucketCells bool

// cellShape names the columns bucket cells would aggregate for the typed
// aggregation ak of q: its dictionary group column and its one plain
// numeric input, "" for none. ok is false for any other shape: a group key
// that is not dictionary-coded, a run-coded input, or inputs over two
// columns.
func cellShape(ak *aggKernel, q Query) (group, input string, ok bool) {
	switch {
	case ak == nil:
		return "", "", false
	case ak.mode == gmDict:
		group = q.GroupBy[0]
	case ak.mode != gmScalar:
		return "", "", false
	}
	for i, spec := range ak.specs {
		switch spec.kind {
		case aiNone, aiCount:
		case aiI64, aiF64:
			if input != "" && input != q.Select[i].Col {
				return "", "", false
			}
			input = q.Select[i].Col
		default:
			return "", "", false
		}
	}
	return group, input, true
}

// chooseCells returns the bucket-cells index of a WHERE that is exactly
// the one interval iv, when the typed aggregation ak has a cell shape and
// iv's bucket run has an interior whose edge buckets the sample puts at
// most indexCrossover of the rows in — the candidate path's own limit, as
// the edges are its candidates: a value filling most of its column, an
// all-equal column, is cheaper scanned with everything else; else the
// zero rowIndex, and the caller tries the candidate path. The lookup, and the build on the first
// such query of a (column, group, input) triple, run under a "cells"
// span, whose built attribute is set once the range has an interior.
func chooseCells(t *storage.Table, iv expr.Interval, ak *aggKernel, q Query, morsel int, sp *trace.Span) (ix rowIndex, err error) {
	group, input, ok := cellShape(ak, q)
	if disableIndex || disableBucketCells || !ok || iv.Empty() {
		return ix, nil
	}
	csp := sp.Child("cells")
	defer csp.End()
	csp.SetStr("col", iv.Col)
	csp.SetStr("group", group)
	b, err := t.ValueBuckets(iv.Col)
	if b == nil || err != nil {
		return ix, err
	}
	if bl, bh := bucketRun(b, iv); bh-bl < 2 || b.Fraction(bl, bl)+b.Fraction(bh, bh) > indexCrossover {
		return ix, nil
	}
	cells, vi, built, err := t.BucketCells(iv.Col, group, input, morsel)
	csp.SetBool("built", built)
	if cells == nil || err != nil {
		return ix, err
	}
	ix = rowIndex{col: iv.Col, vi: vi, cells: cells}
	if ix.bl, ix.bh = bucketRun(vi.ValueBuckets, iv); ix.bh-ix.bl < 2 {
		return rowIndex{}, nil // the bounds were redrawn meanwhile
	}
	return ix, nil
}

// addCells folds the interior's cells into the sink's state and returns
// the rows they hold. A grouped sink folds them into the first worker
// accumulator a morsel made, which no morsel touches any more; a scalar
// one into one more partial, merged after the morsels'.
func (s *typedSink) addCells(cells []storage.Cell) int {
	if s.ak.mode == gmScalar {
		acc := s.ak.newAcc()
		rows := acc.addCells(cells)
		s.partials[len(s.partials)-1] = acc.states(0)
		return rows
	}
	for _, acc := range s.locals {
		if acc != nil {
			return acc.addCells(cells)
		}
	}
	s.locals[0] = s.ak.newAcc()
	return s.locals[0].addCells(cells)
}

// addCells folds bucket cells into the accumulator, cell c into slot
// c.Group (slot 0 for scalar aggregation), and returns the rows they hold;
// an empty cell leaves its group unseen.
// COUNT(*) and COUNT over a never-NULL column take a cell's rows, the
// other items its non-NULL count and sum, and MIN/MAX its extreme's row.
func (a *aggAcc) addCells(cells []storage.Cell) (rows int) {
	dict := a.ak.mode == gmDict
	for i := range cells {
		c := &cells[i]
		if c.Rows == 0 {
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
				it.sum[s] += c.Sum
				it.count[s] += int64(c.N)
			default: // COUNT over a FLOAT
				it.count[s] += int64(c.N)
			}
		}
	}
	return rows
}

// mergeExt is offer for an extreme met out of input order: it replaces
// the slot's extreme when it is strictly better, or equal and from an
// earlier position — aggState.merge's rule.
func mergeExt[T int64 | float64](it *aggItem, ext []T, s int, x T, pos int) {
	if !it.has[s] || it.sg*float64(x) < it.sg*float64(ext[s]) ||
		float64(x) == float64(ext[s]) && pos < it.at[s] {
		ext[s], it.at[s], it.has[s] = x, pos, true
	}
}
