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
// The fold follows the merge rules partials already obey: counts and sums
// add, a MIN/MAX tie goes to the earlier row, and a group's first row is
// the least of its cells' and its edge rows' — the typed sink orders rows
// by row id, as the cells do. So only a float SUM/AVG can tell the cells
// path from a scan, by the association of its partials.
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
// whose built attribute is set once a set is asked for.
func chooseCells(t *storage.Table, ivs []expr.Interval, ak *aggKernel, q Query, morsel int, sp *trace.Span) (ix rowIndex, err error) {
	group, input, ok := cellShape(ak, q)
	if disableIndex || disableBucketCells || !ok || len(ivs) > 2 || len(ivs) == 2 && group != "" {
		return ix, nil
	}
	for _, iv := range ivs {
		if iv.Empty() {
			return ix, nil
		}
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
		if kiv != nil {
			if ix.kl, ix.kh, ok = keyRun(cells, *kiv); !ok {
				return rowIndex{}, nil
			}
		}
		return ix, nil
	}
	return ix, nil
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
	group, input, ok := cellShape(ak, q)
	if disableIndex || disableBucketCells || !ok {
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

// addCells folds the cells of the index's interior whose keys it covers
// into the sink's state and returns the rows they hold. A grouped sink
// folds them into the first worker accumulator a morsel made, which no
// morsel touches any more; a scalar one into one more partial, merged
// after the morsels'.
func (s *typedSink) addCells(ix *rowIndex) int {
	cells := ix.cells.Interior(ix.bl, ix.bh)
	if s.ak.mode == gmScalar {
		acc := s.ak.newAcc()
		rows := acc.addCells(cells, ix.kl, ix.kh)
		s.partials[len(s.partials)-1] = acc.states(0)
		return rows
	}
	for _, acc := range s.locals {
		if acc != nil {
			return acc.addCells(cells, ix.kl, ix.kh)
		}
	}
	s.locals[0] = s.ak.newAcc()
	return s.locals[0].addCells(cells, ix.kl, ix.kh)
}

// addCells folds the bucket cells whose keys lie in [kl, kh] into the
// accumulator, cell c into slot c.Group under a dict grouping, else slot
// 0, and returns the rows they hold; an empty cell leaves its group
// unseen. COUNT(*) and COUNT over a never-NULL column take a cell's rows,
// the other items its non-NULL count and sum, and MIN/MAX its extreme's
// row.
func (a *aggAcc) addCells(cells []storage.Cell, kl, kh int) (rows int) {
	dict := a.ak.mode == gmDict
	for i := range cells {
		c := &cells[i]
		if c.Rows == 0 || int(c.Group) < kl || int(c.Group) > kh {
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

// mergeExt is offer for an extreme met out of row order: it replaces the
// slot's extreme when it is strictly better, or equal and from an earlier
// row — aggState.merge's rule.
func mergeExt[T int64 | float64](it *aggItem, ext []T, s int, x T, r int) {
	if !it.has[s] || it.sg*float64(x) < it.sg*float64(ext[s]) ||
		float64(x) == float64(ext[s]) && r < it.at[s] {
		ext[s], it.at[s], it.has[s] = x, r, true
	}
}
