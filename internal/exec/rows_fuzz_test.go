package exec

import (
	"context"
	"fmt"
	"math"
	"testing"

	"dex/internal/expr"
	"dex/internal/storage"
)

// The row-shape differential fuzzer, FuzzAggKernelVsGeneric's sibling over
// the same twin tables: projections with and without WHERE, ORDER BY one or
// two keys (ASC/DESC, over the int, float, dict and run-coded columns),
// LIMIT 0 / 1 / below / at-or-above the row count, and selection input. The
// value pools make ties common and carry NaN keys and int64s beyond 2^53
// (float64-equal, so the tie falls to input position). The pipeline's row
// sinks must equal the reference evaluator cell for cell and in order.

// rowQuery decodes a projection over {k, x, s, r}; n is the table's row
// count, which places the LIMIT draw.
func rowQuery(f *afReader, n int) Query {
	var q Query
	cols := []string{"k", "x", "s", "r"}
	start := f.draw(len(cols))
	for i := 0; i < 1+f.draw(len(cols)); i++ {
		q.Select = append(q.Select, SelectItem{Col: cols[(start+i)%len(cols)]})
	}
	for nk := f.draw(3); nk > 0; nk-- {
		q.OrderBy = append(q.OrderBy, OrderKey{Col: q.Select[f.draw(len(q.Select))].Col, Desc: f.draw(2) == 1})
	}
	q.Limit = []int{0, 1, 1 + f.draw(n+1), n + f.draw(3)}[f.draw(4)]
	ops := []expr.Op{expr.EQ, expr.NE, expr.LT, expr.LE, expr.GT, expr.GE}
	leaf := func() *expr.Pred {
		col := []string{"k", "x", "r"}[f.draw(3)]
		if f.draw(2) == 0 {
			return expr.Cmp(col, ops[f.draw(len(ops))], storage.Int(afInts[f.draw(len(afInts))]))
		}
		return expr.Cmp(col, ops[f.draw(len(ops))], storage.Float(afFloats[f.draw(len(afFloats))]))
	}
	switch f.draw(4) {
	case 1:
		q.Where = leaf()
	case 2:
		q.Where = expr.And(leaf(), leaf())
	case 3:
		q.Where = expr.Or(leaf(), leaf())
	}
	return q
}

// requireIdentical asserts b is a cell for cell, bit for bit copy of a.
func requireIdentical(t *testing.T, label string, a, b *storage.Table) {
	t.Helper()
	if a.Schema().String() != b.Schema().String() || a.NumRows() != b.NumRows() {
		t.Fatalf("%s: shape oracle=%s/%d got=%s/%d", label, a.Schema(), a.NumRows(), b.Schema(), b.NumRows())
	}
	for r := 0; r < a.NumRows(); r++ {
		for c := 0; c < a.NumCols(); c++ {
			av, bv := a.Column(c).Value(r), b.Column(c).Value(r)
			if av.Typ != bv.Typ || av.I != bv.I || av.S != bv.S || math.Float64bits(av.F) != math.Float64bits(bv.F) {
				t.Fatalf("%s: cell [%d,%d] (%s) oracle=%v got=%v", label, r, c, a.Schema()[c].Name, av, bv)
			}
		}
	}
}

// rowCase decodes one FuzzRowsVsOracle input; a non-nil sel is the
// selection the query runs over in place of its WHERE, sorted and with its
// repeats dropped, as ExecuteSel requires.
func rowCase(t *testing.T, data []byte) (plain, enc *storage.Table, q Query, sel []int) {
	fr := &afReader{b: data}
	plain, enc = afTables(t, fr)
	n := plain.NumRows()
	q = rowQuery(fr, n)
	if n > 0 && fr.draw(3) == 0 {
		sel = make([]int, fr.draw(2*n))
		for i := range sel {
			sel[i] = fr.draw(n)
		}
		sel = ascending(sel)
	}
	q.Where = narrowRange(fr, q.Where)
	return plain, enc, q, sel
}

func FuzzRowsVsOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0})
	f.Add([]byte{40, 6, 4, 2, 0, 1, 3, 5, 9, 1, 2, 1, 1, 0, 1, 3})
	f.Add([]byte{128, 255, 254, 253, 252, 251, 250, 7, 7, 7, 2, 0, 1, 6, 5, 4, 3})
	f.Add([]byte{60, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 2, 2, 3, 1, 2, 0, 0, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		plain, enc, q, sel := rowCase(t, data)
		var oracle *storage.Table
		var oracleErr error
		if sel == nil {
			oracle, oracleErr = Execute(plain, q)
		} else {
			q.Where = nil
			oracle, oracleErr = Execute(plain.Gather(sel), q)
		}
		for _, arm := range fuzzArms {
			tbl := plain
			if arm.enc {
				tbl = enc
			}
			var got *storage.Table
			var err error
			if sel == nil {
				got, err = ExecuteOpts(tbl, q, arm.opt)
			} else {
				got, err = ExecuteSel(context.Background(), tbl, Buckets{}, sel, q, arm.opt)
			}
			label := fmt.Sprintf("%s: q=%s rows=%d sel=%v", arm.name, q, plain.NumRows(), sel != nil)
			if (oracleErr == nil) != (err == nil) {
				t.Fatalf("%s: error mismatch oracle=%v got=%v", label, oracleErr, err)
			}
			if oracleErr != nil {
				continue
			}
			requireIdentical(t, label, oracle, got)
		}
	})
}
