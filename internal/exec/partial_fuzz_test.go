package exec

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"dex/internal/storage"
)

// The partitioned-execution differential fuzzer: the twin tables of
// FuzzAggKernelVsGeneric cut into one to four contiguous, in-order
// partitions (empty ones included), Split's Push run through the pipeline
// on each, and Merge's answer held to the reference evaluator over the whole
// table. Queries are afQuery's aggregates and group-bys — sometimes regrouped
// by the FLOAT column, whose NaN keys are NULL groups, sometimes stripped to
// their keys, a GROUP BY without aggregates — and rowQuery's projections. Merged groups come in key order under Value.Order, so the
// oracle's groups are re-sorted into it before ORDER BY and LIMIT. In-order
// partitions make every MIN/MAX tie and every row tie fall as a scan of
// the whole table breaks it, so only SUM/AVG cells get sumSlack.

// mergeOracle is the answer Merge must give: Execute's, with groups in key
// order under Value.Order, ties in first-seen order, then ORDER BY and
// LIMIT applied as Execute applies them.
func mergeOracle(plain *storage.Table, q Query) (*storage.Table, error) {
	if len(q.GroupBy) == 0 {
		return Execute(plain, q)
	}
	body := q
	body.OrderBy, body.Limit = nil, 0
	out, err := Execute(plain, body)
	if err != nil {
		return nil, err
	}
	keys := slices.Clone(q.OrderBy)
	for _, g := range q.GroupBy {
		keys = append(keys, OrderKey{Col: g})
	}
	for i := len(keys) - 1; i >= 0; i-- { // stable multi-key sort
		if out, err = out.SortBy(keys[i].Col, keys[i].Desc); err != nil {
			return nil, err
		}
	}
	if q.Limit > 0 && out.NumRows() > q.Limit {
		first := make([]int, q.Limit)
		for i := range first {
			first[i] = i
		}
		out = out.Gather(first)
	}
	return out, nil
}

// splitRun executes q partitioned at cuts over tbl and merges the partials.
func splitRun(tbl *storage.Table, q Query, cuts []int, opt ExecOptions) (*storage.Table, error) {
	sp, err := Split(q)
	if err != nil {
		return nil, err
	}
	parts := make([]*storage.Table, len(cuts)-1)
	for i := range parts {
		cols := make([]storage.Column, tbl.NumCols())
		for c := range cols {
			cols[c] = tbl.Column(c).Slice(cuts[i], cuts[i+1])
		}
		part, err := storage.FromColumns(tbl.Name(), tbl.Schema(), cols)
		if err != nil {
			return nil, err
		}
		if parts[i], err = ExecuteCtx(context.Background(), part, sp.Push, opt); err != nil {
			return nil, err
		}
	}
	return sp.Merge(parts)
}

// requireMerged is requireIdentical with sumSlack on SUM/AVG cells.
func requireMerged(t *testing.T, label string, q Query, slack []float64, want, got *storage.Table) {
	t.Helper()
	if want.Schema().String() != got.Schema().String() || want.NumRows() != got.NumRows() {
		t.Fatalf("%s: shape oracle=%s/%d got=%s/%d", label, want.Schema(), want.NumRows(), got.Schema(), got.NumRows())
	}
	for r := 0; r < want.NumRows(); r++ {
		for c := 0; c < want.NumCols(); c++ {
			wv, gv := want.Column(c).Value(r), got.Column(c).Value(r)
			if wv.Typ == gv.Typ && wv.I == gv.I && wv.S == gv.S && math.Float64bits(wv.F) == math.Float64bits(gv.F) {
				continue
			}
			if fn := q.Select[c].Agg; (fn == AggSum || fn == AggAvg) && valuesClose(wv, gv) {
				continue
			}
			finite := wv.Typ == storage.TFloat && gv.Typ == storage.TFloat &&
				!math.IsInf(wv.F, 0) && !math.IsInf(gv.F, 0) && !math.IsNaN(wv.F) && !math.IsNaN(gv.F)
			if finite && math.Abs(wv.F-gv.F) <= slack[c] {
				continue
			}
			t.Fatalf("%s: cell [%d,%d] (%s) oracle=%v got=%v (slack %g)",
				label, r, c, want.Schema()[c].Name, wv, gv, slack[c])
		}
	}
}

func FuzzMergeVsSingleNode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0})
	f.Add([]byte{40, 6, 4, 2, 0, 1, 3, 5, 9, 1, 2, 1, 1, 0, 1, 3})
	f.Add([]byte{128, 255, 254, 253, 252, 251, 250, 7, 7, 7, 2, 0, 1, 6, 5, 4, 3})
	f.Add([]byte{60, 7, 7, 6, 6, 5, 5, 4, 4, 3, 3, 2, 2, 1, 1, 0, 0, 250, 249, 248})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := &afReader{b: data}
		plain, enc := afTables(t, fr)
		n := plain.NumRows()
		var q Query
		if fr.draw(4) == 0 {
			q = rowQuery(fr, n)
		} else {
			q = afQuery(fr)
			if len(q.GroupBy) == 1 && fr.draw(3) == 0 {
				// A FLOAT group: NaN keys are NULL groups, ±Inf its ends.
				q.GroupBy, q.Select[0] = []string{"x"}, SelectItem{Col: "x"}
				for i := range q.OrderBy {
					q.OrderBy[i].Col = "x"
				}
			}
		}
		cuts := []int{0}
		for i := fr.draw(4); i > 0; i-- {
			cuts = append(cuts, n*fr.draw(256)/255)
		}
		cuts = append(cuts, n)
		slices.Sort(cuts)
		if len(q.GroupBy) > 0 && fr.draw(4) == 3 {
			// A GROUP BY without aggregates: one row per key, on any
			// number of partitions.
			q.Select = q.Select[:len(q.GroupBy)]
		}

		oracle, oracleErr := mergeOracle(plain, q)
		slack := sumSlack(plain, q)
		arms := []struct {
			name string
			tbl  *storage.Table
			opt  ExecOptions
		}{
			{"plain inline", plain, ExecOptions{Parallelism: 1}},
			{"encoded par2 m8", enc, ExecOptions{Parallelism: 2, MorselSize: 8}},
		}
		for _, arm := range arms {
			got, err := splitRun(arm.tbl, q, cuts, arm.opt)
			label := fmt.Sprintf("%s: q=%s rows=%d cuts=%v", arm.name, q, n, cuts)
			if (oracleErr == nil) != (err == nil) {
				t.Fatalf("%s: error mismatch oracle=%v got=%v", label, oracleErr, err)
			}
			if oracleErr != nil {
				continue
			}
			requireMerged(t, label, q, slack, oracle, got)
		}
	})
}
