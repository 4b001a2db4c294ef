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
// the whole table breaks it, so only SUM/AVG cells get sumSlack. Merging
// the same parts in reverse order must give every COUNT, SUM and AVG the
// same bits.

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
	sp, parts, err := splitParts(tbl, q, cuts, opt)
	if err != nil {
		return nil, err
	}
	return sp.Merge(parts)
}

// splitParts executes Split(q)'s Push on each partition of tbl cut at cuts.
func splitParts(tbl *storage.Table, q Query, cuts []int, opt ExecOptions) (*Partials, []*storage.Table, error) {
	sp, err := Split(q)
	if err != nil {
		return nil, nil, err
	}
	parts := make([]*storage.Table, len(cuts)-1)
	for i := range parts {
		cols := make([]storage.Column, tbl.NumCols())
		for c := range cols {
			cols[c] = tbl.Column(c).Slice(cuts[i], cuts[i+1])
		}
		part, err := storage.FromColumns(tbl.Name(), tbl.Schema(), cols)
		if err != nil {
			return nil, nil, err
		}
		if parts[i], err = ExecuteCtx(context.Background(), part, sp.Push, opt); err != nil {
			return nil, nil, err
		}
	}
	return sp, parts, nil
}

// requirePartOrderFree merges parts in reverse order and holds every
// COUNT, SUM and AVG cell to the in-order merge's bit for bit: Merge folds
// the partials through the one order-free sum. Groups are matched by key,
// as keys that differ yet order level keep the order the parts first show
// them in, and so do MIN/MAX ties, which go to the earlier part.
func requirePartOrderFree(t *testing.T, label string, q Query, sp *Partials, parts []*storage.Table) {
	t.Helper()
	if !q.HasAggregates() {
		return
	}
	in, err := sp.Merge(parts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	reversed := slices.Clone(parts)
	slices.Reverse(reversed)
	out, err := sp.Merge(reversed)
	if err != nil {
		t.Fatalf("%s: reversed parts: %v", label, err)
	}
	key := func(tb *storage.Table, r int) string {
		k := ""
		for c, item := range q.Select {
			if item.Agg == AggNone {
				v := tb.Column(c).Value(r)
				k += fmt.Sprintf("%d/%d/%q/%x|", v.Typ, v.I, v.S, math.Float64bits(v.F))
			}
		}
		return k
	}
	rows := map[string]int{}
	for r := 0; r < out.NumRows(); r++ {
		rows[key(out, r)] = r
	}
	for r := 0; r < in.NumRows(); r++ {
		o, ok := rows[key(in, r)]
		if !ok {
			continue // cut by a LIMIT on a tie
		}
		for c, item := range q.Select {
			if fn := item.Agg; fn != AggCount && fn != AggSum && fn != AggAvg {
				continue
			}
			if a, b := in.Column(c).Value(r), out.Column(c).Value(o); !sameValue(a, b) {
				t.Fatalf("%s: cell [%d,%d] (%s) in part order %v, reversed %v", label, r, c, in.Schema()[c].Name, a, b)
			}
		}
	}
}

// sumSlack returns, per select item, the absolute slack a SUM/AVG merged
// from partitions is allowed: 1e-9·Σ|x| over the item's whole input column,
// zero for items that are not SUM/AVG. Each partition's SUM crosses to the
// merge rounded to one float64, and the value pools put ±9.2e18 next to 1
// and 42, so a group's SUM can cancel catastrophically: the partitions'
// rounded partials lose the small addends a sum over the whole table keeps,
// and the two differ by far more than any tolerance relative to the (tiny)
// result. Relative to the magnitude of what was added, both are exact.
func sumSlack(plain *storage.Table, q Query) []float64 {
	slack := make([]float64, len(q.Select))
	for i, item := range q.Select {
		if item.Agg != AggSum && item.Agg != AggAvg {
			continue
		}
		c, err := plain.ColumnByName(item.Col)
		if err != nil {
			continue
		}
		for r := 0; r < c.Len(); r++ {
			if x := math.Abs(c.Value(r).AsFloat()); !math.IsInf(x, 0) && !math.IsNaN(x) {
				slack[i] += 1e-9 * x
			}
		}
	}
	return slack
}

// requireMerged is requireIdentical with sumSlack, or a relative 1e-9, on
// SUM/AVG cells.
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
			finite := wv.Typ == storage.TFloat && gv.Typ == storage.TFloat &&
				!math.IsInf(wv.F, 0) && !math.IsInf(gv.F, 0) && !math.IsNaN(wv.F) && !math.IsNaN(gv.F)
			diff := math.Abs(wv.F - gv.F)
			if fn := q.Select[c].Agg; finite && (fn == AggSum || fn == AggAvg) &&
				(diff <= 1e-9*math.Max(math.Abs(wv.F), math.Abs(gv.F)) || diff <= slack[c]) {
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
			sp, parts, err := splitParts(arm.tbl, q, cuts, arm.opt)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requirePartOrderFree(t, label, q, sp, parts)
		}
	})
}
