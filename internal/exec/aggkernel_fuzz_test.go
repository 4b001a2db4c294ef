package exec

import (
	"fmt"
	"math"
	"testing"

	"dex/internal/expr"
	"dex/internal/storage"
)

// The aggregation differential fuzzer, the FuzzKernelVsGeneric pattern one
// layer up: every byte string decodes to twin tables (plain and dict/RLE
// encoded forms of the same rows) plus an aggregate or group-by query, and
// the pipeline — typed filter or generic behind an uncompilable predicate,
// typed sink or generic, inline and parallel, over both representations —
// must match the reference evaluator Execute. Value pools carry the adversarial
// cases: NaN/±Inf floats, int64 extremes, values straddling 2^53 (where
// the typed min/max tie-breaking must mirror Value.Compare's float64
// domain), empty tables and empty selections.

// afReader turns fuzz bytes into bounded draws; exhausted input yields
// zeros, so every prefix of a crashing input is itself a valid input.
type afReader struct {
	b []byte
	i int
}

func (f *afReader) next() byte {
	if f.i >= len(f.b) {
		return 0
	}
	v := f.b[f.i]
	f.i++
	return v
}

func (f *afReader) draw(n int) int { return int(f.next()) % n }

var (
	afInts = []int64{0, 1, -1, 42, -500, 500, math.MinInt64, math.MaxInt64,
		1 << 53, 1<<53 + 1, -(1<<53 + 1)}
	afFloats = []float64{0, 1.5, -2.75, 100, math.NaN(), math.Inf(1),
		math.Inf(-1), float64(1 << 53), 42}
	afLabels = []string{"", "a", "oak", "zzz"}
)

// afTables decodes one table's worth of rows into plain and encoded twins
// over the schema {k INT, x FLOAT, s TEXT, r INT(clustered)}.
func afTables(t *testing.T, f *afReader) (plain, enc *storage.Table) {
	t.Helper()
	n := f.draw(256) * 2 // includes 0: the empty table
	ki := make([]int64, n)
	xf := make([]float64, n)
	ss := make([]string, n)
	ri := make([]int64, n)
	run := int64(0)
	for i := 0; i < n; i++ {
		ki[i] = afInts[f.draw(len(afInts))]
		xf[i] = afFloats[f.draw(len(afFloats))]
		ss[i] = afLabels[f.draw(len(afLabels))]
		if i == 0 || f.draw(4) == 0 { // value-clustered: ~4-row runs
			run = int64(f.draw(5))
		}
		ri[i] = run
	}
	schema := storage.Schema{
		{Name: "k", Type: storage.TInt},
		{Name: "x", Type: storage.TFloat},
		{Name: "s", Type: storage.TString},
		{Name: "r", Type: storage.TInt},
	}
	mk := func(cols []storage.Column) *storage.Table {
		tab, err := storage.FromColumns("t", schema, cols)
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	plain = mk([]storage.Column{
		&storage.IntColumn{V: ki}, &storage.FloatColumn{V: xf},
		&storage.StringColumn{V: ss}, &storage.IntColumn{V: ri},
	})
	enc = mk([]storage.Column{
		&storage.IntColumn{V: ki}, &storage.FloatColumn{V: xf},
		storage.EncodeDict(ss), storage.EncodeRLE(ri),
	})
	return plain, enc
}

// afQuery decodes an aggregate or group-by query: scalar aggregates over
// the numeric and string columns, single-column groups over int / string /
// clustered keys, occasionally a multi-column group (which exercises the
// compile fallback), plus optional WHERE in three flavors — none (dense
// ranges straight into the sink), a specializable conjunction (typed
// filter), or an OR (generic filter feeding the typed sink).
func afQuery(f *afReader) Query {
	var q Query
	numAggs := []AggFunc{AggCount, AggSum, AggAvg, AggMin, AggMax}
	strAggs := []AggFunc{AggCount, AggMin, AggMax}
	addAggs := func() {
		q.Select = append(q.Select, SelectItem{Col: "*", Agg: AggCount})
		for n := 1 + f.draw(3); n > 0; n-- {
			switch f.draw(4) {
			case 0:
				q.Select = append(q.Select, SelectItem{Col: "k", Agg: numAggs[f.draw(len(numAggs))]})
			case 1:
				q.Select = append(q.Select, SelectItem{Col: "x", Agg: numAggs[f.draw(len(numAggs))]})
			case 2:
				q.Select = append(q.Select, SelectItem{Col: "r", Agg: numAggs[f.draw(len(numAggs))]})
			default:
				q.Select = append(q.Select, SelectItem{Col: "s", Agg: strAggs[f.draw(len(strAggs))]})
			}
		}
	}
	switch f.draw(5) {
	case 0: // scalar aggregates
		addAggs()
	case 1: // int group
		q.GroupBy = []string{"k"}
		q.Select = []SelectItem{{Col: "k"}}
		addAggs()
	case 2: // string group (dict-coded on the encoded twin)
		q.GroupBy = []string{"s"}
		q.Select = []SelectItem{{Col: "s"}}
		addAggs()
	case 3: // clustered group (run-coded on the encoded twin)
		q.GroupBy = []string{"r"}
		q.Select = []SelectItem{{Col: "r"}}
		addAggs()
	default: // multi-column group: always a compile fallback
		q.GroupBy = []string{"s", "r"}
		q.Select = []SelectItem{{Col: "s"}, {Col: "r"}}
		addAggs()
	}
	ops := []expr.Op{expr.EQ, expr.NE, expr.LT, expr.LE, expr.GT, expr.GE}
	leaf := func() *expr.Pred {
		col := []string{"k", "x", "r"}[f.draw(3)]
		op := ops[f.draw(len(ops))]
		if f.draw(2) == 0 {
			return expr.Cmp(col, op, storage.Int(afInts[f.draw(len(afInts))]))
		}
		return expr.Cmp(col, op, storage.Float(afFloats[f.draw(len(afFloats))]))
	}
	switch f.draw(4) {
	case 0: // no WHERE: the dense path
	case 1:
		q.Where = leaf()
	case 2:
		q.Where = expr.And(leaf(), leaf())
	default: // OR never compiles: typed accumulation behind the generic filter
		q.Where = expr.Or(leaf(), leaf())
	}
	if len(q.GroupBy) > 0 && f.draw(3) == 0 {
		q.OrderBy = []OrderKey{{Col: q.GroupBy[0], Desc: f.draw(2) == 1}}
	}
	if f.draw(4) == 0 {
		q.Limit = 1 + f.draw(10)
	}
	return q
}

// narrowRange draws, from what is left of the input, an optional narrow
// range to AND onto where: one pool value of the INT column k or of the
// FLOAT column x, as a two-sided range, which the value index serves from
// its candidates on most morsels and skips on many. Draws past the end of
// the input are zeros, which leave where alone, so corpus entries from
// before this draw decode as they always did.
func narrowRange(f *afReader, where *expr.Pred) *expr.Pred {
	var r *expr.Pred
	switch f.draw(3) {
	case 0:
		return where
	case 1:
		v := storage.Int(afInts[f.draw(len(afInts))])
		r = expr.Between("k", v, v)
	default:
		v := storage.Float(afFloats[f.draw(len(afFloats))])
		r = expr.Between("x", v, v)
	}
	if where == nil {
		return r
	}
	return expr.And(where, r)
}

// fuzzArms are the execution shapes both pipeline fuzzers hold to the
// oracle: inline and parallel, plain and encoded twin, several morsel sizes.
var fuzzArms = []struct {
	name string
	enc  bool
	opt  ExecOptions
}{
	{"plain inline", false, ExecOptions{Parallelism: 1}},
	{"plain par3 m16", false, ExecOptions{Parallelism: 3, MorselSize: 16}},
	{"encoded par2 m8", true, ExecOptions{Parallelism: 2, MorselSize: 8}},
	{"encoded par4 m32", true, ExecOptions{Parallelism: 4, MorselSize: 32}},
}

// aggCase decodes one FuzzAggKernelVsGeneric input.
func aggCase(t *testing.T, data []byte) (plain, enc *storage.Table, q Query) {
	fr := &afReader{b: data}
	plain, enc = afTables(t, fr)
	q = afQuery(fr)
	q.Where = narrowRange(fr, q.Where)
	return plain, enc, q
}

func FuzzAggKernelVsGeneric(f *testing.F) {
	f.Add([]byte{})                        // empty table, zero-byte query
	f.Add([]byte{1, 0})                    // two rows of zeros
	f.Add([]byte{40, 6, 4, 2, 0, 1, 3, 5}) // mid-size mixed table
	f.Add([]byte{128, 255, 254, 253, 252, 251, 250, 7, 7, 7, 2, 0, 1, 6, 5, 4, 3})
	f.Add([]byte{16, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6, 2, 6})
	f.Add([]byte{60, 7, 7, 6, 6, 5, 5, 4, 4, 3, 3, 2, 2, 1, 1, 0, 0, 250, 249, 248})
	f.Fuzz(func(t *testing.T, data []byte) {
		plain, enc, q := aggCase(t, data)
		oracle, oracleErr := Execute(plain, q)
		for _, arm := range fuzzArms {
			tbl := plain
			if arm.enc {
				tbl = enc
			}
			got, err := ExecuteOpts(tbl, q, arm.opt)
			label := fmt.Sprintf("%s: q=%s rows=%d", arm.name, q, plain.NumRows())
			if (oracleErr == nil) != (err == nil) {
				t.Fatalf("%s: error mismatch oracle=%v got=%v", label, oracleErr, err)
			}
			if oracleErr != nil {
				continue
			}
			requireSameTable(t, label, oracle, got)
		}
	})
}
