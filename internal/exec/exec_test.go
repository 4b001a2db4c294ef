package exec

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dex/internal/expr"
	"dex/internal/storage"
)

func mkSales(t *testing.T) *storage.Table {
	t.Helper()
	tbl, err := storage.NewTable("sales", storage.Schema{
		{Name: "region", Type: storage.TString},
		{Name: "amount", Type: storage.TFloat},
		{Name: "qty", Type: storage.TInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		r string
		a float64
		q int64
	}{
		{"east", 10, 1}, {"west", 20, 2}, {"east", 30, 3},
		{"north", 5, 1}, {"west", 40, 4}, {"east", 8, 2},
	}
	for _, r := range rows {
		if err := tbl.AppendRow(storage.String_(r.r), storage.Float(r.a), storage.Int(r.q)); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestProjectWhereOrderLimit(t *testing.T) {
	tbl := mkSales(t)
	res, err := Execute(tbl, Query{
		Select:  []SelectItem{{Col: "region"}, {Col: "amount"}},
		Where:   expr.Cmp("amount", GTf(), storage.Float(9)),
		OrderBy: []OrderKey{{Col: "amount", Desc: true}},
		Limit:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", res.NumRows())
	}
	if res.Row(0)[1].F != 40 || res.Row(1)[1].F != 30 {
		t.Errorf("top amounts = %v,%v", res.Row(0)[1], res.Row(1)[1])
	}
}

// TestOrderByPutsNullsLast is the regression test for ORDER BY over NULLs:
// Value.Compare calls NaN equal to everything, so a sort by it is not
// transitive and left [3, NaN, 1, 2] unsorted. NULL sorts after every
// number — last ascending, first descending — in the reference evaluator,
// the pipeline's row sinks (with and without LIMIT) and finish's sort of
// an aggregate output.
func TestOrderByPutsNullsLast(t *testing.T) {
	nan := math.NaN()
	tbl, err := storage.FromColumns("t", storage.Schema{{Name: "x", Type: storage.TFloat}, {Name: "g", Type: storage.TInt}},
		[]storage.Column{storage.NewFloatColumn([]float64{3, nan, 1, 2}), storage.NewIntColumn([]int64{0, 1, 2, 3})})
	if err != nil {
		t.Fatal(err)
	}
	grouped := []SelectItem{{Col: "g"}, {Col: "x", Agg: AggMax, As: "x"}}
	for _, tc := range []struct {
		q    Query
		want []float64
	}{
		{Query{Select: []SelectItem{{Col: "x"}}, OrderBy: []OrderKey{{Col: "x"}}}, []float64{1, 2, 3, nan}},
		{Query{Select: []SelectItem{{Col: "x"}}, OrderBy: []OrderKey{{Col: "x", Desc: true}}}, []float64{nan, 3, 2, 1}},
		{Query{Select: []SelectItem{{Col: "x"}}, OrderBy: []OrderKey{{Col: "x"}}, Limit: 3}, []float64{1, 2, 3}},
		{Query{Select: []SelectItem{{Col: "x"}}, OrderBy: []OrderKey{{Col: "x", Desc: true}}, Limit: 2}, []float64{nan, 3}},
		{Query{Select: []SelectItem{{Col: "x"}}, OrderBy: []OrderKey{{Col: "x"}}, Limit: -1}, []float64{1, 2, 3, nan}}, // no limit
		{Query{Select: grouped, GroupBy: []string{"g"}, OrderBy: []OrderKey{{Col: "x"}}}, []float64{1, 2, 3, nan}},
	} {
		for _, engine := range []struct {
			name string
			run  func() (*storage.Table, error)
		}{
			{"Execute", func() (*storage.Table, error) { return Execute(tbl, tc.q) }},
			{"pipeline", func() (*storage.Table, error) {
				return ExecuteOpts(tbl, tc.q, ExecOptions{Parallelism: 2, MorselSize: 1})
			}},
		} {
			res, err := engine.run()
			if err != nil {
				t.Fatal(err)
			}
			x := res.Column(res.Schema().Index("x")).(*storage.FloatColumn).V
			same := len(x) == len(tc.want)
			for i := 0; same && i < len(x); i++ {
				same = x[i] == tc.want[i] || math.IsNaN(x[i]) && math.IsNaN(tc.want[i])
			}
			if !same {
				t.Errorf("%s %s: x = %v, want %v", engine.name, tc.q, x, tc.want)
			}
		}
	}
}

// TestOrderByUnsortedDictionary: a dictionary extended by Append is no
// longer in value order, so ORDER BY must rank its codes by value.
func TestOrderByUnsortedDictionary(t *testing.T) {
	s := storage.EncodeDict([]string{"m", "b", "m", "z"})
	for _, v := range []string{"a", "c", "b"} {
		if err := s.Append(storage.String_(v)); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := storage.FromColumns("t", storage.Schema{{Name: "s", Type: storage.TString}}, []storage.Column{s})
	if err != nil {
		t.Fatal(err)
	}
	rows := []SelectItem{{Col: "s"}}
	grouped := []SelectItem{{Col: "s"}, {Col: "*", Agg: AggCount, As: "n"}}
	for _, tc := range []struct {
		q    Query
		want []string
	}{
		{Query{Select: rows, OrderBy: []OrderKey{{Col: "s"}}}, []string{"a", "b", "b", "c", "m", "m", "z"}},
		{Query{Select: rows, OrderBy: []OrderKey{{Col: "s"}}, Limit: 2}, []string{"a", "b"}},
		{Query{Select: rows, OrderBy: []OrderKey{{Col: "s", Desc: true}}, Limit: 3}, []string{"z", "m", "m"}},
		{Query{Select: grouped, GroupBy: []string{"s"}, OrderBy: []OrderKey{{Col: "s", Desc: true}}}, []string{"z", "m", "c", "b", "a"}},
	} {
		for _, engine := range []struct {
			name string
			run  func() (*storage.Table, error)
		}{
			{"Execute", func() (*storage.Table, error) { return Execute(tbl, tc.q) }},
			{"pipeline", func() (*storage.Table, error) {
				return ExecuteOpts(tbl, tc.q, ExecOptions{Parallelism: 2, MorselSize: 2})
			}},
		} {
			res, err := engine.run()
			if err != nil {
				t.Fatal(err)
			}
			col := res.Column(res.Schema().Index("s"))
			got := make([]string, col.Len())
			for i := range got {
				got[i] = col.Value(i).S
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("%s %s: s = %v, want %v", engine.name, tc.q, got, tc.want)
			}
		}
	}
}

// GTf avoids an import cycle-free literal for expr.GT in table-driven tests.
func GTf() expr.Op { return expr.GT }

func TestScalarAggregates(t *testing.T) {
	tbl := mkSales(t)
	res, err := Execute(tbl, Query{
		Select: []SelectItem{
			{Col: "*", Agg: AggCount},
			{Col: "amount", Agg: AggSum},
			{Col: "amount", Agg: AggAvg},
			{Col: "amount", Agg: AggMin},
			{Col: "amount", Agg: AggMax},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	row := res.Row(0)
	if row[0].I != 6 {
		t.Errorf("count = %v", row[0])
	}
	if row[1].F != 113 {
		t.Errorf("sum = %v", row[1])
	}
	if math.Abs(row[2].F-113.0/6) > 1e-9 {
		t.Errorf("avg = %v", row[2])
	}
	if row[3].F != 5 || row[4].F != 40 {
		t.Errorf("min/max = %v/%v", row[3], row[4])
	}
}

func TestScalarAggregateEmptySelection(t *testing.T) {
	tbl := mkSales(t)
	res, err := Execute(tbl, Query{
		Select: []SelectItem{{Col: "*", Agg: AggCount}, {Col: "amount", Agg: AggAvg}},
		Where:  expr.Cmp("amount", expr.GT, storage.Float(1e9)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Row(0)[0].I != 0 {
		t.Errorf("count = %v, want 0", res.Row(0)[0])
	}
	if !math.IsNaN(res.Row(0)[1].F) {
		t.Errorf("avg of empty = %v, want NaN", res.Row(0)[1])
	}
}

func TestGroupBy(t *testing.T) {
	tbl := mkSales(t)
	res, err := Execute(tbl, Query{
		Select: []SelectItem{
			{Col: "region"},
			{Col: "amount", Agg: AggSum},
			{Col: "*", Agg: AggCount},
		},
		GroupBy: []string{"region"},
		OrderBy: []OrderKey{{Col: "region"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 3 {
		t.Fatalf("groups = %d, want 3", res.NumRows())
	}
	want := map[string]struct {
		sum float64
		n   int64
	}{
		"east": {48, 3}, "north": {5, 1}, "west": {60, 2},
	}
	for r := 0; r < res.NumRows(); r++ {
		row := res.Row(r)
		w := want[row[0].S]
		if row[1].F != w.sum || row[2].I != w.n {
			t.Errorf("group %s = (%v,%v), want %v", row[0].S, row[1], row[2], w)
		}
	}
}

func TestGroupByMultiKeyAndWhere(t *testing.T) {
	tbl := mkSales(t)
	res, err := Execute(tbl, Query{
		Select: []SelectItem{
			{Col: "region"}, {Col: "qty"},
			{Col: "amount", Agg: AggMax},
		},
		Where:   expr.Cmp("qty", expr.LE, storage.Int(2)),
		GroupBy: []string{"region", "qty"},
		OrderBy: []OrderKey{{Col: "region"}, {Col: "qty"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// qty<=2 rows: east/1/10, west/2/20, north/1/5, east/2/8 -> 4 groups
	if res.NumRows() != 4 {
		t.Fatalf("groups = %d, want 4", res.NumRows())
	}
	if res.Row(0)[0].S != "east" || res.Row(0)[1].I != 1 || res.Row(0)[2].F != 10 {
		t.Errorf("first group = %v", res.Row(0))
	}
}

func TestMixedSelectError(t *testing.T) {
	tbl := mkSales(t)
	_, err := Execute(tbl, Query{
		Select: []SelectItem{{Col: "region"}, {Col: "amount", Agg: AggSum}},
	})
	if !errors.Is(err, ErrMixedSelect) {
		t.Errorf("err = %v, want ErrMixedSelect", err)
	}
	_, err = Execute(tbl, Query{
		Select:  []SelectItem{{Col: "qty"}, {Col: "amount", Agg: AggSum}},
		GroupBy: []string{"region"},
	})
	if !errors.Is(err, ErrMixedSelect) {
		t.Errorf("group err = %v, want ErrMixedSelect", err)
	}
}

func TestAggregateOverStringError(t *testing.T) {
	tbl := mkSales(t)
	_, err := Execute(tbl, Query{Select: []SelectItem{{Col: "region", Agg: AggSum}}})
	if !errors.Is(err, ErrBadAggregate) {
		t.Errorf("err = %v, want ErrBadAggregate", err)
	}
	// MIN/MAX over strings is legal.
	res, err := Execute(tbl, Query{Select: []SelectItem{{Col: "region", Agg: AggMin}, {Col: "region", Agg: AggMax}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Row(0)[0].S != "east" || res.Row(0)[1].S != "west" {
		t.Errorf("min/max string = %v", res.Row(0))
	}
}

func TestEmptySelectError(t *testing.T) {
	tbl := mkSales(t)
	if _, err := Execute(tbl, Query{}); !errors.Is(err, ErrEmptySelect) {
		t.Errorf("err = %v", err)
	}
}

func TestSelectItemNames(t *testing.T) {
	if (SelectItem{Col: "x", Agg: AggSum}).Name() != "sum(x)" {
		t.Error("agg name")
	}
	if (SelectItem{Col: "x", Agg: AggSum, As: "total"}).Name() != "total" {
		t.Error("alias name")
	}
	if (SelectItem{Col: "x"}).Name() != "x" {
		t.Error("plain name")
	}
}

func TestQueryString(t *testing.T) {
	q := Query{
		Select:  []SelectItem{{Col: "region"}, {Col: "amount", Agg: AggSum}},
		Where:   expr.Cmp("qty", expr.GT, storage.Int(1)),
		GroupBy: []string{"region"},
		OrderBy: []OrderKey{{Col: "region", Desc: true}},
		Limit:   5,
	}
	want := "SELECT region, SUM(amount) WHERE qty > 1 GROUP BY region ORDER BY region DESC LIMIT 5"
	if got := q.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestJoin(t *testing.T) {
	orders, _ := storage.NewTable("orders", storage.Schema{
		{Name: "oid", Type: storage.TInt}, {Name: "cust", Type: storage.TInt}, {Name: "amt", Type: storage.TFloat},
	})
	for _, r := range [][3]int64{{1, 10, 100}, {2, 20, 200}, {3, 10, 300}, {4, 99, 400}} {
		_ = orders.AppendRow(storage.Int(r[0]), storage.Int(r[1]), storage.Float(float64(r[2])))
	}
	custs, _ := storage.NewTable("custs", storage.Schema{
		{Name: "cust", Type: storage.TInt}, {Name: "name", Type: storage.TString},
	})
	_ = custs.AppendRow(storage.Int(10), storage.String_("ann"))
	_ = custs.AppendRow(storage.Int(20), storage.String_("bob"))

	j, err := Join(orders, custs, "cust", "cust")
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() != 3 {
		t.Fatalf("join rows = %d, want 3", j.NumRows())
	}
	// Collided key column is prefixed.
	if j.Schema().Index("custs.cust") < 0 {
		t.Errorf("schema = %v", j.Schema())
	}
	names := map[int64]string{}
	cOid, _ := j.ColumnByName("oid")
	cName, _ := j.ColumnByName("name")
	for i := 0; i < j.NumRows(); i++ {
		names[cOid.Value(i).I] = cName.Value(i).S
	}
	if names[1] != "ann" || names[2] != "bob" || names[3] != "ann" {
		t.Errorf("join names = %v", names)
	}
	if _, ok := names[4]; ok {
		t.Error("unmatched row leaked into inner join")
	}
}

func TestJoinMissingKey(t *testing.T) {
	tbl := mkSales(t)
	if _, err := Join(tbl, tbl, "nope", "region"); err == nil {
		t.Error("want error for missing left key")
	}
	if _, err := Join(tbl, tbl, "region", "nope"); err == nil {
		t.Error("want error for missing right key")
	}
}

// Property: SUM/COUNT from group-by equal the per-group oracle computed by
// direct iteration, on random data.
func TestGroupByMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 200
		groups := []string{"a", "b", "c", "d"}
		gcol := make([]string, n)
		vcol := make([]float64, n)
		oracleSum := map[string]float64{}
		oracleN := map[string]int64{}
		for i := 0; i < n; i++ {
			g := groups[rng.Intn(len(groups))]
			v := rng.Float64() * 100
			gcol[i] = g
			vcol[i] = v
			oracleSum[g] += v
			oracleN[g]++
		}
		tbl, err := storage.FromColumns("r", storage.Schema{
			{Name: "g", Type: storage.TString}, {Name: "v", Type: storage.TFloat},
		}, []storage.Column{storage.NewStringColumn(gcol), storage.NewFloatColumn(vcol)})
		if err != nil {
			return false
		}
		res, err := Execute(tbl, Query{
			Select:  []SelectItem{{Col: "g"}, {Col: "v", Agg: AggSum}, {Col: "*", Agg: AggCount}},
			GroupBy: []string{"g"},
		})
		if err != nil {
			return false
		}
		if res.NumRows() != len(oracleSum) {
			return false
		}
		for r := 0; r < res.NumRows(); r++ {
			row := res.Row(r)
			if math.Abs(row[1].F-oracleSum[row[0].S]) > 1e-6 || row[2].I != oracleN[row[0].S] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestHaving(t *testing.T) {
	tbl := mkSales(t)
	res, err := Execute(tbl, Query{
		Select: []SelectItem{
			{Col: "region"},
			{Col: "amount", Agg: AggSum},
		},
		GroupBy: []string{"region"},
		Having:  expr.Cmp("sum(amount)", expr.GT, storage.Float(40)),
		OrderBy: []OrderKey{{Col: "region"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sums: east 48, north 5, west 60 -> east and west survive.
	if res.NumRows() != 2 || res.Row(0)[0].S != "east" || res.Row(1)[0].S != "west" {
		t.Errorf("having result:\n%s", res.Format(10))
	}
	// HAVING on an alias.
	res, err = Execute(tbl, Query{
		Select: []SelectItem{
			{Col: "region"},
			{Col: "amount", Agg: AggSum, As: "total"},
		},
		GroupBy: []string{"region"},
		Having:  expr.Cmp("total", expr.LT, storage.Float(10)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 || res.Row(0)[0].S != "north" {
		t.Errorf("alias having:\n%s", res.Format(10))
	}
	// HAVING without aggregation is rejected.
	if _, err := Execute(tbl, Query{
		Select: []SelectItem{{Col: "region"}},
		Having: expr.Cmp("region", expr.EQ, storage.String_("east")),
	}); err == nil {
		t.Error("HAVING without aggregation should error")
	}
	// HAVING referencing a missing output column errors.
	if _, err := Execute(tbl, Query{
		Select:  []SelectItem{{Col: "region"}, {Col: "amount", Agg: AggSum}},
		GroupBy: []string{"region"},
		Having:  expr.Cmp("nope", expr.GT, storage.Float(0)),
	}); err == nil {
		t.Error("bad HAVING column should error")
	}
}

func TestQueryStringWithHaving(t *testing.T) {
	q := Query{
		Select:  []SelectItem{{Col: "g"}, {Col: "v", Agg: AggSum}},
		GroupBy: []string{"g"},
		Having:  expr.Cmp("sum(v)", expr.GT, storage.Float(1)),
	}
	want := "SELECT g, SUM(v) GROUP BY g HAVING sum(v) > 1"
	if got := q.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
