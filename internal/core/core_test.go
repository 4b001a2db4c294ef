package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dex/internal/exec"
	"dex/internal/sqlparse"
	"dex/internal/storage"
	"dex/internal/workload"
)

func mkEngine(t *testing.T, rows int) *Engine {
	t.Helper()
	e := New(Options{Seed: 1})
	rng := rand.New(rand.NewSource(2))
	sales, err := workload.Sales(rng, rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register(sales); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestExactSQL(t *testing.T) {
	e := mkEngine(t, 1000)
	res, err := e.SQL("SELECT region, sum(amount) FROM sales GROUP BY region ORDER BY region", Exact)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 4 {
		t.Errorf("groups = %d", res.NumRows())
	}
	if _, err := e.SQL("SELECT x FROM nope", Exact); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("missing table err = %v", err)
	}
	if _, err := e.SQL("garbage", Exact); err == nil {
		t.Error("parse error expected")
	}
}

func TestStarExpansion(t *testing.T) {
	e := mkEngine(t, 50)
	res, err := e.SQL("SELECT * FROM sales LIMIT 5", Exact)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCols() != 5 || res.NumRows() != 5 {
		t.Errorf("dims = %dx%d", res.NumRows(), res.NumCols())
	}
}

func TestCrackedMatchesExact(t *testing.T) {
	e := mkEngine(t, 5000)
	q := "SELECT count(*) FROM sales WHERE qty >= 3 AND qty < 7"
	exact, err := e.SQL(q, Exact)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		cracked, err := e.SQL(q, Cracked)
		if err != nil {
			t.Fatal(err)
		}
		if cracked.Row(0)[0].I != exact.Row(0)[0].I {
			t.Fatalf("cracked count %v != exact %v", cracked.Row(0)[0], exact.Row(0)[0])
		}
	}
	pieces, cracks, ok := e.CrackStats("sales", "qty")
	if !ok || pieces < 2 || cracks < 1 {
		t.Errorf("crack stats = %d,%d,%v", pieces, cracks, ok)
	}
}

func TestCrackedFallbackOnNonRange(t *testing.T) {
	e := mkEngine(t, 500)
	q := "SELECT count(*) FROM sales WHERE region = 'east'"
	exact, _ := e.SQL(q, Exact)
	cracked, err := e.SQL(q, Cracked)
	if err != nil {
		t.Fatal(err)
	}
	if cracked.Row(0)[0].I != exact.Row(0)[0].I {
		t.Error("fallback mismatch")
	}
	if _, _, ok := e.CrackStats("sales", "region"); ok {
		t.Error("no index should exist for a text column")
	}
}

// TestCrackIndexesListsIntAndFloatColumns: INT and FLOAT columns share one
// index map, so CrackIndexes lists both kinds in (table, column) order with
// the pieces and cracks CrackStats reports, and Replace drops every index
// of the replaced table and only those.
func TestCrackIndexesListsIntAndFloatColumns(t *testing.T) {
	e := mkEngine(t, 2000)
	v := make([]int64, 500)
	for i := range v {
		v[i] = int64(i * 7 % 100)
	}
	archive, err := storage.FromColumns("archive", storage.Schema{{Name: "v", Type: storage.TInt}},
		[]storage.Column{storage.NewIntColumn(v)})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register(archive); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELECT count(*) FROM sales WHERE qty >= 3 AND qty < 7",
		"SELECT count(*) FROM sales WHERE amount >= 100 AND amount < 300",
		"SELECT count(*) FROM archive WHERE v >= 20 AND v < 40",
	} {
		if _, err := e.SQL(q, Cracked); err != nil {
			t.Fatal(err)
		}
	}
	got := e.CrackIndexes()
	want := [][2]string{{"archive", "v"}, {"sales", "amount"}, {"sales", "qty"}}
	if len(got) != len(want) {
		t.Fatalf("CrackIndexes = %+v, want %v", got, want)
	}
	for i, ci := range got {
		if ci.Table != want[i][0] || ci.Column != want[i][1] {
			t.Fatalf("CrackIndexes[%d] = %s.%s, want %s.%s", i, ci.Table, ci.Column, want[i][0], want[i][1])
		}
		pieces, cracks, ok := e.CrackStats(ci.Table, ci.Column)
		if !ok || pieces != ci.Pieces || cracks != ci.Cracks || pieces < 2 || cracks < 1 {
			t.Errorf("%s.%s: CrackStats = %d,%d,%v, CrackIndexes = %d,%d",
				ci.Table, ci.Column, pieces, cracks, ok, ci.Pieces, ci.Cracks)
		}
	}
	sales, err := workload.Sales(rand.New(rand.NewSource(3)), 1000)
	if err != nil {
		t.Fatal(err)
	}
	e.Replace(sales)
	if got := e.CrackIndexes(); len(got) != 1 || got[0].Table != "archive" || got[0].Column != "v" {
		t.Fatalf("after Replace(sales): CrackIndexes = %+v, want archive.v alone", got)
	}
	for _, col := range []string{"qty", "amount"} {
		if _, _, ok := e.CrackStats("sales", col); ok {
			t.Errorf("sales.%s: index survived Replace", col)
		}
	}
}

func TestApproxCloseToExact(t *testing.T) {
	e := mkEngine(t, 50000)
	exact, err := e.SQL("SELECT avg(amount) FROM sales", Exact)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := e.SQL("SELECT avg(amount) FROM sales", Approx)
	if err != nil {
		t.Fatal(err)
	}
	est := approx.Row(0)[0].F
	truth := exact.Row(0)[0].F
	if rel := math.Abs(est-truth) / truth; rel > 0.05 {
		t.Errorf("approx rel err = %.4f", rel)
	}
	// Result table carries CI and sample size.
	if approx.Schema().Index("ci95") < 0 || approx.Schema().Index("sample_n") < 0 {
		t.Errorf("approx schema = %v", approx.Schema())
	}
}

func TestApproxRejectsUnsupportedShape(t *testing.T) {
	e := mkEngine(t, 100)
	bad := []string{
		"SELECT amount FROM sales",
		"SELECT sum(amount), avg(amount) FROM sales",
		"SELECT region, product, sum(amount) FROM sales GROUP BY region, product",
	}
	for _, q := range bad {
		if _, err := e.SQL(q, Approx); !errors.Is(err, ErrNotApprox) {
			t.Errorf("%q err = %v", q, err)
		}
	}
}

func TestOnlineMatchesShape(t *testing.T) {
	e := mkEngine(t, 20000)
	res, err := e.SQL("SELECT region, avg(amount) FROM sales GROUP BY region", Online)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 4 {
		t.Errorf("online groups = %d", res.NumRows())
	}
	exact, _ := e.SQL("SELECT region, avg(amount) FROM sales GROUP BY region ORDER BY region", Exact)
	for i := 0; i < 4; i++ {
		est := res.Row(i)
		truth := exact.Row(i)
		if est[0].S != truth[0].S {
			t.Fatalf("group order: %v vs %v", est[0], truth[0])
		}
		if rel := math.Abs(est[1].F-truth[1].F) / truth[1].F; rel > 0.05 {
			t.Errorf("online %s rel err %.4f", est[0].S, rel)
		}
	}
}

func TestBadMode(t *testing.T) {
	e := mkEngine(t, 10)
	if _, err := e.SQL("SELECT qty FROM sales", Mode(99)); !errors.Is(err, ErrBadMode) {
		t.Errorf("err = %v", err)
	}
	if Exact.String() != "exact" || Cracked.String() != "cracked" ||
		Approx.String() != "approx" || Online.String() != "online" {
		t.Error("mode names")
	}
}

func TestInSituAttach(t *testing.T) {
	e := mkEngine(t, 10)
	rng := rand.New(rand.NewSource(3))
	ticks, err := workload.Ticks(rng, 300)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ticks.csv")
	if err := storage.WriteCSVFile(ticks, path); err != nil {
		t.Fatal(err)
	}
	if err := e.AttachCSV("ticks", path, ticks.Schema()); err != nil {
		t.Fatal(err)
	}
	res, err := e.SQL("SELECT symbol, count(*) FROM ticks GROUP BY symbol", Exact)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for i := 0; i < res.NumRows(); i++ {
		total += res.Row(i)[1].I
	}
	if total != 300 {
		t.Errorf("in-situ total = %d", total)
	}
	names := e.Tables()
	found := false
	for _, n := range names {
		if n == "ticks (in-situ)" {
			found = true
		}
	}
	if !found {
		t.Errorf("tables = %v", names)
	}
}

func TestSessionHistoryAndRecommendation(t *testing.T) {
	e := mkEngine(t, 2000)
	// Archive a few sessions with a repeating pattern.
	for i := 0; i < 5; i++ {
		s := e.NewSession()
		if _, err := s.Query("SELECT count(*) FROM sales WHERE qty > 3", Exact); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Query("SELECT region, sum(amount) FROM sales GROUP BY region", Exact); err != nil {
			t.Fatal(err)
		}
		s.End()
	}
	// A new session issuing the first query should get the second
	// recommended.
	s := e.NewSession()
	if _, err := s.Query("SELECT count(*) FROM sales WHERE qty > 3", Exact); err != nil {
		t.Fatal(err)
	}
	sugs, err := s.SuggestNext(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sugs) != 1 {
		t.Fatalf("suggestions = %v", sugs)
	}
	wantFrag := "groupby:region"
	found := false
	for _, f := range sugs[0].Fragments {
		if f == wantFrag {
			found = true
		}
	}
	if !found {
		t.Errorf("top suggestion = %v", sugs[0])
	}
	if s.Len() != 1 {
		t.Errorf("session len = %d", s.Len())
	}
}

func TestSuggestNextNoHistory(t *testing.T) {
	e := mkEngine(t, 10)
	s := e.NewSession()
	sugs, err := s.SuggestNext(3)
	if err != nil || sugs != nil {
		t.Errorf("fresh engine suggestions = %v, %v", sugs, err)
	}
	s.End() // empty end is a no-op
}

func TestCrackedFloatColumn(t *testing.T) {
	e := mkEngine(t, 5000)
	q := "SELECT count(*) FROM sales WHERE amount >= 100 AND amount < 200"
	exact, err := e.SQL(q, Exact)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		cracked, err := e.SQL(q, Cracked)
		if err != nil {
			t.Fatal(err)
		}
		if cracked.Row(0)[0].I != exact.Row(0)[0].I {
			t.Fatalf("float cracked %v != exact %v", cracked.Row(0)[0], exact.Row(0)[0])
		}
	}
	if pieces, _, ok := e.CrackStats("sales", "amount"); !ok || pieces < 2 {
		t.Errorf("float crack stats = %d,%v", pieces, ok)
	}
}

// crackEdgeTable is n rows of small values with the boundary cases mixed
// in: int64s around 2^53 and at both int64 extremes in k; ±Inf and 10 %
// NULLs (NaN) in x.
func crackEdgeTable(t *testing.T, rng *rand.Rand, n int) *storage.Table {
	t.Helper()
	const p53 = 1 << 53
	ints := []int64{p53 - 1, p53, p53 + 1, p53 + 2, math.MaxInt64, math.MinInt64}
	floats := []float64{math.Inf(1), math.Inf(-1), math.MaxFloat64}
	k := make([]int64, n)
	x := make([]float64, n)
	for i := range k {
		k[i] = rng.Int63n(20)
		if rng.Intn(10) == 0 {
			k[i] = ints[rng.Intn(len(ints))]
		}
		switch x[i] = rng.Float64(); rng.Intn(20) {
		case 0, 1:
			x[i] = math.NaN()
		case 2:
			x[i] = floats[rng.Intn(len(floats))]
		}
	}
	tab, err := storage.FromColumns("edge", storage.Schema{
		{Name: "k", Type: storage.TInt},
		{Name: "x", Type: storage.TFloat},
	}, []storage.Column{storage.NewIntColumn(k), storage.NewFloatColumn(x)})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestCrackedBoundaryOperators: every operator and bound shape cracked mode
// serves must answer what the reference evaluator answers — fractional
// constants, FLOAT constants against int64s past 2^53 (which compare in
// float64), ranges whose top is the type's maximum (MaxInt64, +Inf), and a
// FLOAT column holding NULLs, which must also complete.
func TestCrackedBoundaryOperators(t *testing.T) {
	e := mkEngine(t, 3000)
	if err := e.Register(crackEdgeTable(t, rand.New(rand.NewSource(5)), 5000)); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELECT count(*) FROM sales WHERE qty > 2 AND qty <= 7",
		"SELECT count(*) FROM sales WHERE qty >= 2.5",
		"SELECT count(*) FROM sales WHERE qty = 4",
		"SELECT count(*) FROM sales WHERE amount > 110.5 AND amount <= 130.25",
		"SELECT count(*) FROM sales WHERE amount = 120.5",
		"SELECT count(*) FROM edge WHERE k > 9007199254740992.0",
		"SELECT count(*) FROM edge WHERE k >= 9007199254740991.5 AND k < 9007199254740994.0",
		"SELECT count(*) FROM edge WHERE k = 9007199254740992.0",
		"SELECT count(*) FROM edge WHERE k >= 5",
		"SELECT count(*) FROM edge WHERE k >= 9223372036854775807",
		"SELECT count(*) FROM edge WHERE k <= 9223372036854775807 AND k > 3",
		"SELECT count(*) FROM edge WHERE x >= 0.5",
		"SELECT count(*) FROM edge WHERE x > 0.25 AND x <= 0.75",
		"SELECT count(*) FROM edge WHERE x >= 0.125 AND x < 0.5",
		"SELECT count(*) FROM edge WHERE x <= 0.5",
		"SELECT count(*) FROM edge WHERE x > 2 AND x < 1",
	} {
		st, err := sqlparse.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := e.cat.Get(st.Table)
		if err != nil {
			t.Fatal(err)
		}
		want, err := exec.Execute(tab, st.Query)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ { // round 1 probes existing cuts
			got, err := e.SQL(q, Cracked)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if got.Row(0)[0].I != want.Row(0)[0].I {
				t.Errorf("%s: cracked %v != exact %v", q, got.Row(0)[0], want.Row(0)[0])
			}
		}
	}
}

func TestProfile(t *testing.T) {
	e := mkEngine(t, 3000)
	p, err := e.Profile("sales")
	if err != nil {
		t.Fatal(err)
	}
	if p.Rows != 3000 || len(p.Columns) != 5 {
		t.Fatalf("profile dims = %d rows, %d cols", p.Rows, len(p.Columns))
	}
	byName := map[string]ColumnProfile{}
	for _, c := range p.Columns {
		byName[c.Name] = c
	}
	reg := byName["region"]
	if reg.Distinct != 4 || len(reg.Top) == 0 || reg.Hist != nil {
		t.Errorf("region profile = %+v", reg)
	}
	amt := byName["amount"]
	if amt.Hist == nil || amt.Min >= amt.Max || amt.StdDev <= 0 {
		t.Errorf("amount profile = %+v", amt)
	}
	// amount is driven by product (base price per product), so product
	// should be the top segmentation for it.
	segs := p.Segmentations["amount"]
	if len(segs) == 0 || segs[0].Dim != "product" {
		t.Errorf("amount segmentations = %+v", segs)
	}
	out := p.Format()
	if !strings.Contains(out, "suggested segmentations") || !strings.Contains(out, "region") {
		t.Errorf("format:\n%s", out)
	}
	if _, err := e.Profile("nope"); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("missing table err = %v", err)
	}
}

func TestSQLJoin(t *testing.T) {
	e := New(Options{})
	orders, _ := storage.NewTable("orders", storage.Schema{
		{Name: "oid", Type: storage.TInt},
		{Name: "cust", Type: storage.TInt},
		{Name: "amt", Type: storage.TFloat},
	})
	for _, r := range [][3]int64{{1, 10, 100}, {2, 20, 200}, {3, 10, 300}, {4, 99, 400}} {
		_ = orders.AppendRow(storage.Int(r[0]), storage.Int(r[1]), storage.Float(float64(r[2])))
	}
	custs, _ := storage.NewTable("custs", storage.Schema{
		{Name: "cid", Type: storage.TInt},
		{Name: "name", Type: storage.TString},
	})
	_ = custs.AppendRow(storage.Int(10), storage.String_("ann"))
	_ = custs.AppendRow(storage.Int(20), storage.String_("bob"))
	if err := e.Register(orders); err != nil {
		t.Fatal(err)
	}
	if err := e.Register(custs); err != nil {
		t.Fatal(err)
	}
	res, err := e.SQL("SELECT name, sum(amt) FROM orders JOIN custs ON cust = cid GROUP BY name ORDER BY name", Exact)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 2 {
		t.Fatalf("rows = %d\n%s", res.NumRows(), res.Format(10))
	}
	if res.Row(0)[0].S != "ann" || res.Row(0)[1].F != 400 {
		t.Errorf("ann row = %v", res.Row(0))
	}
	if res.Row(1)[0].S != "bob" || res.Row(1)[1].F != 200 {
		t.Errorf("bob row = %v", res.Row(1))
	}
	// Star expansion over a join.
	star, err := e.SQL("SELECT * FROM orders JOIN custs ON cust = cid ORDER BY oid", Exact)
	if err != nil {
		t.Fatal(err)
	}
	if star.NumCols() != 5 || star.NumRows() != 3 {
		t.Errorf("star join dims = %dx%d", star.NumRows(), star.NumCols())
	}
	// Errors: missing join table and key.
	if _, err := e.SQL("SELECT * FROM orders JOIN nope ON cust = cid", Exact); err == nil {
		t.Error("missing join table should error")
	}
	if _, err := e.SQL("SELECT * FROM orders JOIN custs ON bogus = cid", Exact); err == nil {
		t.Error("missing join key should error")
	}
}

func TestEngineConcurrentQueries(t *testing.T) {
	e := mkEngine(t, 20000)
	queries := []struct {
		sql  string
		mode Mode
	}{
		{"SELECT count(*) FROM sales WHERE qty >= 2 AND qty < 6", Cracked},
		{"SELECT count(*) FROM sales WHERE amount >= 80 AND amount < 120", Cracked},
		{"SELECT region, sum(amount) FROM sales GROUP BY region", Exact},
		{"SELECT avg(amount) FROM sales", Approx},
	}
	// Prime the expected answers single-threaded (Exact for all shapes).
	want := make([]int64, len(queries))
	for i, q := range queries {
		res, err := e.SQL(q.sql, Exact)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Row(0)[0].AsInt()
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				qi := (g + rep) % len(queries)
				q := queries[qi]
				res, err := e.SQL(q.sql, q.mode)
				if err != nil {
					errs <- err
					return
				}
				// Count queries must match exactly under any mode but Approx.
				if q.mode == Cracked && res.Row(0)[0].AsInt() != want[qi] {
					errs <- fmt.Errorf("concurrent cracked result mismatch: %d != %d",
						res.Row(0)[0].AsInt(), want[qi])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestCrackedExtremeLiteralFallsBack(t *testing.T) {
	e := mkEngine(t, 500)
	// A constant beyond int64 range must not flip the range; the engine
	// falls back to exact execution.
	q := "SELECT count(*) FROM sales WHERE qty <= 99999999999999999999"
	exact, err := e.SQL(q, Exact)
	if err != nil {
		t.Fatal(err)
	}
	cracked, err := e.SQL(q, Cracked)
	if err != nil {
		t.Fatal(err)
	}
	if cracked.Row(0)[0].I != exact.Row(0)[0].I {
		t.Errorf("extreme literal: cracked %v != exact %v", cracked.Row(0)[0], exact.Row(0)[0])
	}
}

func TestInSituCrackedMode(t *testing.T) {
	e := New(Options{Seed: 9})
	rng := rand.New(rand.NewSource(10))
	ticks, err := workload.Ticks(rng, 2000)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.csv")
	if err := storage.WriteCSVFile(ticks, path); err != nil {
		t.Fatal(err)
	}
	if err := e.AttachCSV("ticks", path, ticks.Schema()); err != nil {
		t.Fatal(err)
	}
	// Cracked range queries against an in-situ table: the first query
	// materializes the column from the raw file and cracks it; repeats
	// must agree with exact execution.
	q := "SELECT count(*) FROM ticks WHERE volume >= 50 AND volume < 150"
	exact, err := e.SQL(q, Exact)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		cracked, err := e.SQL(q, Cracked)
		if err != nil {
			t.Fatal(err)
		}
		if cracked.Row(0)[0].I != exact.Row(0)[0].I {
			t.Fatalf("in-situ cracked %v != exact %v", cracked.Row(0)[0], exact.Row(0)[0])
		}
	}
	if _, _, ok := e.CrackStats("ticks", "volume"); !ok {
		t.Error("no crack index built for in-situ table")
	}
	// And a float column through the same path.
	qf := "SELECT count(*) FROM ticks WHERE price >= 100 AND price < 200"
	exactF, _ := e.SQL(qf, Exact)
	crackedFloat, err := e.SQL(qf, Cracked)
	if err != nil {
		t.Fatal(err)
	}
	if crackedFloat.Row(0)[0].I != exactF.Row(0)[0].I {
		t.Error("in-situ float cracked mismatch")
	}
}
