package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"dex/internal/storage"
	"dex/internal/trace"
	"dex/internal/workload"
)

// seqTable is a one-column table x = 0..n-1 under the given name.
func seqTable(t testing.TB, name string, n int) *storage.Table {
	t.Helper()
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i)
	}
	tbl, err := storage.FromColumns(name, storage.Schema{{Name: "x", Type: storage.TInt}},
		[]storage.Column{storage.NewIntColumn(xs)})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestOnlineScansPastAnEmptyFirstBatch: three rows of 100k qualify, none of
// them in the first batch, and "no group has an estimate yet" once counted
// as converged — the engine answered an empty table. The answer has to be
// the exact one: with three qualifying rows the 1% target is never met
// short of the full scan. The OR gives no interval, so the query walks the
// table; a range alone reads only its value buckets' rows.
func TestOnlineScansPastAnEmptyFirstBatch(t *testing.T) {
	e := New(Options{Seed: 1})
	if err := e.Register(seqTable(t, "seq", 100_000)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ { // five keys of the permutation
		res, err := e.SQL("SELECT sum(x) FROM seq WHERE x >= 99997 OR x < 0", Online)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRows() != 1 || res.Row(0)[0].F != 99997+99998+99999 || res.Row(0)[1].F != 0 {
			t.Fatalf("query %d: online answer\n%swant the exact sum 299994 with ci95 0", i, res.Format(5))
		}
	}
}

// TestOnlineShuffleIsBuiltOncePerTable: an Online query that walks the
// table orders its rows by a keyed permutation it computes as it reads, not
// one it stores: no query, the table's first included, allocates anywhere
// near the 8·n bytes an order of the rows would take. A fixed Seed replays
// the same answers, which still differ from query to query because each
// keys its own order. The WHERE keeps the query off the bucket cells (NE
// gives no interval), which would answer it exactly.
func TestOnlineShuffleIsBuiltOncePerTable(t *testing.T) {
	const n = 200_000
	const sql = "SELECT avg(amount) FROM sales WHERE qty <> 0"
	run := func() (first, second float64) {
		e := mkEngine(t, n)
		ask := func(which string) float64 {
			t.Helper()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := e.SQL(sql, Online)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > n {
				t.Errorf("%s online query allocated %d bytes; a computed order should keep it far below a stored one's %d", which, got, 8*n)
			}
			return res.Row(0)[0].F
		}
		return ask("first"), ask("second")
	}
	a1, a2 := run()
	b1, b2 := run()
	if a1 != b1 || a2 != b2 {
		t.Errorf("same Seed, same queries: %v, %v then %v, %v", a1, a2, b1, b2)
	}
	if a1 == a2 {
		t.Errorf("two queries returned the identical estimate %v: they read the same prefix", a1)
	}
}

// TestReplaceInvalidatesOnlineShuffle: an Online walk reads the rows of the
// version its query resolved. After Replace swaps in a shorter or a longer
// table every query must read the new rows — an order of the old rows
// would index past the end, or never reach the new ones — and a query that
// resolved the old version before Replace must read the old rows. MIN and
// MAX never converge early, so each answer is a full scan and must be
// exact. The WHERE keeps the query off the bucket cells (NE gives no
// interval).
func TestReplaceInvalidatesOnlineShuffle(t *testing.T) {
	e := New(Options{Seed: 3})
	if err := e.Register(seqTable(t, "seq", 5000)); err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT max(x) FROM seq WHERE x <> -1"
	check := func(n int) {
		t.Helper()
		res, err := e.SQL(sql, Online)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Row(0)[0].F; got != float64(n-1) {
			t.Errorf("n=%d: online max(x) = %v, want %d", n, got, n-1)
		}
	}
	check(5000)
	check(5000)
	for _, n := range []int{1200, 9000} {
		e.Replace(seqTable(t, "seq", n))
		check(n)
		check(n)
	}
	// A query that resolved the old version before Replace runs after it,
	// over the old rows.
	e.Replace(seqTable(t, "seq", 3000))
	old := current(t, e, "seq")
	e.Replace(seqTable(t, "seq", 77))
	res, err := e.execute(context.Background(), old, mustParse(t, sql), Online)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Row(0)[0].F; got != 3000-1 {
		t.Errorf("old version: max(x) = %v, want 2999", got)
	}
	check(77)
	check(77)
}

// TestOnlineRangesReadOnlyTheirCandidates: a range the bucket cells refuse
// — no interior, or no row in range — is sampled from the rows of its value
// bucket run, exact mode's candidates, not by a walk of the table, where
// a few qualifying rows, or none, cost reading every row and an
// early stop can leave the truth outside the interval. These candidates fit
// in one batch, so each answer is exact mode's with ci95 0, and no query
// reads more rows than its run holds.
func TestOnlineRangesReadOnlyTheirCandidates(t *testing.T) {
	const n = 100_000
	e := New(Options{Seed: 1})
	sales, err := workload.Sales(rand.New(rand.NewSource(7)), n)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register(sales); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT sum(amount) FROM sales WHERE amount > 1e9",
		"SELECT count(*) FROM sales WHERE amount >= 10 AND amount < 10.5",
		"SELECT avg(amount) FROM sales WHERE amount >= 10 AND amount < 10.5",
	} {
		q := mustParse(t, sql)
		want, err := e.Execute("sales", q, Exact)
		if err != nil {
			t.Fatal(err)
		}
		got, sp := onlineTraced(t, e, "sales", q)
		cands, ok := sp["edge_rows"].(int64)
		if processed, _ := sp["processed"].(int64); !ok || processed > cands || cands > n/10 {
			t.Errorf("%s: online span %v; want at most the run's candidates read", sql, sp)
		}
		if err := matchesExact(q, want, got); err != nil {
			t.Errorf("%s: %v (span %v)", sql, err, sp)
		}
	}
}

// TestApproxStopsAtItsRowCap: Approx mode runs Online mode's runner to a
// 5 % target or a tenth of the rows, whichever comes first. MAX never meets
// a target, so an approx MAX that walks the table reads exactly its cap,
// ⌈5003/10⌉ = 501 rows, its second batch cut to fit, and reports the
// sample's maximum with an unbounded interval; a COUNT every row satisfies
// meets the target after its first batch and is exact.
func TestApproxStopsAtItsRowCap(t *testing.T) {
	const n = 5003
	e := New(Options{Seed: 4})
	e.batch = 256
	if err := e.Register(seqTable(t, "seq", n)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sql                string
		processed, batches int64
		est, ci            func(float64) bool
	}{
		{"SELECT max(x) FROM seq WHERE x <> -1", 501, 2,
			func(v float64) bool { return v >= 0 && v < n }, func(ci float64) bool { return math.IsInf(ci, 1) }},
		{"SELECT count(*) FROM seq WHERE x <> -1", 256, 1,
			func(v float64) bool { return math.Abs(v-n) <= 1e-9*n }, func(ci float64) bool { return ci == 0 }},
	} {
		ctx, root := trace.Start(context.Background(), "q")
		res, err := e.ExecuteContext(ctx, "seq", mustParse(t, c.sql), Approx)
		if err != nil {
			t.Fatal(err)
		}
		root.End()
		var sp map[string]any
		for _, ch := range root.JSON().Children {
			if ch.Name == "online" {
				sp = ch.Attrs
			}
		}
		if sp["processed"] != c.processed || sp["batches"] != c.batches {
			t.Errorf("%s: online span %v, want %d rows in %d batches", c.sql, sp, c.processed, c.batches)
		}
		if row := res.Row(0); !c.est(row[0].F) || !c.ci(row[1].F) {
			t.Errorf("%s: approx answer %v", c.sql, row)
		}
	}
}

// TestConcurrentOnlineSessions runs many Online and Approx queries while
// Replace keeps swapping the table between two lengths: the race detector
// watches the engine rand.Rand that keys each walk, the free list its
// scratch vectors come from and the versions the queries resolve. One
// query the bucket cells answer reads no row; the cells refuse the other
// two (NE gives no interval), which walk the table in the order of a keyed
// permutation. Every Online answer must be the exact maximum of one of the
// two tables, and every Approx count one of their lengths — every row
// matches, so the estimate is exact whatever share of the rows it read: an
// order paired with the wrong table would panic or miss rows.
func TestConcurrentOnlineSessions(t *testing.T) {
	e := New(Options{Seed: 11})
	e.batch = 512
	sizes := [2]int{6000, 2500}
	if err := e.Register(seqTable(t, "seq", sizes[0])); err != nil {
		t.Fatal(err)
	}
	stmts := []struct {
		sql  string
		mode Mode
		want func(n int) float64
		tol  float64 // relative: a count scaled up from a share of the rows
	}{
		{"SELECT max(x) FROM seq", Online, func(n int) float64 { return float64(n - 1) }, 0},
		{"SELECT max(x) FROM seq WHERE x <> -1", Online, func(n int) float64 { return float64(n - 1) }, 0},
		{"SELECT count(*) FROM seq WHERE x <> -1", Approx, func(n int) float64 { return float64(n) }, 1e-9},
	}
	const goroutines, perG = 6, 12
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				st := stmts[(g+i)%len(stmts)]
				res, err := e.SQL(st.sql, st.mode)
				if err != nil {
					errs <- err
					return
				}
				got, w0, w1 := res.Row(0)[0].F, st.want(sizes[0]), st.want(sizes[1])
				if math.Abs(got-w0) > st.tol*w0 && math.Abs(got-w1) > st.tol*w1 {
					errs <- fmt.Errorf("%v %s = %v, want %v or %v", st.mode, st.sql, got, w0, w1)
					return
				}
			}
		}()
	}
	for i := 1; i <= 20; i++ {
		e.Replace(seqTable(t, "seq", sizes[i%2]))
		runtime.Gosched()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestOnlineSkipsNullMeasures: NaN is the engine's NULL, and one of them
// used to turn the whole online SUM into NaN. Online mode must answer what
// Exact answers.
func TestOnlineSkipsNullMeasures(t *testing.T) {
	const n = 3000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
	}
	xs[17] = math.NaN()
	tbl, err := storage.FromColumns("f", storage.Schema{{Name: "x", Type: storage.TFloat}},
		[]storage.Column{storage.NewFloatColumn(xs)})
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Seed: 2})
	e.relCI = 1e-12
	if err := e.Register(tbl); err != nil {
		t.Fatal(err)
	}
	for _, agg := range []string{"sum(x)", "avg(x)", "count(x)", "count(*)", "min(x)"} {
		want, err := e.SQL("SELECT "+agg+" FROM f", Exact)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.SQL("SELECT "+agg+" FROM f", Online)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := got.Row(0)[0].F, want.Row(0)[0].AsFloat(); math.Abs(g-w) > 1e-9*math.Abs(w) || math.IsNaN(g) {
			t.Errorf("online %s = %v, exact %v", agg, g, w)
		}
	}
}
