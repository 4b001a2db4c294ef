package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"dex/internal/storage"
	"dex/internal/trace"
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

// onlineBuilt runs sql in Online mode under a trace and returns the result
// with the online span's "built" attribute.
func onlineBuilt(t testing.TB, e *Engine, sql string) (*storage.Table, bool) {
	t.Helper()
	return onlineSpan(t, func(ctx context.Context) (*storage.Table, error) {
		return e.SQLContext(ctx, sql, Online)
	})
}

// onlineSpan runs one Online query under a trace and returns the result
// with the online span's "built" attribute.
func onlineSpan(t testing.TB, run func(context.Context) (*storage.Table, error)) (*storage.Table, bool) {
	t.Helper()
	ctx, sp := trace.Start(context.Background(), "q")
	res, err := run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sp.End()
	for _, c := range sp.JSON().Children {
		if c.Name == "online" {
			return res, c.Attrs["built"] == true
		}
	}
	t.Fatal("no online span")
	return nil, false
}

// TestOnlineScansPastAnEmptyFirstBatch: three rows of 100k qualify, none of
// them in the first batch, and "no group has an estimate yet" once counted
// as converged — the engine answered an empty table. The answer has to be
// the exact one: with three qualifying rows the 1% target is never met
// short of the full scan.
func TestOnlineScansPastAnEmptyFirstBatch(t *testing.T) {
	e := New(Options{Seed: 1})
	if err := e.Register(seqTable(t, "seq", 100_000)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ { // five rotations of the shuffle
		res, err := e.SQL("SELECT sum(x) FROM seq WHERE x >= 99997", Online)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRows() != 1 || res.Row(0)[0].F != 99997+99998+99999 || res.Row(0)[1].F != 0 {
			t.Fatalf("query %d: online answer\n%swant the exact sum 299994 with ci95 0", i, res.Format(5))
		}
	}
}

// TestOnlineShuffleIsBuiltOncePerTable: the table's first Online query pays
// for the O(n) shuffle, every later one reuses it — no per-query allocation
// anywhere near the 8·n bytes of a permutation — and a fixed Seed replays
// the same answers, which still differ from query to query because each
// enters the shuffle at its own rotation.
func TestOnlineShuffleIsBuiltOncePerTable(t *testing.T) {
	const n = 200_000
	const sql = "SELECT avg(amount) FROM sales"
	run := func() (first, second float64) {
		e := mkEngine(t, n)
		res, built := onlineBuilt(t, e, sql)
		if !built {
			t.Error("first online query: built = false, want the shuffle built under its span")
		}
		first = res.Row(0)[0].F
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, built = onlineBuilt(t, e, sql)
		runtime.ReadMemStats(&after)
		if built {
			t.Error("second online query rebuilt the shuffle")
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > n {
			t.Errorf("second online query allocated %d bytes; the cached shuffle should keep it far below the permutation's %d", got, 8*n)
		}
		return first, res.Row(0)[0].F
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

// TestReplaceInvalidatesOnlineShuffle: a shuffle indexes rows of the table
// it was built for. After Replace swaps in a shorter or a longer table the
// next Online query must build a new one — a stale shuffle would index past
// the end, or never reach the new rows. MIN and MAX never converge early,
// so each answer is a full scan and must be exact.
func TestReplaceInvalidatesOnlineShuffle(t *testing.T) {
	e := New(Options{Seed: 3})
	if err := e.Register(seqTable(t, "seq", 5000)); err != nil {
		t.Fatal(err)
	}
	check := func(n int, wantBuilt bool) {
		t.Helper()
		res, built := onlineBuilt(t, e, "SELECT max(x) FROM seq")
		if built != wantBuilt {
			t.Errorf("n=%d: built = %v, want %v", n, built, wantBuilt)
		}
		if got := res.Row(0)[0].F; got != float64(n-1) {
			t.Errorf("n=%d: online max(x) = %v, want %d", n, got, n-1)
		}
		if got := len(current(t, e, "seq").shuffle); got != n {
			t.Errorf("n=%d: cached shuffle has %d entries", n, got)
		}
	}
	check(5000, true)
	check(5000, false)
	for _, n := range []int{1200, 9000} {
		e.Replace(seqTable(t, "seq", n))
		if current(t, e, "seq").shuffle != nil {
			t.Fatalf("n=%d: Replace kept the old table's shuffle", n)
		}
		check(n, true)
		check(n, false)
	}
	// A query that resolved the old version before Replace builds its
	// shuffle after it: the shuffle is the old version's and indexes the old
	// rows, and the new version's first query builds its own.
	e.Replace(seqTable(t, "seq", 3000))
	old := current(t, e, "seq")
	e.Replace(seqTable(t, "seq", 77))
	q := mustParse(t, "SELECT max(x) FROM seq")
	res, built := onlineSpan(t, func(ctx context.Context) (*storage.Table, error) {
		return e.execute(ctx, old, q, Online)
	})
	if !built || res.Row(0)[0].F != 3000-1 || len(old.shuffle) != 3000 {
		t.Errorf("old version: built = %v, max(x) = %v, shuffle of %d; want a 3000-entry build and 2999",
			built, res.Row(0)[0].F, len(old.shuffle))
	}
	if current(t, e, "seq").shuffle != nil {
		t.Fatal("the old version's query stored its shuffle on the new version")
	}
	check(77, true)
	check(77, false)
}

// TestConcurrentOnlineSessions shares one shuffle between many Online
// queries while Replace keeps swapping the table between two lengths: the
// race detector watches the shuffle cache and the engine rand.Rand, and
// every answer must be the exact maximum of one of the two tables — a
// shuffle paired with the wrong table would panic or miss rows.
func TestConcurrentOnlineSessions(t *testing.T) {
	e := New(Options{Seed: 11, OnlineBatch: 512})
	sizes := [2]int{6000, 2500}
	if err := e.Register(seqTable(t, "seq", sizes[0])); err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 6, 12
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				res, err := e.SQL("SELECT max(x) FROM seq", Online)
				if err != nil {
					errs <- err
					return
				}
				if got := res.Row(0)[0].F; got != float64(sizes[0]-1) && got != float64(sizes[1]-1) {
					errs <- fmt.Errorf("online max(x) = %v, want %d or %d", got, sizes[0]-1, sizes[1]-1)
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
	e := New(Options{Seed: 2, OnlineRelCI: 1e-12})
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
