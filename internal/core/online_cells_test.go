package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dex/internal/exec"
	"dex/internal/expr"
	"dex/internal/storage"
	"dex/internal/trace"
	"dex/internal/workload"
)

// onlineTraced runs q in Online mode under a trace and returns the answer
// with the online span's attributes.
func onlineTraced(t testing.TB, e *Engine, table string, q exec.Query) (*storage.Table, map[string]any) {
	t.Helper()
	res, attrs, err := onlineAttrs(e, table, q)
	if err != nil {
		t.Fatal(err)
	}
	return res, attrs
}

// onlineAttrs is onlineTraced for any goroutine: it returns its failure.
func onlineAttrs(e *Engine, table string, q exec.Query) (*storage.Table, map[string]any, error) {
	ctx, root := trace.Start(context.Background(), "q")
	res, err := e.ExecuteContext(ctx, table, q, Online)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", q, err)
	}
	root.End()
	for _, c := range root.JSON().Children {
		if c.Name == "online" {
			return res, c.Attrs, nil
		}
	}
	return nil, nil, fmt.Errorf("%s: no online span", q)
}

// exactValue reports whether online's value got for the aggregate agg
// is exact mode's want: COUNT, MIN and MAX bit for bit, SUM and AVG within
// 1e-9 of it, NULL (NaN) for NULL.
func exactValue(agg exec.AggFunc, got, want float64) bool {
	switch {
	case math.IsNaN(got) || math.IsNaN(want):
		return math.IsNaN(got) && math.IsNaN(want)
	case agg == exec.AggSum || agg == exec.AggAvg:
		return got == want || math.Abs(got-want) <= 1e-9*math.Abs(want)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// onlineGroups reads an answer of the single-aggregate q by group key
// ("" when scalar): an exact table's last column with ci95 0, an online
// one's estimate and ci95.
func onlineGroups(q exec.Query, res *storage.Table) map[string][2]float64 {
	out := map[string][2]float64{}
	val := res.NumCols() - 1
	if res.Schema()[val].Name == "sample_n" {
		val -= 2
	}
	for i := 0; i < res.NumRows(); i++ {
		row := res.Row(i)
		key := ""
		if len(q.GroupBy) > 0 {
			key = row[0].String()
		}
		g := [2]float64{row[val].AsFloat()}
		if val < len(row)-1 {
			g[1] = row[val+1].F
		}
		out[key] = g
	}
	return out
}

// aggOf returns q's one aggregate.
func aggOf(q exec.Query) exec.AggFunc {
	for _, s := range q.Select {
		if s.Agg != exec.AggNone {
			return s.Agg
		}
	}
	return exec.AggNone
}

// matchesExact reports how the online answer got differs from exact mode's
// answer want: the same groups, each value exact (exactValue) with ci95 0.
func matchesExact(q exec.Query, want, got *storage.Table) error {
	w, g := onlineGroups(q, want), onlineGroups(q, got)
	if len(w) != len(g) {
		return fmt.Errorf("%d groups, exact mode has %d:\n%s", len(g), len(w), got.Format(10))
	}
	if len(q.GroupBy) > 0 && got.Schema()[0].Type != want.Schema()[0].Type {
		return fmt.Errorf("group column %v, exact mode's %v", got.Schema()[0].Type, want.Schema()[0].Type)
	}
	for key, wv := range w {
		gv, ok := g[key]
		switch {
		case !ok:
			return fmt.Errorf("group %q missing", key)
		case !exactValue(aggOf(q), gv[0], wv[0]) || gv[1] != 0:
			return fmt.Errorf("group %q: %v ± %v, exact mode %v", key, gv[0], gv[1], wv[0])
		}
	}
	return nil
}

// onlineAsks splits an ask of FuzzCrackedVsExact's shape into the
// single-aggregate queries online mode takes: cellAsk's aggregates one at
// a time, which the cells can answer, but for its SUM over k, whose int64
// extremes the estimator adds as float64s; the GROUP BY k ask's, which they
// cannot (an INT group); and a run-coded measure's, nor those.
func onlineAsks(shape int, where *expr.Pred) []exec.Query {
	var out []exec.Query
	split := func(q exec.Query) {
		for _, s := range q.Select {
			if s.Agg == exec.AggNone || s.Agg == exec.AggSum && s.Col == "k" {
				continue
			}
			one := exec.Query{Where: where, GroupBy: q.GroupBy, Select: []exec.SelectItem{s}}
			if len(q.GroupBy) > 0 {
				one.Select = []exec.SelectItem{{Col: q.GroupBy[0]}, s}
			}
			out = append(out, one)
		}
	}
	split(cellAsk(shape, where))
	if shape == 1 {
		split(exec.Query{GroupBy: []string{"k"}, Select: []exec.SelectItem{{Col: "*", Agg: exec.AggCount},
			{Col: "x", Agg: exec.AggSum}, {Col: "x", Agg: exec.AggMin}}})
	}
	split(exec.Query{Select: []exec.SelectItem{{Col: "r", Agg: exec.AggMax}, {Col: "r", Agg: exec.AggCount}}})
	return out
}

// The differential online fuzzer: FuzzCrackedVsExact's tables and clauses
// (decodeCrackFz), each clause asked as drawn, without its WHERE, or ANDed
// with one or two comparisons on a second column, over onlineAsks' single
// aggregates. An engine whose batch holds every row answers every query,
// cells, candidates or table walk, exactly: COUNT, MIN and MAX bit for bit,
// SUM and AVG within 1e-9 of exact mode, ci95 0. An engine at a drawn
// batch of 1–64 rows answers with a subset of exact mode's groups, each
// with a ci95 that is 0, finite or +Inf, never NaN, a MIN never below the
// exact one and a MAX never above; and exactly, once its run has read every
// row of its sampled stratum (edge_rows: the edge rows beside cells, else
// the index plan's candidates), or every row of the table. The draws
// after decodeCrackFz's are made in the order they were added, so older
// inputs keep their tables and clauses. testdata/fuzz/FuzzOnlineVsExact
// holds entries that reach the cells path's shapes and the index plan with
// no cells (TestOnlineFuzzCorpusReachesCells).
func FuzzOnlineVsExact(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) { onlineCase(t, data, nil) })
}

// onlineRun is one query of an onlineCase: the query, whether the cells
// answered it or the index plan's candidates alone (stratum without
// cells), how many rows its sampled stratum held, how many the drawn-batch
// run read, and the plan's bucket run.
type onlineRun struct {
	q                exec.Query
	cells, stratum   bool
	edges, processed int
	bl, bh           int
}

// onlineCase decodes and runs one FuzzOnlineVsExact input; seen, when set,
// gets every query's drawn-batch run.
func onlineCase(t *testing.T, data []byte, seen func(onlineRun)) {
	c := decodeCrackFz(t, data)
	batch := 1 + c.fr.draw(64)
	whole := c.engine(t) // onlineBatch 4096 > 47·16 rows
	part := c.engine(t)
	part.batch = batch
	for _, a := range c.asks {
		where := a.where
		switch c.fr.draw(3) {
		case 1:
			where = nil
		case 2:
			col := []string{"k", "r", "x"}[c.fr.draw(3)]
			leaves := []*expr.Pred{where}
			for i := 1 + c.fr.draw(2); i > 0; i-- {
				leaves = append(leaves, expr.Cmp(col, crackFzOps[c.fr.draw(len(crackFzOps))], c.fr.value()))
			}
			where = expr.And(leaves...)
		}
		for _, q := range onlineAsks(a.shape, where) {
			label := fmt.Sprintf("%d rows, batch %d, %s", c.n, batch, q)
			want, err := whole.Execute("t", q, Exact)
			if err != nil {
				t.Fatal(err)
			}
			got, sp := onlineTraced(t, whole, "t", q)
			if err := matchesExact(q, want, got); err != nil {
				t.Fatalf("%s, one batch: %v (span %v)", label, err, sp)
			}
			got, sp = onlineTraced(t, part, "t", q)
			run := onlineRun{q: q}
			edges, stratum := sp["edge_rows"].(int64)
			processed, _ := sp["processed"].(int64)
			cells, _ := sp["cells"].(int64)
			run.cells, run.stratum, run.edges, run.processed = cells > 0, stratum, int(edges), int(processed)
			if stratum && processed == edges || !stratum && int(processed) == c.n {
				if err := matchesExact(q, want, got); err != nil {
					t.Fatalf("%s, every row read: %v (span %v)", label, err, sp)
				}
			}
			w, agg := onlineGroups(q, want), aggOf(q)
			extreme := agg == exec.AggMin || agg == exec.AggMax
			for key, g := range onlineGroups(q, got) {
				wv, ok := w[key]
				switch {
				case !ok:
					t.Fatalf("%s: group %q, which exact mode does not have (span %v)", label, key, sp)
				case math.IsNaN(g[1]) || g[1] < 0:
					t.Fatalf("%s: group %q has ci95 %v (span %v)", label, key, g[1], sp)
				case agg == exec.AggMin && g[0] < wv[0], agg == exec.AggMax && g[0] > wv[0],
					extreme && math.IsNaN(wv[0]) && !math.IsNaN(g[0]):
					t.Fatalf("%s: group %q: %v past exact mode's %v (span %v)", label, key, g[0], wv[0], sp)
				}
			}
			if seen != nil {
				b, err := exec.RangeBuckets(context.Background(), current(t, part, "t").t, q, c.opt.Exec)
				if err != nil {
					t.Fatal(err)
				}
				run.bl, run.bh = b.Run()
				seen(run)
			}
		}
	}
}

// TestOnlineFuzzCorpusReachesCells requires FuzzOnlineVsExact's corpus to
// reach the cells path's shapes — a scalar aggregate over two ranges, an
// aggregate with no WHERE, a grouped one — and edge strata larger than the
// drawn batch, which the runner samples; and the index plan with no cells,
// over a run with no interior and over an empty run. So a change that
// sends them back to the table walk fails on the corpus itself.
func TestOnlineFuzzCorpusReachesCells(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzOnlineVsExact", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus (%v)", err)
	}
	reached := map[string]int{}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitN(strings.TrimSpace(string(raw)), "\n", 2)
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if lines[0] != "go test fuzz v1" || err != nil {
			t.Fatalf("%s: not a v1 corpus entry (%v)", f, err)
		}
		onlineCase(t, []byte(s), func(run onlineRun) {
			if run.stratum && !run.cells && run.q.Where != nil {
				switch {
				case run.bl > run.bh:
					reached["candidates, empty run"]++
				case run.bh-run.bl < 2:
					reached["candidates, no interior"]++
				}
			}
			if !run.cells {
				return
			}
			ivs, _ := expr.Intervals(storage.Schema{{Name: "k", Type: storage.TInt}, {Name: "x", Type: storage.TFloat}}, run.q.Where)
			switch {
			case run.q.Where == nil:
				reached["no WHERE"]++
			case len(ivs) == 2:
				reached["two ranges"]++
			}
			if len(run.q.GroupBy) > 0 {
				reached["grouped"]++
			}
			if run.processed < run.edges {
				reached["sampled edges"]++
			}
		})
	}
	for _, want := range []string{"no WHERE", "two ranges", "grouped", "sampled edges", "candidates, no interior", "candidates, empty run"} {
		if reached[want] == 0 {
			t.Errorf("no corpus entry reaches %s: %v", want, reached)
		}
	}
}

// TestConcurrentOnlineCellsAcrossReplace: online queries the bucket cells
// answer race Replace flipping the table between two versions. Each
// answer must be exact mode's on one of the two versions, whole — every
// group from the same one — with ci95 0, since the edge rows fit in one
// batch.
func TestConcurrentOnlineCellsAcrossReplace(t *testing.T) {
	var tables [2]*storage.Table
	// Large enough for the cells of a range keyed by qty's buckets, within
	// cellsPerRow.
	for i, n := range []int{50_000, 45_000} {
		sales, err := workload.Sales(rand.New(rand.NewSource(int64(5+i))), n)
		if err != nil {
			t.Fatal(err)
		}
		tables[i] = sales
	}
	queries := []exec.Query{
		mustParse(t, "SELECT region, sum(amount) FROM sales WHERE amount >= 80 AND amount < 200 GROUP BY region"),
		mustParse(t, "SELECT count(*) FROM sales"),
		mustParse(t, "SELECT region, max(amount) FROM sales WHERE amount >= 60 AND amount < 150 GROUP BY region"),
		mustParse(t, "SELECT avg(amount) FROM sales WHERE amount >= 70 AND amount < 120 AND qty >= 3"),
	}
	var want [2][]*storage.Table
	for i, tbl := range tables {
		ex := New(Options{Seed: 1})
		if err := ex.Register(tbl); err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			res, err := ex.Execute("sales", q, Exact)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], res)
		}
	}
	e := New(Options{Seed: 13})
	if err := e.Register(tables[0]); err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 4, 10
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				qi := (g + i) % len(queries)
				q := queries[qi]
				got, sp, err := onlineAttrs(e, "sales", q)
				if err != nil {
					errs <- err
					return
				}
				if _, cells := sp["cells"]; !cells || sp["processed"] != sp["edge_rows"] {
					errs <- fmt.Errorf("%s: online span %v, want the cells path, every edge row read", q, sp)
					return
				}
				e0, e1 := matchesExact(q, want[0][qi], got), matchesExact(q, want[1][qi], got)
				if e0 != nil && e1 != nil {
					errs <- fmt.Errorf("%s: neither version's exact answer:\n%v\n%v", q, e0, e1)
					return
				}
			}
		}()
	}
	for i := 1; i <= 20; i++ {
		e.Replace(tables[i%2])
		runtime.Gosched()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestEmptyAnswersAcrossModes: a WHERE no row satisfies. A scalar aggregate
// answers one row in every mode — COUNT and SUM 0, AVG, MIN and MAX NULL —
// and an empty GROUP BY answer types its group column as the table's
// schema does, an INT column INT.
func TestEmptyAnswersAcrossModes(t *testing.T) {
	e := mkEngine(t, 20_000)
	modes := []Mode{Exact, Cracked, Approx, Online}
	for _, agg := range []string{"count(*)", "sum(amount)", "max(amount)", "min(qty)", "avg(amount)", "count(amount)"} {
		for _, where := range []string{"amount > 1e9", "amount >= 80 AND amount < 200 AND qty > 99"} {
			sql := "SELECT " + agg + " FROM sales WHERE " + where
			var want float64
			for _, m := range modes {
				res, err := e.SQL(sql, m)
				if err != nil {
					t.Fatalf("%s, %v: %v", sql, m, err)
				}
				if res.NumRows() != 1 {
					t.Fatalf("%s, %v: %d rows, want 1:\n%s", sql, m, res.NumRows(), res.Format(5))
				}
				got := res.Row(0)[0].AsFloat()
				if m == Exact {
					want = got
				}
				if !exactValue(exec.AggCount, got, want) {
					t.Errorf("%s, %v: %v, exact mode %v", sql, m, got, want)
				}
			}
		}
	}
	for _, sql := range []string{
		"SELECT qty, sum(amount) FROM sales WHERE amount > 1e9 GROUP BY qty",
		"SELECT region, count(*) FROM sales WHERE amount > 1e9 GROUP BY region",
		"SELECT qty, count(*) FROM sales WHERE amount >= 80 AND amount < 200 AND qty > 99 GROUP BY qty",
	} {
		var want storage.Type
		for _, m := range modes {
			res, err := e.SQL(sql, m)
			if err != nil {
				t.Fatalf("%s, %v: %v", sql, m, err)
			}
			if m == Exact {
				want = res.Schema()[0].Type
			}
			if res.NumRows() != 0 || res.Schema()[0].Type != want {
				t.Errorf("%s, %v: %d rows, group column %v; want none, typed %v", sql, m, res.NumRows(), res.Schema()[0].Type, want)
			}
		}
	}
}

// TestOnlineCellsReplayWithSeed: when the edge rows outnumber a batch the
// cells path samples them, drawn from the one engine-RNG draw its query
// makes, so a fixed Seed replays the same estimates query for query, while
// two queries in a row draw different rows.
func TestOnlineCellsReplayWithSeed(t *testing.T) {
	const sql = "SELECT region, sum(amount) FROM sales WHERE amount >= 80 AND amount < 200 GROUP BY region"
	q := mustParse(t, sql)
	run := func() [2]map[string][2]float64 {
		e := New(Options{Seed: 4})
		e.batch = 64
		sales, err := workload.Sales(rand.New(rand.NewSource(2)), 100_000)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Register(sales); err != nil {
			t.Fatal(err)
		}
		var out [2]map[string][2]float64
		for i := range out {
			res, sp := onlineTraced(t, e, "sales", q)
			if edges, _ := sp["edge_rows"].(int64); edges <= 64 || sp["processed"].(int64) >= edges {
				t.Fatalf("online span %v: want more edge rows than a batch, sampled", sp)
			}
			out[i] = onlineGroups(q, res)
		}
		return out
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("same Seed, same queries:\n%v\n%v", a, b)
	}
	if fmt.Sprint(a[0]) == fmt.Sprint(a[1]) {
		t.Errorf("two queries drew the same edge rows: %v", a[0])
	}
}
