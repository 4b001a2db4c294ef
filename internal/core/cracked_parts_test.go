package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"dex/internal/crack"
	"dex/internal/exec"
	"dex/internal/expr"
	"dex/internal/storage"
	"dex/internal/trace"
)

// partsTable is the table the piece-partials tests crack: an INT k and a
// FLOAT x with NULLs to range over, a five-code dictionary g to group by,
// and the inputs a cell aggregates — an INT n whose sums stay exact in
// float64 in any association, a FLOAT f with NULLs and signed zeros, and
// an INT m of few values, so MIN/MAX ties between rows are common.
func partsTable(rng *rand.Rand, rows int) *storage.Table {
	k, n, m := make([]int64, rows), make([]int64, rows), make([]int64, rows)
	x, f := make([]float64, rows), make([]float64, rows)
	g := make([]string, rows)
	for r := 0; r < rows; r++ {
		k[r] = rng.Int63n(1000)
		x[r] = rng.Float64() * 100
		if rng.Intn(20) == 0 {
			x[r] = math.NaN()
		}
		g[r] = fmt.Sprint("g", rng.Intn(5))
		n[r] = rng.Int63n(2001) - 1000
		m[r] = rng.Int63n(4)
		f[r] = rng.NormFloat64() * 10
		switch rng.Intn(30) {
		case 0:
			f[r] = math.NaN()
		case 1:
			f[r] = math.Copysign(0, -1)
		case 2:
			f[r] = 0
		}
	}
	tab, err := storage.FromColumns("t", storage.Schema{
		{Name: "k", Type: storage.TInt}, {Name: "x", Type: storage.TFloat}, {Name: "g", Type: storage.TString},
		{Name: "n", Type: storage.TInt}, {Name: "m", Type: storage.TInt}, {Name: "f", Type: storage.TFloat},
	}, []storage.Column{
		storage.NewIntColumn(k), storage.NewFloatColumn(x), storage.EncodeDict(g),
		storage.NewIntColumn(n), storage.NewIntColumn(m), storage.NewFloatColumn(f),
	})
	if err != nil {
		panic(err)
	}
	return tab
}

// partsQuery is a cell-shaped aggregate over input behind where: COUNT(*),
// COUNT, SUM, AVG, MIN and MAX, grouped by g or scalar.
func partsQuery(where *expr.Pred, input string, grouped bool) exec.Query {
	q := exec.Query{Where: where, Select: []exec.SelectItem{
		{Col: "*", Agg: exec.AggCount}, {Col: input, Agg: exec.AggCount}, {Col: input, Agg: exec.AggSum},
		{Col: input, Agg: exec.AggAvg}, {Col: input, Agg: exec.AggMin}, {Col: input, Agg: exec.AggMax},
	}}
	if grouped {
		q.Select = append([]exec.SelectItem{{Col: "g"}}, q.Select...)
		q.GroupBy = []string{"g"}
	}
	return q
}

// requirePartsMatch holds a cracked answer to the oracle's bit for bit —
// counts, MIN/MAX down to the sign of a zero and the row a tie keeps, INT
// SUM/AVG, groups and their order — except a FLOAT SUM/AVG, which the
// pieces add in crack order: that one gets tablesMatch's tolerance.
func requirePartsMatch(t *testing.T, label string, tab *storage.Table, q exec.Query, want, got *storage.Table) {
	t.Helper()
	if err := tablesMatch(want, got); err != nil {
		t.Fatalf("%s: %s: %v", label, q, err)
	}
	for c, item := range q.Select {
		in, _ := tab.ColumnByName(item.Col)
		if in != nil && in.Type() == storage.TFloat && (item.Agg == exec.AggSum || item.Agg == exec.AggAvg) {
			continue
		}
		for r := 0; r < want.NumRows(); r++ {
			a, b := want.Column(c).Value(r), got.Column(c).Value(r)
			if a.Typ != b.Typ || a.I != b.I || a.S != b.S || math.Float64bits(a.F) != math.Float64bits(b.F) {
				t.Fatalf("%s: %s: [%d,%d] exact %v, cracked %v", label, q, r, c, a, b)
			}
		}
	}
}

// crackSpan runs q in cracked mode under a trace and returns the answer
// and the crack span's attributes.
func crackSpan(t *testing.T, e *Engine, q exec.Query) (*storage.Table, map[string]any) {
	t.Helper()
	ctx, root := trace.Start(context.Background(), "q")
	res, err := e.ExecuteContext(ctx, "t", q, Cracked)
	root.End()
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	for _, c := range root.JSON().Children {
		if c.Name == "crack" {
			return res, c.Attrs
		}
	}
	t.Fatalf("%s: no crack span", q)
	return nil, nil
}

// TestCrackedPartsMatchOracle is the piece-partials oracle: under every
// cracking variant, on an INT and a FLOAT column, at one worker and four,
// cell-shaped aggregates — COUNT/SUM/AVG/MIN/MAX over INT and FLOAT
// inputs, scalar and grouped, with two-sided ranges and the top bound
// ProbePartsFrom serves — are interleaved with the probes of other queries
// that crack the column, inserts that wait in the pending buffer and merge
// into pieces (a small MaxPending, and Flush), and deletes, on an index
// built over the table's first rows. Every answer must equal exec.Execute
// over the rows the index holds (requirePartsMatch), and the same query
// asked again at once must fold the sets the first asking built, building
// none, into the same answer bit for bit.
func TestCrackedPartsMatchOracle(t *testing.T) {
	const rows, first = 3000, 2400
	tab := partsTable(rand.New(rand.NewSource(61)), rows)
	variants := []crack.Options{
		{Variant: crack.Standard, MaxPending: 16},
		{Variant: crack.Stochastic, StochasticMin: 64, MaxPending: 16, Seed: 3},
		{Variant: crack.HybridSort, SortMin: 64, MaxPending: 16},
	}
	for _, copt := range variants {
		for _, col := range []string{"k", "x"} {
			for _, par := range []int{1, 4} {
				label := fmt.Sprintf("%v/%s/par=%d", copt.Variant, col, par)
				t.Run(label, func(t *testing.T) {
					e := New(Options{Seed: 1, CrackOptions: copt, Exec: exec.ExecOptions{Parallelism: par, MorselSize: 128}})
					if err := e.Register(tab); err != nil {
						t.Fatal(err)
					}
					c, _ := tab.ColumnByName(col)
					var ix interface {
						Delete(int) bool
						Flush()
					}
					var insert func(r int)
					switch c := c.(type) {
					case *storage.IntColumn:
						i := crack.New(c.V[:first], copt)
						ix, insert = i, func(r int) { i.Insert(c.V[r]) }
						current(t, e, "t").cracks[col] = i
					case *storage.FloatColumn:
						i := crack.New(c.V[:first], copt)
						ix, insert = i, func(r int) { i.Insert(c.V[r]) }
						current(t, e, "t").cracks[col] = i
					}
					rng := rand.New(rand.NewSource(int64(par)))
					next, deleted := first, map[int]bool{}
					bound := func() storage.Value {
						if col == "k" {
							return storage.Int(rng.Int63n(1100) - 50)
						}
						return storage.Float(rng.Float64()*110 - 5)
					}
					for step := 0; step < 120; step++ {
						switch rng.Intn(6) {
						case 0:
							for i := rng.Intn(8); i > 0 && next < rows; i-- {
								insert(next)
								next++
							}
						case 1:
							ix.Flush()
						case 2:
							r := rng.Intn(next)
							if ix.Delete(r) {
								deleted[r] = true
							}
						case 3: // a projection cracks on the row path
							lo := bound()
							if _, err := e.Execute("t", exec.Query{Select: []exec.SelectItem{{Col: "n"}},
								Where: expr.And(expr.Cmp(col, expr.GE, lo), expr.Cmp(col, expr.LT, bound()))}, Cracked); err != nil {
								t.Fatal(err)
							}
						}
						where := expr.And(expr.Cmp(col, expr.GE, bound()), expr.Cmp(col, expr.LT, bound()))
						if step%7 == 6 {
							where = expr.Cmp(col, expr.GE, bound())
						}
						q := partsQuery(where, []string{"n", "f", "m"}[rng.Intn(3)], rng.Intn(2) == 0)
						var held []int
						for r := 0; r < next; r++ {
							if !deleted[r] {
								held = append(held, r)
							}
						}
						want, err := exec.Execute(tab.Gather(held), q)
						if err != nil {
							t.Fatal(err)
						}
						got, attrs := crackSpan(t, e, q)
						requirePartsMatch(t, fmt.Sprintf("step %d", step), tab, q, want, got)
						if _, ok := attrs["parts"]; !ok {
							t.Fatalf("step %d: %s took the row path: %v", step, q, attrs)
						}
						again, attrs := crackSpan(t, e, q)
						if err := tablesIdentical(got, again); err != nil || attrs["parts_built"] != int64(0) {
							t.Fatalf("step %d: %s asked again: %v, crack span %v; want the same answer from the same sets", step, q, err, attrs)
						}
					}
				})
			}
		}
	}
}

// TestCrackedPartsReuseAndRebuild: the same cell-shaped query asked again
// folds the sets its first asking built; a probe inside its range cracks
// a built piece, and the next asking rebuilds only the two new pieces
// beside the probe's own; another input builds its own sets; the answers
// equal exact mode's throughout.
func TestCrackedPartsReuseAndRebuild(t *testing.T) {
	tab := partsTable(rand.New(rand.NewSource(62)), 4000)
	e := New(Options{Seed: 1, Exec: exec.ExecOptions{Parallelism: 2, MorselSize: 256}})
	if err := e.Register(tab); err != nil {
		t.Fatal(err)
	}
	wide := expr.And(expr.Cmp("k", expr.GE, storage.Int(200)), expr.Cmp("k", expr.LT, storage.Int(800)))
	narrow := expr.And(expr.Cmp("k", expr.GE, storage.Int(400)), expr.Cmp("k", expr.LT, storage.Int(500)))
	for _, step := range []struct {
		where        *expr.Pred
		input        string
		parts, built int64
		lock         string
		what         string
	}{
		{wide, "f", 1, 1, "write", "first asking: one piece, built"},
		{wide, "f", 1, 0, "read", "asked again: the set is reused"},
		{narrow, "f", 1, 1, "write", "a crack inside the piece: the middle is built"},
		{wide, "f", 3, 2, "read", "the split piece's other two halves are rebuilt"},
		{wide, "f", 3, 0, "read", "and then reused"},
		{wide, "n", 3, 3, "read", "another input builds its own"},
	} {
		q := partsQuery(step.where, step.input, true)
		want, err := e.Execute("t", q, Exact)
		if err != nil {
			t.Fatal(err)
		}
		got, attrs := crackSpan(t, e, q)
		requirePartsMatch(t, step.what, tab, q, want, got)
		if attrs["parts"] != step.parts || attrs["parts_built"] != step.built || attrs["lock_mode"] != step.lock {
			t.Errorf("%s: crack span %v; want %d parts, %d built, %s lock", step.what, attrs, step.parts, step.built, step.lock)
		}
	}
	// A shape cells cannot answer takes the row path and says why.
	q := exec.Query{Select: []exec.SelectItem{{Col: "n", Agg: exec.AggSum}, {Col: "f", Agg: exec.AggSum}}, Where: wide}
	if _, attrs := crackSpan(t, e, q); attrs["parts_fallback"] != "multi-input" || attrs["rows_out"] == nil {
		t.Errorf("a two-input aggregate: crack span %v; want the row path, parts_fallback multi-input", attrs)
	}
	if n := e.CellQueries(); n != 6 {
		t.Errorf("CellQueries = %d; want the 6 aggregates answered from pieces", n)
	}
	// Only the rows sets were built from were read: an aligned asking of
	// built pieces reads none.
	before := e.RowsScanned()
	if _, attrs := crackSpan(t, e, partsQuery(wide, "n", false)); attrs["parts_built"] != int64(3) {
		t.Fatalf("a scalar asking over n: crack span %v; want its own three sets built", attrs)
	}
	built := e.RowsScanned() - before
	if _, _ = crackSpan(t, e, partsQuery(wide, "n", false)); e.RowsScanned() != before+built || built == 0 {
		t.Errorf("rows scanned: %d by a probe that built sets, %d by one that folded them; want the built rows, then none",
			built, e.RowsScanned()-before-built)
	}
}

// TestCrackedPartsHistoryIndependent: a cell-shaped cracked answer does
// not depend on how far the index has cracked. Scalar and grouped
// aggregates over INT and FLOAT inputs are asked, a dozen probes at bounds
// inside their range cut their pieces, and the same aggregates must come
// back bit for bit identical, but for a FLOAT SUM/AVG, which the pieces
// add in crack order and which may move by association alone — at one
// worker and at four.
func TestCrackedPartsHistoryIndependent(t *testing.T) {
	tab := partsTable(rand.New(rand.NewSource(63)), 20_000)
	where := expr.And(expr.Cmp("x", expr.GE, storage.Float(20)), expr.Cmp("x", expr.LT, storage.Float(80)))
	var queries []exec.Query
	for _, input := range []string{"n", "f", "m"} {
		queries = append(queries, partsQuery(where, input, false), partsQuery(where, input, true))
	}
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			e := New(Options{Seed: 1, Exec: exec.ExecOptions{Parallelism: par, MorselSize: 256}})
			if err := e.Register(tab); err != nil {
				t.Fatal(err)
			}
			ask := func() []*storage.Table {
				out := make([]*storage.Table, len(queries))
				for i, q := range queries {
					res, attrs := crackSpan(t, e, q)
					if _, ok := attrs["parts"]; !ok {
						t.Fatalf("%s took the row path: %v", q, attrs)
					}
					out[i] = res
				}
				return out
			}
			before := ask()
			rng := rand.New(rand.NewSource(5))
			for i := 0; i < 12; i++ {
				lo := 20 + rng.Float64()*55
				if _, err := e.SQL(fmt.Sprintf("SELECT count(*) FROM t WHERE x >= %.4f AND x < %.4f", lo, lo+rng.Float64()*5), Cracked); err != nil {
					t.Fatal(err)
				}
			}
			if pieces, _, _ := e.CrackStats("t", "x"); pieces < 20 {
				t.Fatalf("%d pieces: the probes did not cut the range", pieces)
			}
			for i, got := range ask() {
				requirePartsMatch(t, "after the cracks", tab, queries[i], before[i], got)
			}
		})
	}
}

// TestConcurrentCrackedPartsMatchOracle: read-locked cell-shaped probes
// first-cover the same pieces — several (key, input) pairs at once — while
// a writer cracks inside them, and every answer equals exact mode's. Then
// probes of one more pair, all at once over the same converged range,
// publish exactly one set per piece: their built counts add up to the
// pieces the range holds. (The name keeps the ConcurrentCracked prefix
// CI's concurrent-probe job selects on.)
func TestConcurrentCrackedPartsMatchOracle(t *testing.T) {
	tab := partsTable(rand.New(rand.NewSource(64)), 20_000)
	e := New(Options{Seed: 1, Exec: exec.ExecOptions{Parallelism: 4, MorselSize: 512}})
	if err := e.Register(tab); err != nil {
		t.Fatal(err)
	}
	where := expr.And(expr.Cmp("k", expr.GE, storage.Int(100)), expr.Cmp("k", expr.LT, storage.Int(900)))
	// The cuts, so the probes below hold only the read lock.
	if _, err := e.Execute("t", exec.Query{Select: []exec.SelectItem{{Col: "n"}}, Where: where}, Cracked); err != nil {
		t.Fatal(err)
	}
	var queries []exec.Query
	for _, input := range []string{"n", "f"} {
		queries = append(queries, partsQuery(where, input, false), partsQuery(where, input, true))
	}
	wants := make([]*storage.Table, len(queries))
	for i, q := range queries {
		var err error
		if wants[i], err = e.Execute("t", q, Exact); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				j := (g + i) % len(queries)
				got, err := e.Execute("t", queries[j], Cracked)
				if err == nil {
					err = tablesMatch(wants[j], got)
				}
				if err != nil {
					errs <- fmt.Errorf("goroutine %d, %s: %w", g, queries[j], err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() { // cracks inside the pieces the readers cover
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 30; i++ {
			lo := 100 + rng.Int63n(780)
			q := partsQuery(expr.And(expr.Cmp("k", expr.GE, storage.Int(lo)), expr.Cmp("k", expr.LT, storage.Int(lo+1+rng.Int63n(20)))), "m", true)
			if _, err := e.Execute("t", q, Cracked); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// One set per piece: probes of a pair no probe asked yet, all at once.
	q := exec.Query{Select: []exec.SelectItem{{Col: "m", Agg: exec.AggMax}}, Where: where}
	want, err := e.Execute("t", q, Exact)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var built, parts int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, root := trace.Start(context.Background(), "q")
			got, err := e.ExecuteContext(ctx, "t", q, Cracked)
			root.End()
			if err == nil {
				err = tablesMatch(want, got)
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				t.Error(err)
				return
			}
			for _, c := range root.JSON().Children {
				if c.Name == "crack" {
					built += c.Attrs["parts_built"].(int64)
					parts = c.Attrs["parts"].(int64)
				}
			}
		}()
	}
	wg.Wait()
	if built != parts {
		t.Errorf("concurrent first probes built %d sets for %d pieces; want one each", built, parts)
	}
}
