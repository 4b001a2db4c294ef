package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dex/internal/crack"
	"dex/internal/exec"
	"dex/internal/expr"
	"dex/internal/storage"
	"dex/internal/trace"
)

// partsTable is the table the two-level partition tests crack: an INT k
// and a FLOAT x with NULLs to range over, a five-code dictionary g to group
// by, and the inputs an aggregate reads — an INT n, a FLOAT f with NULLs
// and signed zeros, and an INT m of few values, so MIN/MAX ties between
// rows are common. At 24 000 rows a grouped aggregate's bucket cells pass
// the size rule.
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

// crackedRun is what a traced cracked query's spans say: the crack span's
// attributes, whether the range had value buckets, and whether their
// interior was folded from bucket cells.
type crackedRun struct {
	crack    map[string]any
	bucketed bool
	cells    bool
}

// crackSpan runs q in cracked mode under a trace and returns the answer
// and what its spans say.
func crackSpan(t *testing.T, e *Engine, q exec.Query) (*storage.Table, crackedRun) {
	t.Helper()
	ctx, root := trace.Start(context.Background(), "q")
	res, err := e.ExecuteContext(ctx, "t", q, Cracked)
	root.End()
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	var run crackedRun
	for _, c := range root.JSON().Children {
		switch c.Name {
		case "crack":
			run.crack = c.Attrs
			_, run.bucketed = c.Attrs["buckets"]
		case "scan":
			_, run.cells = c.Attrs["bucket_cells"]
		}
	}
	if run.crack == nil {
		t.Fatalf("%s: no crack span", q)
	}
	return res, run
}

// warmUp asks crackTouch-1 times, so that the next asking of the same
// range is its edge buckets' crackTouch-th touch, which makes their
// crackers.
func warmUp(ask func()) {
	for i := 1; i < crackTouch; i++ {
		ask()
	}
}

// TestCrackedPartsMatchOracle is the two-level partition's oracle: under
// every cracking variant, on an INT and a FLOAT column, at one worker and
// four, cracked queries — cell-shaped aggregates over INT and FLOAT inputs,
// scalar and grouped, whose interior the bucket cells answer; projections
// and two-input aggregates, whose interior rows the value index lists;
// ranges inside one bucket, two-sided and one-sided, the top bound
// ProbeFrom serves — crack the edge buckets step after step. Every answer
// must equal exact mode's and exec.Execute's bit for bit, and the same
// query asked again at once must make no cracker and give the same bits.
func TestCrackedPartsMatchOracle(t *testing.T) {
	tab := partsTable(rand.New(rand.NewSource(61)), 24_000)
	variants := []crack.Options{
		{Variant: crack.Standard},
		{Variant: crack.Stochastic, StochasticMin: 16, Seed: 3},
		{Variant: crack.HybridSort, SortMin: 16},
	}
	for _, copt := range variants {
		for _, col := range []string{"k", "x"} {
			for _, par := range []int{1, 4} {
				label := fmt.Sprintf("%v/%s/par=%d", copt.Variant, col, par)
				t.Run(label, func(t *testing.T) {
					e := New(Options{Seed: 1, CrackOptions: copt, Exec: exec.ExecOptions{Parallelism: par, MorselSize: 1024}})
					if err := e.Register(tab); err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(int64(par)))
					bound := func(scale float64) storage.Value {
						if col == "k" {
							return storage.Int(rng.Int63n(int64(1100*scale)) - 50)
						}
						return storage.Float(rng.Float64()*110*scale - 5)
					}
					reached := map[string]int{}
					for step := 0; step < 60; step++ {
						lo := bound(1)
						where := expr.And(expr.Cmp(col, expr.GE, lo), expr.Cmp(col, expr.LT, bound(1)))
						switch step % 7 {
						case 5: // inside one bucket, most likely
							hi := storage.Int(lo.I + 1)
							if col == "x" {
								hi = storage.Float(lo.F + 0.01)
							}
							where = expr.And(expr.Cmp(col, expr.GE, lo), expr.Cmp(col, expr.LT, hi))
						case 6:
							where = expr.Cmp(col, expr.GE, lo)
						}
						var q exec.Query
						switch rng.Intn(4) {
						case 0:
							q = exec.Query{Select: []exec.SelectItem{{Col: "n"}, {Col: "f"}}, Where: where}
						case 1:
							q = exec.Query{Select: []exec.SelectItem{{Col: "n", Agg: exec.AggSum}, {Col: "f", Agg: exec.AggSum}}, Where: where}
						default:
							q = partsQuery(where, []string{"n", "f", "m"}[rng.Intn(3)], rng.Intn(2) == 0)
						}
						oracle, err := exec.Execute(tab, q)
						if err != nil {
							t.Fatal(err)
						}
						want, err := e.Execute("t", q, Exact)
						if err != nil {
							t.Fatal(err)
						}
						got, run := crackSpan(t, e, q)
						if err := tablesIdentical(want, got); err != nil {
							t.Fatalf("step %d: %s: against exact mode: %v", step, q, err)
						}
						if err := tablesIdentical(oracle, got); err != nil {
							t.Fatalf("step %d: %s: against exec.Execute: %v", step, q, err)
						}
						again, arun := crackSpan(t, e, q)
						if err := tablesIdentical(got, again); err != nil || arun.crack["edges_built"] != int64(0) {
							t.Fatalf("step %d: %s asked again: %v, crack span %v; want the same answer from the same crackers", step, q, err, arun.crack)
						}
						switch edges := run.crack["edges"]; {
						case run.cells:
							reached["cells"]++
						case run.crack["buckets"] == int64(1) && edges == int64(1):
							reached["one bucket"]++
						case edges == int64(2):
							reached["interior rows"]++
						}
					}
					for _, want := range []string{"cells", "one bucket", "interior rows"} {
						if reached[want] == 0 {
							t.Errorf("no step reached %s: %v", want, reached)
						}
					}
				})
			}
		}
	}
}

// TestCrackedPartsReuseAndRebuild: a range's edge buckets are read as rows
// on their first crackTouch-1 touches, with no cracker made and nothing
// cracked; on the crackTouch-th they get a cracker each, under the write
// lock; asked again it probes them under the read lock and makes none; a
// range inside one bucket makes and cracks that bucket's alone; another
// input or shape behind the same range reuses the same crackers, which
// belong to the column, not to the query; the interior is folded from
// cells when the shape allows, and read as rows when it does not; the
// answers equal exact mode's throughout, and a query folding cells reads
// only its edge rows.
func TestCrackedPartsReuseAndRebuild(t *testing.T) {
	tab := partsTable(rand.New(rand.NewSource(62)), 24_000)
	e := New(Options{Seed: 1, Exec: exec.ExecOptions{Parallelism: 1, MorselSize: 256}})
	if err := e.Register(tab); err != nil {
		t.Fatal(err)
	}
	wide := expr.And(expr.Cmp("k", expr.GE, storage.Int(200)), expr.Cmp("k", expr.LT, storage.Int(800)))
	narrow := expr.And(expr.Cmp("k", expr.GE, storage.Int(400)), expr.Cmp("k", expr.LT, storage.Int(401)))
	twoInputs := func(where *expr.Pred) exec.Query {
		return exec.Query{Select: []exec.SelectItem{{Col: "n", Agg: exec.AggSum}, {Col: "f", Agg: exec.AggSum}}, Where: where}
	}
	type step struct {
		q                     exec.Query
		edges, scanned, built int64
		lock                  string
		cells                 bool
		what                  string
	}
	// touches are a range's first crackTouch-1 askings: every edge read as
	// rows, none cracked.
	touches := func(q exec.Query, edges int64, cells bool, what string) []step {
		var out []step
		for i := 1; i < crackTouch; i++ {
			out = append(out, step{q, edges, edges, 0, "read", cells, fmt.Sprintf("%s, touch %d: rows read, no cracker", what, i)})
		}
		return out
	}
	var steps []step
	steps = append(steps, touches(partsQuery(wide, "f", true), 2, true, "a wide range")...)
	steps = append(steps,
		step{partsQuery(wide, "f", true), 2, 0, 2, "write", true, "touch crackTouch: two edge crackers, made"},
		step{partsQuery(wide, "f", true), 2, 0, 0, "read", true, "asked again: the crackers are reused"})
	steps = append(steps, touches(partsQuery(narrow, "f", true), 1, false, "a range inside one bucket")...)
	steps = append(steps,
		step{partsQuery(narrow, "f", true), 1, 0, 1, "write", false, "a range inside one bucket: its cracker alone"},
		step{partsQuery(narrow, "f", true), 1, 0, 0, "read", false, "and then reused"},
		step{partsQuery(wide, "n", false), 2, 0, 0, "read", true, "another input reuses the column's crackers"},
		step{twoInputs(wide), 2, 0, 0, "read", false, "a shape cells refuse reads the interior's rows"})
	for _, step := range steps {
		want, err := e.Execute("t", step.q, Exact)
		if err != nil {
			t.Fatal(err)
		}
		got, run := crackSpan(t, e, step.q)
		if err := tablesIdentical(want, got); err != nil {
			t.Fatalf("%s: %v", step.what, err)
		}
		c := run.crack
		if c["edges"] != step.edges || c["edges_scanned"] != step.scanned || c["edges_built"] != step.built ||
			c["lock_mode"] != step.lock || run.cells != step.cells {
			t.Errorf("%s: crack span %v, cells %v; want %d edges, %d read as rows, %d made, %s lock, cells %v",
				step.what, c, run.cells, step.edges, step.scanned, step.built, step.lock, step.cells)
		}
		if step.scanned == step.edges && (c["pieces"] != int64(0) || c["cracks"] != int64(0)) {
			t.Errorf("%s: crack span %v; want no cracker probed", step.what, c)
		}
	}
	if pieces, _, ok := e.CrackStats("t", "k"); !ok || pieces < 3 {
		t.Errorf("CrackStats = %d pieces, %v; want the three crackers' pieces summed", pieces, ok)
	}
	// A query folding cells reads its edge rows and nothing else.
	before := e.RowsScanned()
	_, run := crackSpan(t, e, partsQuery(wide, "m", false))
	if !run.cells || e.RowsScanned()-before != run.crack["rows_out"] {
		t.Errorf("a cells query read %d rows; want its %v edge rows", e.RowsScanned()-before, run.crack["rows_out"])
	}
}

// TestCrackedEdgesBuildOnTheKthTouch: a range's first crackTouch-1
// touches make no cracker and read its edge buckets as exact mode does —
// the rows scanned grow by exactly the edge buckets' rows beside the
// cells, plus the rows the sink takes, as an exact query's do — and the
// crackTouch-th makes the crackers, after which the query reads only the
// rows it keeps. An INT and a FLOAT column, scalar and grouped.
func TestCrackedEdgesBuildOnTheKthTouch(t *testing.T) {
	if crackTouch < 2 {
		t.Fatalf("crackTouch = %d: a bucket's first touch must not make its cracker", crackTouch)
	}
	tab := partsTable(rand.New(rand.NewSource(67)), 24_000)
	opt := exec.ExecOptions{Parallelism: 1, MorselSize: 256}
	e := New(Options{Seed: 1, Exec: opt})
	if err := e.Register(tab); err != nil {
		t.Fatal(err)
	}
	for _, q := range []exec.Query{
		partsQuery(expr.And(expr.Cmp("k", expr.GE, storage.Int(150)), expr.Cmp("k", expr.LT, storage.Int(850))), "f", false),
		partsQuery(expr.And(expr.Cmp("x", expr.GE, storage.Float(12.5)), expr.Cmp("x", expr.LT, storage.Float(77.5))), "n", true),
	} {
		b, err := exec.RangeBuckets(context.Background(), current(t, e, "t").t, q, opt)
		if err != nil {
			t.Fatal(err)
		}
		edgeRows, ok := b.Edges(nil)
		if !ok {
			t.Fatalf("%s: no edge rows beside cells", q)
		}
		for touch := 1; touch <= crackTouch+1; touch++ {
			before := e.RowsScanned()
			want, err := e.Execute("t", q, Exact)
			if err != nil {
				t.Fatal(err)
			}
			exactRead := e.RowsScanned() - before
			before = e.RowsScanned()
			got, run := crackSpan(t, e, q)
			read := e.RowsScanned() - before
			if err := tablesIdentical(want, got); err != nil {
				t.Fatalf("%s, touch %d: %v", q, touch, err)
			}
			c := run.crack
			kept, _ := c["rows_out"].(int64)
			if !run.cells {
				t.Fatalf("%s, touch %d: the interior was not folded from cells", q, touch)
			}
			switch {
			case touch < crackTouch:
				if c["edges_scanned"] != int64(2) || c["edges_built"] != int64(0) || read != int64(len(edgeRows))+kept || read != exactRead {
					t.Errorf("%s, touch %d: crack span %v, %d rows read, exact mode %d; want both edges read as rows, none made, %d edge rows and %d kept",
						q, touch, c, read, exactRead, len(edgeRows), kept)
				}
			default:
				built := int64(0)
				if touch == crackTouch {
					built = 2
				}
				if c["edges_scanned"] != int64(0) || c["edges_built"] != built || read != kept {
					t.Errorf("%s, touch %d: crack span %v, %d rows read; want both edges probed, %d made, only the %d rows kept read",
						q, touch, c, read, built, kept)
				}
			}
		}
	}
}

// TestCrackedTouchesRestartUnderNewBounds: a bucket's touches count under
// the bounds it was cut under. Once the table grows and its buckets are
// drawn again, the count starts at zero: the next crackTouch-1 touches
// read the bucket as rows, and the crackTouch-th makes its cracker.
func TestCrackedTouchesRestartUnderNewBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(69))
	k := make([]int64, 24_000)
	for i := range k {
		k[i] = rng.Int63n(1000)
	}
	tab, err := storage.FromColumns("t", storage.Schema{{Name: "k", Type: storage.TInt}},
		[]storage.Column{storage.NewIntColumn(k)})
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Seed: 1, Exec: exec.ExecOptions{Parallelism: 1, MorselSize: 256}})
	if err := e.Register(tab); err != nil {
		t.Fatal(err)
	}
	q := exec.Query{Select: []exec.SelectItem{{Col: "*", Agg: exec.AggCount}},
		Where: expr.And(expr.Cmp("k", expr.GE, storage.Int(400)), expr.Cmp("k", expr.LT, storage.Int(401)))}
	ask := func(what string, scanned, built int64) {
		t.Helper()
		want, err := e.Execute("t", q, Exact)
		if err != nil {
			t.Fatal(err)
		}
		got, run := crackSpan(t, e, q)
		if err := tablesIdentical(want, got); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if c := run.crack; c["edges"] != int64(1) || c["edges_scanned"] != scanned || c["edges_built"] != built {
			t.Errorf("%s: crack span %v; want 1 edge, %d read as rows, %d made", what, c, scanned, built)
		}
	}
	for i := 1; i < crackTouch; i++ {
		ask(fmt.Sprintf("touch %d", i), 1, 0)
	}
	if err := current(t, e, "t").t.AppendRow(storage.Int(400)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < crackTouch; i++ {
		ask(fmt.Sprintf("touch %d under the new bounds", i), 1, 0)
	}
	ask("touch crackTouch under the new bounds", 0, 1)
}

// TestCrackedPartsHistoryIndependent: a cracked answer does not depend on
// how far its edge buckets have cracked. Scalar and grouped aggregates
// over INT and FLOAT inputs are asked, a dozen probes at bounds inside
// their edge buckets cut those, and the same aggregates must come back
// bit for bit identical, a FLOAT SUM/AVG included — at one worker and at
// four.
func TestCrackedPartsHistoryIndependent(t *testing.T) {
	tab := partsTable(rand.New(rand.NewSource(63)), 24_000)
	where := expr.And(expr.Cmp("x", expr.GE, storage.Float(20)), expr.Cmp("x", expr.LT, storage.Float(80)))
	var queries []exec.Query
	for _, input := range []string{"n", "f", "m"} {
		queries = append(queries, partsQuery(where, input, false), partsQuery(where, input, true),
			exec.Query{Select: []exec.SelectItem{{Col: "n", Agg: exec.AggSum}, {Col: input, Agg: exec.AggAvg}}, Where: where})
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
					out[i], _ = crackSpan(t, e, q)
				}
				return out
			}
			before := ask()
			_, cracks, _ := e.CrackStats("t", "x")
			rng := rand.New(rand.NewSource(5))
			for i := 0; i < 12; i++ {
				lo := 19.9 + rng.Float64()*0.2
				hi := 79.9 + rng.Float64()*0.2
				if _, err := e.SQL(fmt.Sprintf("SELECT count(*) FROM t WHERE x >= %.6f AND x < %.6f", lo, hi), Cracked); err != nil {
					t.Fatal(err)
				}
			}
			if _, after, _ := e.CrackStats("t", "x"); after < cracks+12 {
				t.Fatalf("%d cracks, %d before: the probes did not cut the edge buckets", after, cracks)
			}
			for i, got := range ask() {
				if err := tablesIdentical(before[i], got); err != nil {
					t.Errorf("%s after the cracks: %v", queries[i], err)
				}
			}
		})
	}
}

// TestConcurrentCrackedPartsMatchOracle: cracked aggregates over the same
// range run at once while a writer cracks inside its edge buckets, and
// every answer equals exact mode's. (The name keeps the ConcurrentCracked
// prefix CI's concurrent-probe job selects on.)
func TestConcurrentCrackedPartsMatchOracle(t *testing.T) {
	tab := partsTable(rand.New(rand.NewSource(64)), 24_000)
	e := New(Options{Seed: 1, Exec: exec.ExecOptions{Parallelism: 4, MorselSize: 512}})
	if err := e.Register(tab); err != nil {
		t.Fatal(err)
	}
	where := expr.And(expr.Cmp("k", expr.GE, storage.Int(100)), expr.Cmp("k", expr.LT, storage.Int(900)))
	var queries []exec.Query
	for _, input := range []string{"n", "f"} {
		queries = append(queries, partsQuery(where, input, false), partsQuery(where, input, true),
			exec.Query{Select: []exec.SelectItem{{Col: "m"}, {Col: input}}, Where: where})
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
					err = tablesIdentical(wants[j], got)
				}
				if err != nil {
					errs <- fmt.Errorf("goroutine %d, %s: %w", g, queries[j], err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() { // cracks inside the edge buckets the readers probe
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 30; i++ {
			lo := []int64{96, 896}[i%2] + rng.Int63n(8)
			q := partsQuery(expr.And(expr.Cmp("k", expr.GE, storage.Int(lo)), expr.Cmp("k", expr.LT, storage.Int(lo+1+rng.Int63n(3)))), "m", true)
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
}

// TestConcurrentCrackedEdgesBuiltOnce: under every variant, concurrent
// first queries over the same range make one cracker per edge bucket — the
// losers of the race find the winner's — and concurrent first queries of a
// range inside one bucket make that bucket's alone; every answer equals
// exact mode's. Run it with -race.
func TestConcurrentCrackedEdgesBuiltOnce(t *testing.T) {
	tab := partsTable(rand.New(rand.NewSource(65)), 24_000)
	for _, copt := range []crack.Options{
		{Variant: crack.Standard},
		{Variant: crack.Stochastic, StochasticMin: 16, Seed: 3},
		{Variant: crack.HybridSort, SortMin: 16},
	} {
		t.Run(copt.Variant.String(), func(t *testing.T) {
			e := New(Options{Seed: 1, CrackOptions: copt, Exec: exec.ExecOptions{Parallelism: 2, MorselSize: 512}})
			if err := e.Register(tab); err != nil {
				t.Fatal(err)
			}
			for _, step := range []struct {
				where *expr.Pred
				edges int64
			}{
				{expr.And(expr.Cmp("x", expr.GE, storage.Float(10)), expr.Cmp("x", expr.LT, storage.Float(90))), 2},
				{expr.And(expr.Cmp("x", expr.GE, storage.Float(50)), expr.Cmp("x", expr.LT, storage.Float(50.01))), 1},
			} {
				q := partsQuery(step.where, "n", true)
				want, err := e.Execute("t", q, Exact)
				if err != nil {
					t.Fatal(err)
				}
				var mu sync.Mutex
				var wg sync.WaitGroup
				built := int64(0)
				for g := 0; g < 8; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						got, run := crackSpan(t, e, q)
						mu.Lock()
						defer mu.Unlock()
						if err := tablesIdentical(want, got); err != nil || run.crack["edges"] != step.edges {
							t.Errorf("%s: %v, crack span %v", q, err, run.crack)
						}
						built += run.crack["edges_built"].(int64)
					}()
				}
				wg.Wait()
				if built != step.edges {
					t.Errorf("%s: concurrent first queries made %d crackers for %d edge buckets", q, built, step.edges)
				}
			}
			e.mu.Lock()
			n := len(current(t, e, "t").cracks)
			e.mu.Unlock()
			if n != 3 {
				t.Errorf("%d crackers; want one per edge bucket, 3", n)
			}
		})
	}
}

// TestConcurrentCrackedKthTouchBuildsOnce: under every variant, concurrent
// queries over a range whose edge buckets have had crackTouch-1 touches
// make one cracker per edge bucket — the touch counted first makes it, the
// others find it — and none reads an edge as rows; every answer equals
// exact mode's. Run it with -race.
func TestConcurrentCrackedKthTouchBuildsOnce(t *testing.T) {
	tab := partsTable(rand.New(rand.NewSource(68)), 24_000)
	for _, copt := range []crack.Options{
		{Variant: crack.Standard},
		{Variant: crack.Stochastic, StochasticMin: 16, Seed: 3},
		{Variant: crack.HybridSort, SortMin: 16},
	} {
		t.Run(copt.Variant.String(), func(t *testing.T) {
			e := New(Options{Seed: 1, CrackOptions: copt, Exec: exec.ExecOptions{Parallelism: 2, MorselSize: 512}})
			if err := e.Register(tab); err != nil {
				t.Fatal(err)
			}
			q := partsQuery(expr.And(expr.Cmp("k", expr.GE, storage.Int(300)), expr.Cmp("k", expr.LT, storage.Int(700))), "f", true)
			want, err := e.Execute("t", q, Exact)
			if err != nil {
				t.Fatal(err)
			}
			warmUp(func() { crackSpan(t, e, q) })
			var mu sync.Mutex
			var wg sync.WaitGroup
			built := int64(0)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got, run := crackSpan(t, e, q)
					mu.Lock()
					defer mu.Unlock()
					if err := tablesIdentical(want, got); err != nil || run.crack["edges"] != int64(2) || run.crack["edges_scanned"] != int64(0) {
						t.Errorf("%s: %v, crack span %v", q, err, run.crack)
					}
					built += run.crack["edges_built"].(int64)
				}()
			}
			wg.Wait()
			e.mu.Lock()
			n, left := len(current(t, e, "t").cracks), len(current(t, e, "t").touches)
			e.mu.Unlock()
			if built != 2 || n != 2 || left != 0 {
				t.Errorf("concurrent touches %d on made %d crackers, %d kept, %d touch counts left; want 2, 2, 0", crackTouch, built, n, left)
			}
		})
	}
}

// blockingCracker is a cracker whose stats wait until release is closed,
// as a real one's wait while a probe holds its write lock.
type blockingCracker struct {
	entered, release chan struct{}
	once             sync.Once
}

func (b *blockingCracker) NumPieces() int {
	b.once.Do(func() { close(b.entered) })
	<-b.release
	return 1
}

func (b *blockingCracker) Cracks() int { return 0 }

// TestConcurrentCrackedStatsDoNotBlockQueries: CrackIndexes and CrackStats
// read a cracker's stats, which wait on the cracker's lock, after they
// release the engine lock: while one waits on a cracker of one table, a
// cracked query on another table, which needs the engine lock to find its
// crackers, still finishes. (The name keeps the ConcurrentCracked prefix
// CI's concurrent-probe job selects on.)
func TestConcurrentCrackedStatsDoNotBlockQueries(t *testing.T) {
	e := New(Options{Seed: 1, Exec: exec.ExecOptions{Parallelism: 1}})
	if err := e.Register(partsTable(rand.New(rand.NewSource(66)), 4000)); err != nil {
		t.Fatal(err)
	}
	other, err := storage.FromColumns("blocked", storage.Schema{{Name: "v", Type: storage.TInt}},
		[]storage.Column{storage.NewIntColumn([]int64{1, 2, 3})})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register(other); err != nil {
		t.Fatal(err)
	}
	for _, stats := range []struct {
		name string
		call func()
	}{
		{"CrackIndexes", func() { e.CrackIndexes() }},
		{"CrackStats", func() { e.CrackStats("blocked", "v") }},
	} {
		b := &blockingCracker{entered: make(chan struct{}), release: make(chan struct{})}
		e.mu.Lock()
		current(t, e, "blocked").cracks[crackKey{"v", -1}] = b
		e.mu.Unlock()
		done := make(chan struct{})
		go func() {
			defer close(done)
			stats.call()
		}()
		<-b.entered
		answered := make(chan error, 1)
		go func() {
			_, err := e.SQL("SELECT count(*) FROM t WHERE k >= 10 AND k < 20", Cracked)
			answered <- err
		}()
		select {
		case err := <-answered:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Errorf("a cracked query on another table waited behind %s", stats.name)
		}
		close(b.release)
		<-done
	}
}
