package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// withDict12 returns tab with a 12-code dictionary column g12 appended,
// drawn from rng: at 2^17 rows a range's edge buckets grouped by it take a
// level of two sub-buckets (8 sub-buckets or 4 times 12 keys would break
// the 16-rows-per-cell rule over a bucket's 512 rows).
func withDict12(t *testing.T, tab *storage.Table, rng *rand.Rand) *storage.Table {
	t.Helper()
	schema, cols := tab.Schema(), []storage.Column{}
	for _, f := range schema {
		c, err := tab.ColumnByName(f.Name)
		if err != nil {
			t.Fatal(err)
		}
		cols = append(cols, c)
	}
	g := make([]string, tab.NumRows())
	for r := range g {
		g[r] = fmt.Sprintf("h%02d", rng.Intn(12))
	}
	out, err := storage.FromColumns(tab.Name(), append(slices.Clone(schema), storage.Field{Name: "g12", Type: storage.TString}),
		append(cols, storage.EncodeDict(g)))
	if err != nil {
		t.Fatal(err)
	}
	return out
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
// attributes, whether the range's interior was folded from bucket cells,
// and how many of the edges' sub-cells were folded beside them.
type crackedRun struct {
	crack    map[string]any
	cells    bool
	subCells int64
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
		case "scan":
			_, run.cells = c.Attrs["bucket_cells"]
		case "cells":
			run.subCells, _ = c.Attrs["sub_cells"].(int64)
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

// TestCrackedPartsReuseAndRebuild: the sub-buckets holding a range's
// bounds are read as rows on their first crackTouch-1 touches, with no
// cracker made and nothing cracked; on the crackTouch-th they get a
// cracker each, under the write lock; asked again it probes them under the
// read lock and makes none; a range inside one sub-bucket makes and cracks
// that sub-bucket's alone; another
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

// boundSubs is where a cracked range's bounds fall in its column's value
// index: the run's edge buckets bl and bh, the sub-bucket sl of bl holding
// its least value and the sub-bucket sh of bh holding its greatest.
type boundSubs struct{ bl, bh, sl, sh int }

// subsOf returns the value index of e's table t's column col at the given
// morsel size, and where the range lo <= col <= hi falls in it (lo and hi
// are truncated for an INT column).
func subsOf(t *testing.T, e *Engine, col string, morsel int, lo, hi float64) (*storage.ValueIndex, boundSubs) {
	t.Helper()
	vi, _, err := current(t, e, "t").t.ValueIndex(col, morsel)
	if err != nil || vi == nil {
		t.Fatalf("%s: no value index (%v)", col, err)
	}
	var s boundSubs
	if col == "x" || col == "f" {
		s.bl, s.bh = vi.FloatRange(lo, hi)
		s.sl, s.sh = vi.FloatSub(s.bl, lo), vi.FloatSub(s.bh, hi)
	} else {
		s.bl, s.bh = vi.IntRange(int64(lo), int64(hi))
		s.sl, s.sh = vi.IntSub(s.bl, int64(lo)), vi.IntSub(s.bh, int64(hi))
	}
	return vi, s
}

// keys returns the keys of the crackers the range cracks over column col:
// one per sub-bucket holding a bound.
func (s boundSubs) keys(col string) []crackKey {
	if s.bl == s.bh && s.sl == s.sh {
		return []crackKey{{col, s.bl, s.sl}}
	}
	return []crackKey{{col, s.bl, s.sl}, {col, s.bh, s.sh}}
}

// subRows returns the rows of vi's bucket k in its sub-buckets from
// through to, none when from > to, ascending: the bucket's rows read from
// the index's offsets, each kept when the sub-bucket its value in col
// gets from the bounds lies in [from, to].
func subRows(col storage.Column, vi *storage.ValueIndex, k, from, to int) []int {
	var rows []int
	for m := range vi.Morsels() {
		for _, r := range vi.Candidates(m, k, k, nil) {
			var j int
			switch c := col.(type) {
			case *storage.IntColumn:
				j = vi.IntSub(k, c.V[r])
			case *storage.FloatColumn:
				j = vi.FloatSub(k, c.V[r])
			}
			if from <= j && j <= to {
				rows = append(rows, r)
			}
		}
	}
	return rows
}

// ints returns a row list as ints.
func ints(rows []int32) []int {
	out := make([]int, len(rows))
	for i, r := range rows {
		out[i] = int(r)
	}
	return out
}

// findRange returns the first range lo <= x <= lo+w over e's table t,
// w stepping up from 0.001, whose bounds' buckets and sub-buckets in x's
// value index at the given morsel size satisfy ok, and where they fall.
func findRange(t *testing.T, e *Engine, morsel int, lo float64, ok func(boundSubs) bool) (*expr.Pred, boundSubs) {
	t.Helper()
	for w := 0.001; w < 10; w += 0.001 {
		if _, s := subsOf(t, e, "x", morsel, lo, lo+w); ok(s) {
			return expr.And(expr.Cmp("x", expr.GE, storage.Float(lo)), expr.Cmp("x", expr.LE, storage.Float(lo+w))), s
		}
	}
	t.Fatalf("no range on x from %v satisfies the arm", lo)
	return nil, boundSubs{}
}

// twoSubsOfOneBucket reports whether a range lies inside one bucket with
// its bounds in different sub-buckets.
func twoSubsOfOneBucket(s boundSubs) bool { return s.bl == s.bh && s.sl != s.sh }

// TestCrackedEdgesBuildOnTheKthTouch: a range's first crackTouch-1
// touches make no cracker and read only the rows of the two sub-buckets
// holding its bounds, which they filter, beside the rest of the edges'
// parts exact mode refines, which lies wholly inside the range and is
// listed from the value index unread. The rows scanned grow by exactly the
// bound sub-buckets' rows plus the rows the sink takes — the bound
// sub-buckets' rows inside the range and the listed rest — computed here
// from the value index and the column, and never by more than an exact
// query's. The crackTouch-th touch makes the crackers, after which the
// query reads only the rows it keeps. An INT and a FLOAT column, scalar
// and grouped.
func TestCrackedEdgesBuildOnTheKthTouch(t *testing.T) {
	if crackTouch < 2 {
		t.Fatalf("crackTouch = %d: a bucket's first touch must not make its cracker", crackTouch)
	}
	tab := partsTable(rand.New(rand.NewSource(67)), 24_000)
	const morsel = 256
	opt := exec.ExecOptions{Parallelism: 1, MorselSize: morsel}
	e := New(Options{Seed: 1, Exec: opt})
	if err := e.Register(tab); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		col       string
		lo, above float64
		q         exec.Query
	}{
		{"k", 150, 850, partsQuery(expr.And(expr.Cmp("k", expr.GE, storage.Int(150)), expr.Cmp("k", expr.LT, storage.Int(850))), "f", false)},
		{"x", 12.5, 77.5, partsQuery(expr.And(expr.Cmp("x", expr.GE, storage.Float(12.5)), expr.Cmp("x", expr.LT, storage.Float(77.5))), "n", true)},
	} {
		q := c.q
		b, err := exec.RangeBuckets(context.Background(), current(t, e, "t").t, q, opt)
		if err != nil {
			t.Fatal(err)
		}
		hi := c.above - 1
		if c.col == "x" {
			hi = math.Nextafter(c.above, math.Inf(-1))
		}
		vi, s := subsOf(t, e, c.col, morsel, c.lo, hi)
		if bl, bh := b.Run(); s.bl != bl || s.bh != bh || bl >= bh {
			t.Fatalf("%s: run [%d, %d], the index puts it at [%d, %d]; want two edge buckets", q, bl, bh, s.bl, s.bh)
		}
		pl, ph := b.Parts()
		col, err := current(t, e, "t").t.ColumnByName(c.col)
		if err != nil {
			t.Fatal(err)
		}
		bound := append(subRows(col, vi, s.bl, s.sl, s.sl), subRows(col, vi, s.bh, s.sh, s.sh)...)
		rest := len(subRows(col, vi, s.bl, s.sl+1, int(pl.Hi))) + len(subRows(col, vi, s.bh, int(ph.Lo), s.sh-1))
		wantKept := int64(rest)
		for _, r := range bound {
			if x := col.Value(r).AsFloat(); x >= c.lo && x < c.above {
				wantKept++
			}
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
			cs := run.crack
			if !run.cells {
				t.Fatalf("%s, touch %d: the interior was not folded from cells", q, touch)
			}
			if cs["rows_out"] != wantKept || read > exactRead {
				t.Errorf("%s, touch %d: crack span %v, %d rows read, exact mode %d; want %d edge rows kept, no more read than exact mode",
					q, touch, cs, read, exactRead, wantKept)
			}
			switch {
			case touch < crackTouch:
				if cs["edges_scanned"] != int64(2) || cs["edges_built"] != int64(0) || read != int64(len(bound))+wantKept {
					t.Errorf("%s, touch %d: crack span %v, %d rows read; want both bound sub-buckets read as rows, none made, %d of their rows and %d kept",
						q, touch, cs, read, len(bound), wantKept)
				}
			default:
				built := int64(0)
				if touch == crackTouch {
					built = 2
				}
				if cs["edges_scanned"] != int64(0) || cs["edges_built"] != built || read != wantKept {
					t.Errorf("%s, touch %d: crack span %v, %d rows read; want both edges probed, %d made, only the %d rows kept read",
						q, touch, cs, read, built, wantKept)
				}
			}
		}
	}
}

// TestCrackedSubPartsMatchExact: at 2^17 rows, where an edge bucket has a
// second level (the fuzzers' tables, of at most 510 rows, have none),
// cracked queries over an INT and a FLOAT column crack only the
// sub-buckets holding their bounds: aggregates, scalar and dict-grouped,
// over a wide range, which fold the edges' covered sub-cells beside the
// interior's cells; a range inside one bucket whose bounds fall in
// different sub-buckets, which cracks both and lists the ones between;
// and plans with no cells, whose edge parts are whole buckets — a
// projection over a wide range and an aggregate over two adjacent
// buckets. Each query is asked crackTouch+1 times — its bound sub-buckets
// read as rows, then cracked, then probed — and on every touch the answer
// must equal exact mode's bit for bit, read no more rows than exact
// mode's (exactly as many where a cells plan reads both edges as rows),
// and every cracker made must hold exactly one sub-bucket's rows. A
// scalar and a grouped query over one range share their crackers. Queries
// grouped by a 12-code dictionary column g12 cut their edges at a level of
// two sub-buckets, so the part exact mode refines beside the bound's
// sub-bucket is the merge of four row lists.
func TestCrackedSubPartsMatchExact(t *testing.T) {
	tab := withDict12(t, partsTable(rand.New(rand.NewSource(70)), 1<<17), rand.New(rand.NewSource(74)))
	const morsel = 4096
	e := New(Options{Seed: 1, Exec: exec.ExecOptions{Parallelism: 2, MorselSize: morsel}})
	if err := e.Register(tab); err != nil {
		t.Fatal(err)
	}
	type ask struct {
		q     exec.Query
		cells bool
		what  string
	}
	rng := rand.New(rand.NewSource(71))
	var asks []ask
	for _, col := range []string{"k", "x"} {
		for i, input := range []string{"n", "f", "m"} {
			lo, hi := storage.Int(rng.Int63n(400)), storage.Int(500+rng.Int63n(400))
			if col == "x" {
				lo, hi = storage.Float(rng.Float64()*40), storage.Float(50+rng.Float64()*40)
			}
			where := expr.And(expr.Cmp(col, expr.GE, lo), expr.Cmp(col, []expr.Op{expr.LT, expr.LE}[i%2], hi))
			asks = append(asks, ask{partsQuery(where, input, false), true, "cells"}, ask{partsQuery(where, input, true), true, "cells"})
			g12 := partsQuery(where, input, true)
			g12.Select[0], g12.GroupBy = exec.SelectItem{Col: "g12"}, []string{"g12"}
			asks = append(asks, ask{g12, true, "cells, a level of two"})
		}
	}
	if _, err := e.Execute("t", asks[len(asks)-1].q, Exact); err != nil { // builds x's value index
		t.Fatal(err)
	}
	oneBucket, _ := findRange(t, e, morsel, 33.3, twoSubsOfOneBucket)
	adjacent, _ := findRange(t, e, morsel, 61.7, func(s boundSubs) bool { return s.bh == s.bl+1 })
	wide := expr.And(expr.Cmp("k", expr.GE, storage.Int(250)), expr.Cmp("k", expr.LT, storage.Int(750)))
	asks = append(asks,
		ask{partsQuery(oneBucket, "f", true), false, "one bucket, two sub-buckets"},
		ask{exec.Query{Select: []exec.SelectItem{{Col: "n"}, {Col: "f"}}, Where: wide}, false, "a projection"},
		ask{partsQuery(adjacent, "n", false), false, "two adjacent buckets"})
	// oneSub fails unless every cracker holds exactly the rows of its
	// sub-bucket.
	oneSub := func(what string) {
		t.Helper()
		v := current(t, e, "t")
		e.mu.Lock()
		defer e.mu.Unlock()
		for key, c := range v.cracks {
			var rows []int
			switch ed := c.(type) {
			case *edge[int64]:
				rows = ints(ed.rows)
			case *edge[float64]:
				rows = ints(ed.rows)
			}
			vi, _, err := v.t.ValueIndex(key.col, morsel)
			if err != nil {
				t.Fatal(err)
			}
			col, err := v.t.ColumnByName(key.col)
			if err != nil {
				t.Fatal(err)
			}
			if want := subRows(col, vi, key.bucket, key.sub, key.sub); !slices.Equal(rows, want) {
				t.Errorf("%s: cracker %+v holds %d rows; want its sub-bucket's %d", what, key, len(rows), len(want))
			}
		}
	}
	var folded, shared, merged int
	for _, a := range asks {
		q := a.q
		if a.what == "cells, a level of two" {
			b, err := exec.RangeBuckets(context.Background(), current(t, e, "t").t, q, e.opt.Exec)
			if err != nil {
				t.Fatal(err)
			}
			if pl, ph := b.Parts(); pl.Hi-pl.Lo != 3 || ph.Hi-ph.Lo != 3 {
				t.Fatalf("%s: edge parts %v and %v; want four sub-buckets each", q, pl, ph)
			}
			merged++
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
			what := fmt.Sprintf("%s: %s, touch %d", a.what, q, touch)
			if err := tablesIdentical(want, got); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			c := run.crack
			if run.cells != a.cells || c["edges"] != int64(2) {
				t.Fatalf("%s: crack span %v, cells %v; want two edges, cells %v", what, c, run.cells, a.cells)
			}
			if read > exactRead || a.cells && c["edges_scanned"] == int64(2) && read != exactRead {
				t.Errorf("%s: crack span %v, %d rows read, exact mode %d", what, c, read, exactRead)
			}
			if run.subCells > 0 {
				folded++
			}
			if touch == 1 && c["edges_scanned"] == int64(0) {
				shared++
			}
			oneSub(what)
		}
	}
	if folded == 0 || shared == 0 || merged == 0 {
		t.Errorf("%d asks folded sub-cells, %d queries found their crackers made, %d at a level of two; want some of each", folded, shared, merged)
	}
	if len(current(t, e, "t").cracks) == 0 {
		t.Error("no cracker made")
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
// first queries over the same range make exactly one cracker per
// (bucket, sub-bucket) key they touch — the sub-buckets holding its two
// bounds, read from the value index — and the losers of the race find the
// winner's: a wide range makes two, and a range inside one bucket makes
// two when its bounds' sub-buckets differ, one when they share one. Every
// answer equals exact mode's, and the crackers kept are exactly the keys
// touched. Run it with -race.
func TestConcurrentCrackedEdgesBuiltOnce(t *testing.T) {
	tab := partsTable(rand.New(rand.NewSource(65)), 24_000)
	const morsel = 512
	for _, copt := range []crack.Options{
		{Variant: crack.Standard},
		{Variant: crack.Stochastic, StochasticMin: 16, Seed: 3},
		{Variant: crack.HybridSort, SortMin: 16},
	} {
		t.Run(copt.Variant.String(), func(t *testing.T) {
			e := New(Options{Seed: 1, CrackOptions: copt, Exec: exec.ExecOptions{Parallelism: 2, MorselSize: morsel}})
			if err := e.Register(tab); err != nil {
				t.Fatal(err)
			}
			touched := map[crackKey]bool{}
			for _, r := range []struct {
				lo, above float64
				oneBucket bool
			}{{10, 90, false}, {50, 50.01, true}} {
				q := partsQuery(expr.And(expr.Cmp("x", expr.GE, storage.Float(r.lo)), expr.Cmp("x", expr.LT, storage.Float(r.above))), "n", true)
				want, err := e.Execute("t", q, Exact)
				if err != nil {
					t.Fatal(err)
				}
				_, s := subsOf(t, e, "x", morsel, r.lo, math.Nextafter(r.above, math.Inf(-1)))
				if (s.bl == s.bh) != r.oneBucket {
					t.Fatalf("%s: run [%d, %d]; want one bucket %v", q, s.bl, s.bh, r.oneBucket)
				}
				keys := s.keys("x")
				for _, k := range keys {
					touched[k] = true
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
						if err := tablesIdentical(want, got); err != nil || run.crack["edges"] != int64(len(keys)) {
							t.Errorf("%s: %v, crack span %v; want %d edges", q, err, run.crack, len(keys))
						}
						built += run.crack["edges_built"].(int64)
					}()
				}
				wg.Wait()
				if built != int64(len(keys)) {
					t.Errorf("%s: concurrent first queries made %d crackers for the %d sub-buckets %v", q, built, len(keys), keys)
				}
			}
			e.mu.Lock()
			defer e.mu.Unlock()
			cracks := current(t, e, "t").cracks
			for k := range cracks {
				if !touched[k] {
					t.Errorf("cracker %+v; no query's bound lies in it", k)
				}
			}
			if len(cracks) != len(touched) {
				t.Errorf("%d crackers; want one per (bucket, sub-bucket) touched, %d: %v", len(cracks), len(touched), touched)
			}
		})
	}
}

// TestConcurrentCrackedKthTouchBuildsOnce: under every variant, concurrent
// queries over a range whose bound sub-buckets have had crackTouch-1
// touches make one cracker per sub-bucket — the touch counted first makes
// it, the others find it — and none reads an edge as rows; every answer equals
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

// TestConcurrentCrackedSubPartsBuildOnce: under every variant, at 2^17
// rows, where a range's edge buckets are cut at their second level,
// concurrent queries at the crackTouch-th touch of the sub-buckets holding
// its bounds make one cracker per (bucket, sub-bucket) — the touch
// counted first makes it, the others find it — and none reads an edge as
// rows: a wide range beside sub-cells, and a range inside one bucket whose
// bounds fall in two sub-buckets, each making two. Every answer equals
// exact mode's, and the crackers kept are exactly the bound sub-buckets'.
// Run it with -race.
func TestConcurrentCrackedSubPartsBuildOnce(t *testing.T) {
	tab := partsTable(rand.New(rand.NewSource(72)), 1<<17)
	const morsel = 4096
	for _, copt := range []crack.Options{
		{Variant: crack.Standard},
		{Variant: crack.Stochastic, StochasticMin: 16, Seed: 3},
		{Variant: crack.HybridSort, SortMin: 16},
	} {
		t.Run(copt.Variant.String(), func(t *testing.T) {
			e := New(Options{Seed: 1, CrackOptions: copt, Exec: exec.ExecOptions{Parallelism: 2, MorselSize: morsel}})
			if err := e.Register(tab); err != nil {
				t.Fatal(err)
			}
			wide := partsQuery(expr.And(expr.Cmp("x", expr.GE, storage.Float(17.3)), expr.Cmp("x", expr.LT, storage.Float(81.9))), "n", false)
			if _, err := e.Execute("t", wide, Exact); err != nil { // builds x's value index
				t.Fatal(err)
			}
			_, ws := subsOf(t, e, "x", morsel, 17.3, math.Nextafter(81.9, math.Inf(-1)))
			narrow, ns := findRange(t, e, morsel, 44.4, twoSubsOfOneBucket)
			touched := map[crackKey]bool{}
			for _, step := range []struct {
				q     exec.Query
				cells bool
				keys  []crackKey
			}{
				{wide, true, ws.keys("x")},
				{partsQuery(narrow, "f", true), false, ns.keys("x")},
			} {
				q := step.q
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
						if err := tablesIdentical(want, got); err != nil || (run.subCells > 0) != step.cells ||
							run.crack["edges"] != int64(2) || run.crack["edges_scanned"] != int64(0) {
							t.Errorf("%s: %v, crack span %v, %d sub-cells", q, err, run.crack, run.subCells)
						}
						built += run.crack["edges_built"].(int64)
					}()
				}
				wg.Wait()
				for _, k := range step.keys {
					touched[k] = true
				}
				v := current(t, e, "t")
				e.mu.Lock()
				n, left := len(v.cracks), len(v.touches)
				for key := range v.cracks {
					if !touched[key] {
						t.Errorf("%s: cracker %+v; want only the bound sub-buckets' %v", q, key, touched)
					}
				}
				e.mu.Unlock()
				if built != 2 || n != len(touched) || left != 0 {
					t.Errorf("%s: concurrent touches %d on made %d crackers, %d kept, %d touch counts left; want 2, %d, 0",
						q, crackTouch, built, n, left, len(touched))
				}
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
		current(t, e, "blocked").cracks[crackKey{"v", 0, 0}] = b
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
