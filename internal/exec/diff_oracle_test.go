// Differential oracles across execution modes. Where parity_test.go proves
// the parallel operators match the sequential ones inside this package,
// this file (an external test package, so it can stand up full engines)
// checks the cross-mode contract the service sells:
//
//   - exact, parallel (morsel sizes 1/7/64) and cracked execution agree
//     row-for-row on seeded random tables and queries;
//   - the approximate modes (AQP sampling, online aggregation) land inside
//     their own reported 95% confidence intervals in at least 95% of
//     seeded trials.
//
// Everything is seeded so the suite is deterministic-green: the trial
// counts and seeds below were tuned together — if you change one, rerun
// and retune rather than loosening the thresholds.
package exec_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dex/internal/core"
	"dex/internal/exec"
	"dex/internal/expr"
	"dex/internal/storage"
)

// oracleTable builds the random test table: a shuffled unique int key (so
// ORDER BY id is a total order and cracking has real work to do), a
// small-domain int dimension, a float measure, and a label column.
func oracleTable(rng *rand.Rand, name string, rows int) *storage.Table {
	ids := rng.Perm(rows)
	ks := make([]int64, rows)
	ds := make([]int64, rows)
	vs := make([]float64, rows)
	ss := make([]string, rows)
	labels := []string{"red", "green", "blue", "amber"}
	for i := 0; i < rows; i++ {
		ks[i] = int64(ids[i])
		ds[i] = rng.Int63n(7)
		vs[i] = rng.NormFloat64() * 100
		ss[i] = labels[rng.Intn(len(labels))]
	}
	t, err := storage.FromColumns(name, storage.Schema{
		{Name: "id", Type: storage.TInt},
		{Name: "d", Type: storage.TInt},
		{Name: "v", Type: storage.TFloat},
		{Name: "s", Type: storage.TString},
	}, []storage.Column{
		storage.NewIntColumn(ks), storage.NewIntColumn(ds),
		storage.NewFloatColumn(vs), storage.NewStringColumn(ss),
	})
	if err != nil {
		panic(err)
	}
	return t
}

// rangeWhere builds a crackable conjunctive range predicate on an int or
// float column; about a third of draws leave it nil (full scan).
func rangeWhere(rng *rand.Rand, rows int) *expr.Pred {
	switch rng.Intn(6) {
	case 0:
		return nil
	case 1: // open-ended on the key
		return expr.Cmp("id", expr.GE, storage.Int(rng.Int63n(int64(rows))))
	case 2: // closed range on the key
		lo := rng.Int63n(int64(rows))
		hi := lo + rng.Int63n(int64(rows))
		return expr.And(
			expr.Cmp("id", expr.GE, storage.Int(lo)),
			expr.Cmp("id", expr.LT, storage.Int(hi)),
		)
	case 3: // closed range on the float measure
		lo := rng.NormFloat64() * 50
		return expr.And(
			expr.Cmp("v", expr.GE, storage.Float(lo)),
			expr.Cmp("v", expr.LT, storage.Float(lo+rng.Float64()*200)),
		)
	case 4: // small-domain dimension
		return expr.Cmp("d", expr.LE, storage.Int(rng.Int63n(7)))
	default: // not crackable: exercises the cracked-mode fallback
		return expr.Cmp("s", expr.NE, storage.String_("red"))
	}
}

// oracleQuery draws a query.
func oracleQuery(rng *rand.Rand, rows int) exec.Query {
	aggs := []exec.AggFunc{exec.AggCount, exec.AggSum, exec.AggAvg, exec.AggMin, exec.AggMax}
	var q exec.Query
	switch rng.Intn(3) {
	case 0: // projection, totally ordered by the unique key
		q.Select = []exec.SelectItem{{Col: "id"}, {Col: "v"}, {Col: "s"}}
		q.OrderBy = []exec.OrderKey{{Col: "id", Desc: rng.Intn(2) == 0}}
		if rng.Intn(2) == 0 {
			q.Limit = 1 + rng.Intn(50)
		}
	case 1: // scalar aggregates: one row, positional compare
		q.Select = []exec.SelectItem{
			{Col: "*", Agg: exec.AggCount},
			{Col: "v", Agg: aggs[rng.Intn(len(aggs))]},
			{Col: "d", Agg: aggs[rng.Intn(len(aggs))]},
		}
	default: // group-by: groups in first-seen order
		dims := [][]string{{"d"}, {"s"}, {"d", "s"}}[rng.Intn(3)]
		q.GroupBy = dims
		for _, g := range dims {
			q.Select = append(q.Select, exec.SelectItem{Col: g})
		}
		q.Select = append(q.Select,
			exec.SelectItem{Col: "v", Agg: aggs[rng.Intn(len(aggs))]},
			exec.SelectItem{Col: "*", Agg: exec.AggCount},
		)
	}
	q.Where = rangeWhere(rng, rows)
	return q
}

// cellsClose compares cells exactly, as the parity harness does: floats by
// their bits, NaN equal to NaN. SUM/AVG keep the one order-free sum, so
// no parallel merge order moves them.
func cellsClose(a, b storage.Value) bool {
	if a.Typ == storage.TFloat && b.Typ == storage.TFloat {
		return math.Float64bits(a.F) == math.Float64bits(b.F) || a.F != a.F && b.F != b.F
	}
	return a == b
}

// requireAgree asserts got matches want row for row, in order: every mode
// here lists groups in first-seen order, cracked included, since its probe
// hands over row ids ascending.
func requireAgree(t *testing.T, label string, want, got *storage.Table) {
	t.Helper()
	if want.Schema().String() != got.Schema().String() {
		t.Fatalf("%s: schema\nwant: %s\ngot:  %s", label, want.Schema(), got.Schema())
	}
	if want.NumRows() != got.NumRows() {
		t.Fatalf("%s: rows want=%d got=%d", label, want.NumRows(), got.NumRows())
	}
	for r := 0; r < want.NumRows(); r++ {
		w, g := want.Row(r), got.Row(r)
		for c := range w {
			if !cellsClose(w[c], g[c]) {
				t.Fatalf("%s: row %d col %d (%s): want %v got %v",
					label, r, c, want.Schema()[c].Name, w[c], g[c])
			}
		}
	}
}

// TestCrossModeRowOracle: 120 seeded random (table, query) trials, each
// executed five ways — sequential exact, parallel exact at morsel sizes
// 1, 7 and 64, and cracked — must produce identical result rows. The
// cracked engines accumulate index state across trials, so later queries
// hit partially-cracked columns, exactly as a live session would.
func TestCrossModeRowOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, rows := range []int{1009, 5000} {
		tbl := oracleTable(rng, "otab", rows)

		seq := core.New(core.Options{Seed: 1, Exec: exec.ExecOptions{Parallelism: 1}})
		crk := core.New(core.Options{Seed: 1, Exec: exec.ExecOptions{Parallelism: 1}})
		pars := map[int]*core.Engine{}
		for _, m := range []int{1, 7, 64} {
			pars[m] = core.New(core.Options{Seed: 1, Exec: exec.ExecOptions{Parallelism: 4, MorselSize: m}})
		}
		for _, e := range append([]*core.Engine{seq, crk}, pars[1], pars[7], pars[64]) {
			if err := e.Register(tbl); err != nil {
				t.Fatal(err)
			}
		}

		for trial := 0; trial < 60; trial++ {
			q := oracleQuery(rng, rows)
			label := fmt.Sprintf("rows=%d trial=%d q=%s", rows, trial, q)
			want, err := seq.Execute("otab", q, core.Exact)
			if err != nil {
				t.Fatalf("%s: sequential: %v", label, err)
			}
			for _, m := range []int{1, 7, 64} {
				got, err := pars[m].Execute("otab", q, core.Exact)
				if err != nil {
					t.Fatalf("%s: parallel morsel=%d: %v", label, m, err)
				}
				requireAgree(t, label+fmt.Sprintf(" [parallel morsel=%d]", m), want, got)
			}
			got, err := crk.Execute("otab", q, core.Cracked)
			if err != nil {
				t.Fatalf("%s: cracked: %v", label, err)
			}
			requireAgree(t, label+" [cracked]", want, got)
		}
	}
}

// approxTrial is one CI-coverage draw: a scalar aggregate under a random
// range predicate, executed exactly and approximately. It reports whether
// the approximate answer's reported ci95 covered the truth, and whether
// that interval had a width (a zero-width one is an exhausted walk).
func approxTrial(t *testing.T, eng *core.Engine, rng *rand.Rand, rows int, mode core.Mode) (covered, sampled bool) {
	t.Helper()
	aggs := []exec.AggFunc{exec.AggSum, exec.AggCount, exec.AggAvg}
	q := exec.Query{
		Select: []exec.SelectItem{{Col: "v", Agg: aggs[rng.Intn(len(aggs))]}},
	}
	// Wide predicates only: a range matching a handful of rows gives the
	// sampler a few points to estimate from, and its small-sample CIs are
	// not what this oracle is calibrating. The d <> -1 leaf holds on every
	// row but keeps the range off the bucket cells, which would answer
	// the interior exactly and leave only a batch of edge rows to sample:
	// the estimate walks the table under its row cap instead.
	lo := rng.Int63n(int64(rows / 2))
	q.Where = expr.And(
		expr.Cmp("id", expr.GE, storage.Int(lo)),
		expr.Cmp("id", expr.LT, storage.Int(lo+int64(rows)/3)),
		expr.Cmp("d", expr.NE, storage.Int(-1)),
	)
	exact, err := eng.Execute("otab", q, core.Exact)
	if err != nil {
		t.Fatal(err)
	}
	truth := exact.Column(0).Value(0).AsFloat()
	approx, err := eng.Execute("otab", q, mode)
	if err != nil {
		t.Fatal(err)
	}
	if approx.NumRows() != 1 {
		t.Fatalf("approximate result has %d rows", approx.NumRows())
	}
	est := approx.Column(0).Value(0).AsFloat()
	ci := approx.Column(1).Value(0).AsFloat()
	if ci <= 0 {
		// A zero-width interval means the estimator consumed the whole
		// population (online aggregation ran to completion): the answer
		// must equal the exact one. Compare as floats — the estimates
		// table renders every aggregate as FLOAT (exact COUNT is INT),
		// and a full randomized-order scan accumulates sums in a
		// different order than the exact path, so ulps may differ.
		return math.Abs(est-truth) <= 1e-9*math.Max(1, math.Abs(truth)), false
	}
	return math.Abs(est-truth) <= ci, true
}

// TestApproxCIOracle: over seeded trials, AQP sampling and online
// aggregation must cover the exact answer with their reported 95% CIs at
// least 95% of the time. Approx mode stops at a tenth of the rows, so
// most of its trials must report an interval with a width, or the
// coverage bar measures nothing, and it runs 1000 of them: 40 trials (one
// standard error of three points) would fail it about one run in five.
// Online mode's 1 % target walks most of these 40 000 rows to their end,
// so its arm mostly checks that an exhausted walk is exact.
func TestApproxCIOracle(t *testing.T) {
	const rows = 40_000
	rng := rand.New(rand.NewSource(23))
	tbl := oracleTable(rng, "otab", rows)
	eng := core.New(core.Options{Seed: 9})
	if err := eng.Register(tbl); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		mode      core.Mode
		trials    int
		minSample int // trials that must report ci95 > 0
	}{
		{"aqp", core.Approx, 1000, 900},
		{"online", core.Online, 40, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trials := tc.trials
			covered, sampled := 0, 0
			for i := 0; i < trials; i++ {
				c, s := approxTrial(t, eng, rng, rows, tc.mode)
				if c {
					covered++
				}
				if s {
					sampled++
				}
			}
			coverage := float64(covered) / float64(trials)
			t.Logf("%s: %d/%d trials inside reported ci95 (%.1f%%), %d with ci95 > 0", tc.name, covered, trials, 100*coverage, sampled)
			if sampled < tc.minSample {
				t.Fatalf("%s: only %d of %d trials reported ci95 > 0, want %d: the intervals went unmeasured", tc.name, sampled, trials, tc.minSample)
			}
			if coverage < 0.95 {
				t.Fatalf("%s coverage %.1f%% < 95%%: the reported confidence intervals are optimistic", tc.name, 100*coverage)
			}
		})
	}
}
