package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"dex/internal/exec"
	"dex/internal/expr"
	"dex/internal/gesture"
	"dex/internal/qbe"
	"dex/internal/recommend"
	"dex/internal/seedb"
	"dex/internal/sqlparse"
	"dex/internal/steer"
	"dex/internal/storage"
	"dex/internal/viz"
	"dex/internal/workload"
)

func init() {
	register(Experiment{ID: "E17", Title: "Explore-by-example steering: F1 vs labeled samples", Source: "AIDE [18]", Run: runE17})
	register(Experiment{ID: "E18", Title: "Query discovery from example tuples", Source: "query by output [64], discovering queries [58]", Run: runE18})
	register(Experiment{ID: "E19", Title: "Query recommendation: hit-rate vs popularity baseline", Source: "interactive SQL suggestion [21]", Run: runE19})
	register(Experiment{ID: "E20", Title: "SeeDB: view recommendation strategies and pruning", Source: "SeeDB [49]", Run: runE20})
	register(Experiment{ID: "E21", Title: "M4 result reduction for line charts", Source: "dynamic result reduction [11]", Run: runE21})
	register(Experiment{ID: "E22", Title: "Order-preserving sampling for ordered visualizations", Source: "rapid sampling with ordering guarantees [12]", Run: runE22})
	register(Experiment{ID: "E23", Title: "Gestural query synthesis", Source: "dbTouch [32,44], GestureDB [45,47]", Run: runE23})
}

func runE17(w io.Writer, cfg Config) error {
	n := cfg.Scale(20_000, 10, 3_000)
	rng := rand.New(rand.NewSource(cfg.Seed))
	sky, err := workload.SkyCatalog(rng, n)
	if err != nil {
		return err
	}
	// Hidden interest: the quasar cluster around (30,10).
	oracle := func(x []float64) bool {
		return x[0] >= 24 && x[0] < 36 && x[1] >= 4 && x[1] < 16
	}
	e, err := steer.New(sky, []string{"ra", "dec"}, oracle, steer.Options{
		Seed: cfg.Seed, MaxIters: 12, TargetF1: 0.97,
	})
	if err != nil {
		return err
	}
	stats, err := e.Run()
	if err != nil {
		return err
	}
	t := NewTable("iteration", "labeled tuples", "steering F1", "random-baseline F1", "regions")
	for _, s := range stats {
		randF1, err := steer.RandomBaseline(sky, []string{"ra", "dec"}, oracle, s.Labeled, cfg.Seed+int64(s.Iter))
		if err != nil {
			return err
		}
		t.Row(s.Iter, s.Labeled, s.F1, randF1, s.Regions)
	}
	t.Fprint(w)
	if q := e.Query(); q != nil {
		fmt.Fprintf(w, "\nextracted query: SELECT * FROM sky WHERE %s\n", q)
	}
	fmt.Fprintln(w, "shape check: boundary-exploiting steering reaches high F1 with a small labeled")
	fmt.Fprintln(w, "budget; random labeling at the same budget lags badly on small targets.")
	return nil
}

func runE18(w io.Writer, cfg Config) error {
	n := cfg.Scale(50_000, 10, 5_000)
	rng := rand.New(rand.NewSource(cfg.Seed))
	sky, err := workload.SkyCatalog(rng, n)
	if err != nil {
		return err
	}
	truth := expr.And(
		expr.Cmp("mag", expr.GE, storage.Float(16)),
		expr.Cmp("mag", expr.LT, storage.Float(19)),
		expr.Cmp("z", expr.GE, storage.Float(0.1)),
	)
	all, err := expr.Filter(sky, truth)
	if err != nil {
		return err
	}
	t := NewTable("examples", "method", "precision", "recall", "F1", "output rows")
	for _, k := range []int{5, 20, 100, len(all)} {
		ex := make([]int, 0, k)
		for i := 0; i < k && i < len(all); i++ {
			ex = append(ex, all[rng.Intn(len(all))])
		}
		d, err := qbe.DiscoverConjunctive(sky, ex, []string{"ra", "dec", "mag", "z"})
		if err != nil {
			return err
		}
		prec, rec, f1, err := qbe.Score(sky, d.Pred, truth)
		if err != nil {
			return err
		}
		label := fmt.Sprint(len(ex))
		if k == len(all) {
			label = fmt.Sprintf("%d(all)", len(ex))
		}
		t.Row(label, "conjunctive", prec, rec, f1, d.OutputSize)
	}
	// Disjunctive hidden query: two magnitude bands with a wide populated
	// gap between them, so a single conjunctive range must over-cover.
	disTruth := expr.Or(
		expr.And(expr.Cmp("mag", expr.GE, storage.Float(14)), expr.Cmp("mag", expr.LT, storage.Float(16))),
		expr.And(expr.Cmp("mag", expr.GE, storage.Float(21)), expr.Cmp("mag", expr.LT, storage.Float(23))),
	)
	disAll, err := expr.Filter(sky, disTruth)
	if err != nil {
		return err
	}
	if len(disAll) > 0 {
		dc, err := qbe.DiscoverConjunctive(sky, disAll, []string{"mag", "z"})
		if err != nil {
			return err
		}
		p1, r1, f1c, _ := qbe.Score(sky, dc.Pred, disTruth)
		t.Row(fmt.Sprintf("%d(all)", len(disAll)), "conjunctive(disjoint target)", p1, r1, f1c, dc.OutputSize)
		dt, err := qbe.DiscoverByTree(sky, disAll, []string{"mag", "z"},
			qbe.TreeOptions{Seed: cfg.Seed, MaxExamples: 2000})
		if err != nil {
			return err
		}
		p2, r2, f2, _ := qbe.Score(sky, dt.Pred, disTruth)
		t.Row(fmt.Sprintf("%d(all)", len(disAll)), "decision-tree(disjoint target)", p2, r2, f2, dt.OutputSize)
	}
	t.Fprint(w)
	fmt.Fprintln(w, "\nshape check: accuracy approaches 1 as examples accumulate; on a disjunctive")
	fmt.Fprintln(w, "target the conjunctive discoverer over-generalizes while the tree recovers the union.")
	return nil
}

func runE19(w io.Writer, cfg Config) error {
	nSessions := cfg.Scale(400, 4, 80)
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Three analyst archetypes with characteristic 3-query scripts plus noise.
	archetypes := [][][]string{
		{
			{"select:amount", "where:region"},
			{"agg:SUM(amount)", "groupby:product", "where:region"},
			{"agg:AVG(amount)", "groupby:product", "orderby:product"},
		},
		{
			{"select:price", "where:symbol"},
			{"agg:MAX(price)", "groupby:symbol"},
			{"agg:AVG(price)", "groupby:symbol", "where:ts"},
		},
		{
			{"select:mag", "where:z"},
			{"agg:COUNT(*)", "groupby:class", "where:z"},
			{"agg:AVG(mag)", "groupby:class"},
		},
	}
	gen := func(n int) []recommend.Session {
		var out []recommend.Session
		for i := 0; i < n; i++ {
			arch := archetypes[rng.Intn(len(archetypes))]
			var s recommend.Session
			for _, q := range arch {
				qq := append([]string(nil), q...)
				if rng.Float64() < 0.2 { // session noise
					qq = append(qq, fmt.Sprintf("where:extra%d", rng.Intn(4)))
				}
				s = append(s, qq)
			}
			out = append(out, s)
		}
		return out
	}
	train := gen(nSessions)
	test := gen(nSessions / 4)
	r, err := recommend.New(train)
	if err != nil {
		return err
	}

	t := NewTable("method", "k", "hit-rate@k", "trials")
	for _, k := range []int{1, 3} {
		hits, popHits, trials := 0, 0, 0
		for _, s := range test {
			if len(s) < 2 {
				continue
			}
			prefix := s[:len(s)-1]
			truth := s[len(s)-1]
			sugs, err := r.SuggestNextQuery(prefix, k)
			if err != nil {
				return err
			}
			if recommend.HitAtK(sugs, truth) {
				hits++
			}
			// Popularity baseline: most common historical queries, context-free.
			pop, err := r.SuggestNextQuery(nil, k)
			if err != nil {
				return err
			}
			if recommend.HitAtK(pop, truth) {
				popHits++
			}
			trials++
		}
		t.Row("session-similarity", k, fmt.Sprintf("%.1f%%", 100*float64(hits)/float64(trials)), trials)
		t.Row("popularity", k, fmt.Sprintf("%.1f%%", 100*float64(popHits)/float64(trials)), trials)
	}
	t.Fprint(w)
	fmt.Fprintln(w, "\nshape check: conditioning on the session prefix routes each analyst to their")
	fmt.Fprintln(w, "archetype's next query; the context-free baseline can only guess the mode.")
	return nil
}

func runE20(w io.Writer, cfg Config) error {
	n := cfg.Scale(100_000, 20, 8_000)
	rng := rand.New(rand.NewSource(cfg.Seed))
	sales, err := workload.Sales(rng, n)
	if err != nil {
		return err
	}
	target := expr.Cmp("region", expr.EQ, storage.String_("east"))
	views := seedb.Candidates(
		[]string{"product", "quarter", "region"},
		[]string{"amount", "qty"},
		[]exec.AggFunc{exec.AggSum, exec.AggAvg, exec.AggCount},
	)
	t := NewTable("strategy", "rows scanned", "view updates", "views pruned", "latency", "top view")
	var sharedTop seedb.View
	for _, strat := range []seedb.Strategy{seedb.Exhaustive, seedb.SharedScan, seedb.Pruned} {
		var top []seedb.Scored
		var stats seedb.Stats
		lat := Timed(func() {
			top, stats, err = seedb.Recommend(sales, target, views, seedb.Options{K: 3, Strategy: strat})
		})
		if err != nil {
			return err
		}
		if strat == seedb.SharedScan {
			sharedTop = top[0].View
		}
		t.Row(strat.String(), stats.RowsScanned, stats.ViewUpdates, stats.ViewsPruned, lat, top[0].View.String())
	}
	t.Fprint(w)
	fmt.Fprintf(w, "\ncandidate views: %d; reference ranking top view: %s\n", len(views), sharedTop)
	fmt.Fprintln(w, "shape check: shared scan cuts row reads by the view count; pruning additionally")
	fmt.Fprintln(w, "drops hopeless views after a few phases while preserving the top view.")
	return nil
}

func runE21(w io.Writer, cfg Config) error {
	n := cfg.Scale(1_000_000, 20, 50_000)
	rng := rand.New(rand.NewSource(cfg.Seed))
	ys := workload.RandomWalk(rng, n, 1)
	t := NewTable("width(px)", "method", "points kept", "reduction", "pixel error")
	for _, width := range []int{100, 400, 1000} {
		idx, err := viz.M4(ys, width)
		if err != nil {
			return err
		}
		peM4, err := viz.PixelError(ys, idx, width, 60)
		if err != nil {
			return err
		}
		sys := viz.Systematic(n, len(idx))
		peSys, err := viz.PixelError(ys, sys, width, 60)
		if err != nil {
			return err
		}
		t.Row(width, "M4", len(idx), fmt.Sprintf("%.0fx", float64(n)/float64(len(idx))), peM4)
		t.Row(width, "systematic", len(sys), fmt.Sprintf("%.0fx", float64(n)/float64(len(sys))), peSys)
	}
	t.Fprint(w)
	fmt.Fprintln(w, "\nshape check: M4 keeps <=4 points per pixel column with zero pixel error —")
	fmt.Fprintln(w, "orders of magnitude fewer points; naive sampling at the same budget smears spikes.")
	return nil
}

func runE22(w io.Writer, cfg Config) error {
	perGroup := cfg.Scale(50_000, 20, 5_000)
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := NewTable("group separation", "samples taken", "full-data size", "ordering correct", "resolved")
	for _, sep := range []float64{5, 1, 0.1} {
		groups := make([][]float64, 6)
		for g := range groups {
			groups[g] = make([]float64, perGroup)
			for i := range groups[g] {
				groups[g][i] = float64(g)*sep + rng.NormFloat64()*3
			}
		}
		res, err := viz.OrderSample(groups, 50, cfg.Seed)
		if err != nil {
			return err
		}
		taken := 0
		for _, k := range res.Taken {
			taken += k
		}
		t.Row(fmt.Sprintf("%.2g sigma-units", sep), taken, 6*perGroup,
			viz.TrueOrderAgrees(groups, res), res.Resolved)
	}
	t.Fprint(w)
	fmt.Fprintln(w, "\nshape check: well-separated bars resolve their visual order from a tiny sample;")
	fmt.Fprintln(w, "the sampler spends its budget only on the ambiguous adjacent pairs.")
	return nil
}

func runE23(w io.Writer, cfg Config) error {
	n := cfg.Scale(20_000, 10, 2_000)
	rng := rand.New(rand.NewSource(cfg.Seed))
	sales, err := workload.Sales(rng, n)
	if err != nil {
		return err
	}
	cases := []struct {
		name  string
		trace gesture.Trace
		sql   string
	}{
		{
			"tap+swipe",
			gesture.Trace{
				{Kind: gesture.Tap, Column: "product"},
				{Kind: gesture.Tap, Column: "amount"},
				{Kind: gesture.SwipeRange, Column: "amount", Lo: 100, Hi: 200},
			},
			"SELECT product, amount FROM sales WHERE amount >= 100 AND amount < 200",
		},
		{
			"hold+pinch",
			gesture.Trace{
				{Kind: gesture.Hold, Column: "region"},
				{Kind: gesture.Pinch, Column: "amount", Agg: exec.AggAvg},
				{Kind: gesture.FlickDown, Column: "region"},
			},
			"SELECT region, avg(amount) FROM sales GROUP BY region ORDER BY region DESC",
		},
		{
			"drill-style",
			gesture.Trace{
				{Kind: gesture.Hold, Column: "quarter"},
				{Kind: gesture.SwipeRange, Column: "qty", Lo: 3, Hi: 8},
				{Kind: gesture.Pinch, Column: "amount", Agg: exec.AggSum},
			},
			"SELECT quarter, sum(amount) FROM sales WHERE qty >= 3 AND qty < 8 GROUP BY quarter",
		},
	}
	t := NewTable("trace", "gestures", "synthesized query", "rows", "matches intended SQL")
	for _, c := range cases {
		q, err := gesture.Synthesize(sales.Schema(), c.trace)
		if err != nil {
			return err
		}
		res, err := exec.ExecuteCtx(context.Background(), sales, q, oneWorker)
		if err != nil {
			return err
		}
		// Execute the intended SQL and compare result shapes + checksums.
		intended, err := executeSQL(sales, c.sql)
		if err != nil {
			return err
		}
		match := tablesEqual(res, intended)
		t.Row(c.name, len(c.trace), q.String(), res.NumRows(), match)
	}
	t.Fprint(w)
	fmt.Fprintln(w, "\nshape check: every scripted gesture trace compiles to the intended relational")
	fmt.Fprintln(w, "query and returns identical results.")
	return nil
}

// oneWorker runs the shape check's queries through the pipeline on one
// worker, so a synthesized query and its intended SQL add a float SUM in
// the same order and their answers compare equal.
var oneWorker = exec.ExecOptions{Parallelism: 1}

func executeSQL(t *storage.Table, sql string) (*storage.Table, error) {
	st, err := parseSQL(sql)
	if err != nil {
		return nil, err
	}
	return exec.ExecuteCtx(context.Background(), t, st, oneWorker)
}

func tablesEqual(a, b *storage.Table) bool {
	if a.NumRows() != b.NumRows() || a.NumCols() != b.NumCols() {
		return false
	}
	for r := 0; r < a.NumRows(); r++ {
		for c := 0; c < a.NumCols(); c++ {
			av, bv := a.Column(c).Value(r), b.Column(c).Value(r)
			if av.Compare(bv) != 0 {
				return false
			}
		}
	}
	return true
}

// parseSQL adapts sqlparse for intra-harness use.
func parseSQL(sql string) (exec.Query, error) {
	st, err := sqlparse.Parse(sql)
	if err != nil {
		return exec.Query{}, err
	}
	return st.Query, nil
}
