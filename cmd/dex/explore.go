package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"

	"dex/internal/diversify"
	"dex/internal/exec"
	"dex/internal/metrics"
	"dex/internal/prefetch"
	"dex/internal/seedb"
	"dex/internal/steer"
	"dex/internal/viz"
	"dex/internal/workload"
)

// runExplore is `dex explore`: a scripted end-to-end exploration session
// over a synthetic sky survey, chaining the tutorial's layers:
// explore-by-example steering finds the user's region of interest, the
// learned query is executed, its results are diversified for display,
// SeeDB recommends the most deviating views of the discovered subset, and
// a prefetching fetcher replays the spatial pan the user would do around
// the region.
func runExplore(args []string) error {
	fs := flag.NewFlagSet("dex explore", flag.ExitOnError)
	n := fs.Int("n", 50_000, "sky catalog size")
	seed := fs.Int64("seed", 11, "random seed")
	fs.Parse(args)
	return explore(*n, *seed)
}

func explore(n int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	sky, err := workload.SkyCatalog(rng, n)
	if err != nil {
		return err
	}
	fmt.Printf("sky catalog: %d objects (%s)\n", sky.NumRows(), sky.Schema())

	// 1. The astronomer cannot write the query, but can say "interesting /
	//    not interesting" — steer toward the hidden quasar cluster.
	fmt.Println("\n[1] explore-by-example steering (AIDE)")
	oracle := func(x []float64) bool {
		return x[0] >= 24 && x[0] < 36 && x[1] >= 4 && x[1] < 16
	}
	ex, err := steer.New(sky, []string{"ra", "dec"}, oracle, steer.Options{Seed: seed, MaxIters: 12, TargetF1: 0.95})
	if err != nil {
		return err
	}
	stats, err := ex.Run()
	if err != nil {
		return err
	}
	for _, s := range stats {
		fmt.Printf("  iter %2d: %4d labeled, F1=%.3f, %d region(s)\n", s.Iter, s.Labeled, s.F1, s.Regions)
	}
	pred := ex.Query()
	if pred == nil {
		return fmt.Errorf("steering found no relevant region")
	}
	fmt.Printf("  learned query: WHERE %s\n", pred)

	// 2. Execute the learned query.
	fmt.Println("\n[2] executing the learned query")
	res, err := exec.ExecuteCtx(context.Background(), sky, exec.Query{
		Select: []exec.SelectItem{{Col: "ra"}, {Col: "dec"}, {Col: "mag"}, {Col: "z"}},
		Where:  pred,
	}, exec.ExecOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("  %d matching objects\n", res.NumRows())

	// 3. Diversify what the UI shows: 8 representative objects, not the 8
	//    brightest near-duplicates.
	fmt.Println("\n[3] diversified representatives (MMR)")
	items := make([]diversify.Item, res.NumRows())
	raC, _ := res.ColumnByName("ra")
	decC, _ := res.ColumnByName("dec")
	magC, _ := res.ColumnByName("mag")
	for i := range items {
		items[i] = diversify.Item{
			ID:       i,
			Rel:      24 - magC.Value(i).AsFloat(), // brighter = more relevant
			Features: []float64{raC.Value(i).AsFloat(), decC.Value(i).AsFloat()},
		}
	}
	k := 8
	if k > len(items) {
		k = len(items)
	}
	div, err := diversify.MMR(items, k, 0.4)
	if err != nil {
		return err
	}
	for _, p := range div.Picked {
		fmt.Printf("  ra=%6.2f dec=%6.2f mag=%.2f\n",
			items[p].Features[0], items[p].Features[1], 24-items[p].Rel)
	}

	// 4. SeeDB: which views of the discovered subset deviate most from the
	//    rest of the sky?
	fmt.Println("\n[4] recommended views of the discovered region (SeeDB)")
	views := seedb.Candidates([]string{"class"}, []string{"z", "mag"},
		[]exec.AggFunc{exec.AggAvg, exec.AggCount})
	top, _, err := seedb.Recommend(sky, pred, views, seedb.Options{K: 2, Strategy: seedb.SharedScan})
	if err != nil {
		return err
	}
	for i, s := range top {
		fmt.Printf("  %d. %s (utility %.3f)\n", i+1, s.View, s.Utility)
	}

	// 5. Pan around the region with trajectory prefetching.
	fmt.Println("\n[5] panning around the region with momentum prefetching")
	grid, err := prefetch.NewGrid(sky, "ra", "dec", "z", 30, 30)
	if err != nil {
		return err
	}
	f, err := prefetch.NewFetcher(grid, 900, 10, prefetch.Momentum{})
	if err != nil {
		return err
	}
	win := prefetch.Window{X0: 8, Y0: 14, X1: 10, Y1: 16} // near the cluster
	hits, misses := 0, 0
	for step := 0; step < 20; step++ {
		win = win.Shift(1, 0).Clamp(30, 30)
		_, h, m := f.Request(win)
		if step > 0 {
			hits += h
			misses += m
		}
	}
	fmt.Printf("  pan of 20 steps: %d tile hits, %d misses (%.0f%% served from cache)\n",
		hits, misses, 100*float64(hits)/float64(hits+misses))

	// 6. Semantic windows: where else in the sky is the object density
	//    anomalously high? One SAT pass answers every window query in O(1).
	fmt.Println("\n[6] semantic-window search: 3x3-tile windows with >2x expected density")
	satGrid, err := prefetch.NewGrid(sky, "ra", "dec", "z", 30, 30)
	if err != nil {
		return err
	}
	sat := prefetch.NewSAT(satGrid)
	expected := float64(sky.NumRows()) / (30 * 30) * 9
	wins, err := sat.FindWindows(3, 3, func(wa prefetch.WindowAgg) bool {
		return float64(wa.Count) > 2*expected
	})
	if err != nil {
		return err
	}
	show := 3
	if show > len(wins) {
		show = len(wins)
	}
	for i := 0; i < show; i++ {
		fmt.Printf("  window tiles (%d,%d)-(%d,%d): %d objects (expected ~%.0f)\n",
			wins[i].Win.X0, wins[i].Win.Y0, wins[i].Win.X1, wins[i].Win.Y1,
			wins[i].Count, expected)
	}

	// 7. A redshift histogram of the region, as the dashboard would draw it.
	fmt.Println("\n[7] redshift distribution of the discovered region")
	zC, _ := res.ColumnByName("z")
	zs := make([]float64, res.NumRows())
	for i := range zs {
		zs[i] = zC.Value(i).AsFloat()
	}
	counts, edges := metrics.Histogram(zs, 12)
	labels := make([]string, len(counts))
	for i := range labels {
		labels[i] = fmt.Sprintf("z=%4.2f", edges[i])
	}
	fmt.Print(viz.BarChart(labels, counts, 40))
	return nil
}
