// Dashboard: the visualization side of exploration. SeeDB recommends which
// views of a selected data subset deviate most from the rest; M4 reduction
// shrinks a million-point series to a few hundred points with zero pixel
// error; order-preserving sampling draws a bar chart whose ordering is
// statistically guaranteed from a fraction of the data.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"dex/internal/exec"
	"dex/internal/expr"
	"dex/internal/seedb"
	"dex/internal/storage"
	"dex/internal/viz"
	"dex/internal/workload"
)

func main() {
	rng := rand.New(rand.NewSource(8))
	sales, err := workload.Sales(rng, 200_000)
	if err != nil {
		log.Fatal(err)
	}

	// 1. SeeDB: the analyst selected the east region — which charts are
	//    worth showing about it?
	fmt.Println("[SeeDB] most deviating views of region='east' vs everything else:")
	target := expr.Cmp("region", expr.EQ, storage.String_("east"))
	views := seedb.Candidates(
		[]string{"product", "quarter"},
		[]string{"amount", "qty"},
		[]exec.AggFunc{exec.AggSum, exec.AggAvg, exec.AggCount},
	)
	top, stats, err := seedb.Recommend(sales, target, views, seedb.Options{K: 3, Strategy: seedb.Pruned})
	if err != nil {
		log.Fatal(err)
	}
	for i, s := range top {
		fmt.Printf("  %d. %-25s utility %.3f\n", i+1, s.View, s.Utility)
	}
	fmt.Printf("  (%d candidate views, %d pruned early, %d row-reads)\n",
		len(views), stats.ViewsPruned, stats.RowsScanned)

	// Render the winning view as a bar chart.
	best := top[0].View
	res, err := exec.ExecuteCtx(context.Background(), sales, exec.Query{
		Select: []exec.SelectItem{
			{Col: best.Dim},
			{Col: best.Measure, Agg: best.Agg},
		},
		Where:   target,
		GroupBy: []string{best.Dim},
		OrderBy: []exec.OrderKey{{Col: best.Dim}},
	}, exec.ExecOptions{})
	if err != nil {
		log.Fatal(err)
	}
	labels := make([]string, res.NumRows())
	vals := make([]float64, res.NumRows())
	for i := 0; i < res.NumRows(); i++ {
		labels[i] = res.Row(i)[0].String()
		vals[i] = res.Row(i)[1].AsFloat()
	}
	fmt.Printf("\n%s for region='east':\n%s", best, viz.BarChart(labels, vals, 40))

	// 2. M4: a million-point price path at 120 pixels.
	fmt.Println("[M4] 1,000,000-point series reduced for a 120px chart:")
	series := workload.RandomWalk(rng, 1_000_000, 1)
	idx, err := viz.M4(series, 120)
	if err != nil {
		log.Fatal(err)
	}
	pe, err := viz.PixelError(series, idx, 120, 24)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  kept %d of %d points (%.0fx reduction), pixel error %.4f\n",
		len(idx), len(series), float64(len(series))/float64(len(idx)), pe)
	fmt.Print(viz.LineChart(viz.Downsample(series, idx), 120, 16))

	// 3. Order-preserving sampling: per-product average bars whose order is
	//    guaranteed without scanning everything.
	fmt.Println("\n[order-preserving sampling] avg(amount) per quarter:")
	qc, _ := sales.ColumnByName("quarter")
	ac, _ := sales.ColumnByName("amount")
	groups := map[string][]float64{}
	for i := 0; i < sales.NumRows(); i++ {
		q := qc.Value(i).S
		groups[q] = append(groups[q], ac.Value(i).AsFloat())
	}
	names := []string{"q1", "q2", "q3", "q4"}
	gs := make([][]float64, len(names))
	for i, n := range names {
		gs[i] = groups[n]
	}
	resOrd, err := viz.OrderSample(gs, 200, 9)
	if err != nil {
		log.Fatal(err)
	}
	taken := 0
	for _, k := range resOrd.Taken {
		taken += k
	}
	fmt.Printf("  sampled %d of %d rows; ordering resolved: %v\n",
		taken, sales.NumRows(), resOrd.Resolved)
	fmt.Print(viz.BarChart(names, resOrd.Means, 40))
}
