package bench

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"dex/internal/exec"
	"dex/internal/expr"
	"dex/internal/par"
	"dex/internal/seedb"
	"dex/internal/storage"
	"dex/internal/workload"
)

func init() {
	register(Experiment{
		ID:     "E26",
		Title:  "Morsel-driven parallel operators: speedup vs worker count",
		Source: "morsel-driven parallelism (Leis et al., SIGMOD 2014); IDEBench latency targets",
		Run:    runE26,
	})
}

// runE26 measures the parallel operators — filtered scan, scalar aggregate,
// hash group-by, and the SeeDB shared scan — at 1/2/4/8 workers against the
// sequential baseline, so the speedup (or, on a starved machine, the
// scheduling overhead) is measured rather than asserted. The benchmark
// guard test pins the acceptable overhead bound.
func runE26(w io.Writer, cfg Config) error {
	n := cfg.Scale(1_000_000, 50, 20_000)
	rng := rand.New(rand.NewSource(cfg.Seed))
	sales, err := workload.Sales(rng, n)
	if err != nil {
		return err
	}
	queries := []struct {
		name string
		q    exec.Query
	}{
		{"filtered-scan", exec.Query{
			Select: []exec.SelectItem{{Col: "product"}, {Col: "amount"}},
			Where:  expr.Cmp("amount", expr.GT, storage.Float(120)),
		}},
		{"scalar-agg", exec.Query{
			Select: []exec.SelectItem{
				{Col: "amount", Agg: exec.AggSum},
				{Col: "amount", Agg: exec.AggAvg},
				{Col: "*", Agg: exec.AggCount},
			},
			Where: expr.Cmp("qty", expr.GE, storage.Int(3)),
		}},
		{"group-by", exec.Query{
			Select: []exec.SelectItem{
				{Col: "region"},
				{Col: "amount", Agg: exec.AggSum},
				{Col: "qty", Agg: exec.AggMax},
			},
			GroupBy: []string{"region"},
		}},
	}
	workerCounts := []int{1, 2, 4, 8}
	fmt.Fprintf(w, "rows=%d GOMAXPROCS=%d morsel=%d\n\n", n, runtime.GOMAXPROCS(0), par.DefaultMorselSize)
	tbl := NewTable("operator", "workers", "median", "speedup")
	for _, qq := range queries {
		var base time.Duration
		for _, wk := range workerCounts {
			opt := exec.ExecOptions{Parallelism: wk}
			d, err := medianTime(3, func() error {
				_, e := exec.ExecuteOpts(sales, qq.q, opt)
				return e
			})
			if err != nil {
				return err
			}
			if wk == 1 {
				base = d
			}
			tbl.Row(qq.name, wk, d, float64(base)/float64(d))
		}
	}

	// SeeDB candidate-view fan-out over the same pool.
	views := seedb.Candidates(
		[]string{"region", "product", "quarter"},
		[]string{"amount", "qty"},
		[]exec.AggFunc{exec.AggSum, exec.AggAvg, exec.AggCount},
	)
	target := expr.Cmp("region", expr.EQ, storage.String_("east"))
	var base time.Duration
	for _, wk := range workerCounts {
		opt := seedb.Options{K: 3, Strategy: seedb.SharedScan, Parallelism: wk}
		d, err := medianTime(3, func() error {
			_, _, e := seedb.Recommend(sales, target, views, opt)
			return e
		})
		if err != nil {
			return err
		}
		if wk == 1 {
			base = d
		}
		tbl.Row("seedb-shared-scan", wk, d, float64(base)/float64(d))
	}
	tbl.Fprint(w)
	return nil
}

// medianTime runs fn reps times and returns the median duration.
func medianTime(reps int, fn func() error) (time.Duration, error) {
	ds := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(start))
	}
	return median(ds), nil
}

// median returns the median of ds (the upper one of an even count),
// sorting ds in place.
func median(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	return ds[len(ds)/2]
}
