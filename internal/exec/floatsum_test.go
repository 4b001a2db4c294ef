package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dex/internal/expr"
	"dex/internal/storage"
)

// TestFloatSumBitForBitAcrossPaths is the one-float-sum contract end to
// end: a scalar and a grouped FLOAT SUM/AVG over 64 morsels or more give
// the same bits at 1, 2, 4 and 8 workers, at morsel sizes 1024, 4096 and
// 16384, through the bucket cells and through the scan with the cells off,
// and those bits are exec.Execute's. The values mix magnitudes from 1e-3
// to 1e12 with NULLs, so any two summation orders of a plain float64 sum
// disagree in their last bits; each worker's morsels and the cells' fold
// order change with every setting here.
func TestFloatSumBitForBitAcrossPaths(t *testing.T) {
	const n = 64 * 16384
	rng := rand.New(rand.NewSource(52))
	xs, ys, gs := make([]float64, n), make([]float64, n), make([]string, n)
	labels := []string{"a", "b", "c", "d", "e"}
	for i := range xs {
		switch rng.Intn(50) {
		case 0:
			xs[i] = math.NaN()
		case 1:
			xs[i] = rng.NormFloat64() * 1e12
		default:
			xs[i] = rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(8)-3))
		}
		ys[i] = rng.Float64()
		gs[i] = labels[rng.Intn(len(labels))]
	}
	// y holds no NULL, so a query with no WHERE folds every cell of its
	// buckets, x its input.
	tab, err := storage.FromColumns("t", storage.Schema{{Name: "x", Type: storage.TFloat}, {Name: "y", Type: storage.TFloat},
		{Name: "g", Type: storage.TString}}, []storage.Column{storage.NewFloatColumn(xs), storage.NewFloatColumn(ys), storage.EncodeDict(gs)})
	if err != nil {
		t.Fatal(err)
	}
	items := []SelectItem{{Col: "x", Agg: AggSum}, {Col: "x", Agg: AggAvg}}
	wide := expr.And(expr.Cmp("x", expr.GE, storage.Float(0.01)), expr.Cmp("x", expr.LT, storage.Float(5e3)))
	queries := []Query{
		{Select: items, Where: wide},
		{Select: append([]SelectItem{{Col: "g"}}, items...), Where: wide, GroupBy: []string{"g"}},
		{Select: items},
		{Select: append([]SelectItem{{Col: "g"}}, items...), GroupBy: []string{"g"}},
	}
	defer func() { disableBucketCells = false }()
	for _, q := range queries {
		oracle, err := Execute(tab, q)
		if err != nil {
			t.Fatal(err)
		}
		cellsSeen := false
		for _, cellsOff := range []bool{false, true} {
			disableBucketCells = cellsOff
			for _, m := range []int{1024, 4096, 16384} {
				for _, p := range []int{1, 2, 4, 8} {
					got, js, err := tracedExec(tab, q, ExecOptions{Parallelism: p, MorselSize: m})
					if err != nil {
						t.Fatal(err)
					}
					cells := cellSpan(js) > 0
					if cells && cellsOff {
						t.Fatalf("%s: the cells answered with the cells off", q)
					}
					cellsSeen = cellsSeen || cells
					requireIdentical(t, fmt.Sprintf("%s, cells=%v, morsel %d, %d workers", q, cells, m, p), oracle, got)
				}
			}
		}
		if !cellsSeen {
			t.Fatalf("%s: the bucket cells never answered", q)
		}
	}
}
