// Package workload generates the deterministic synthetic datasets and query
// traces the experiment harness drives: Zipf-skewed fact tables, Gaussian
// sky catalogs, trading ticks, range-query streams with several locality
// patterns, and session logs — stand-ins for the proprietary datasets (SDSS,
// production logs, TPC-H clusters) used by the surveyed papers, controlling
// exactly the distributional properties those experiments depend on.
package workload

import (
	"fmt"
	"math/rand"

	"dex/internal/storage"
)

// UniformInts returns n integers uniform on [0, domain).
func UniformInts(rng *rand.Rand, n, domain int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(rng.Intn(domain))
	}
	return out
}

// ZipfInts returns n integers on [0, domain) with Zipf skew s (>1).
func ZipfInts(rng *rand.Rand, n, domain int, s float64) []int64 {
	if s <= 1 {
		s = 1.1
	}
	z := rand.NewZipf(rng, s, 1, uint64(domain-1))
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(z.Uint64())
	}
	return out
}

// GaussianMixture returns n floats drawn from equally weighted Gaussians at
// the given centers with common sigma.
func GaussianMixture(rng *rand.Rand, n int, centers []float64, sigma float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		c := centers[rng.Intn(len(centers))]
		out[i] = c + rng.NormFloat64()*sigma
	}
	return out
}

// RandomWalk returns an n-step random walk with the given step sigma.
func RandomWalk(rng *rand.Rand, n int, sigma float64) []float64 {
	out := make([]float64, n)
	v := 0.0
	for i := range out {
		v += rng.NormFloat64() * sigma
		out[i] = v
	}
	return out
}

// Range is one range query [Lo, Hi).
type Range struct{ Lo, Hi int64 }

// RandomRanges returns nq uniformly placed range queries of the given width
// over [0, domain).
func RandomRanges(rng *rand.Rand, nq, domain int, width int64) []Range {
	out := make([]Range, nq)
	for i := range out {
		lo := int64(rng.Intn(domain))
		out[i] = Range{Lo: lo, Hi: lo + width}
	}
	return out
}

// SequentialRanges returns nq consecutive non-overlapping ranges sweeping
// [0, domain) left to right — the adversarial pattern for standard cracking.
func SequentialRanges(nq, domain int) []Range {
	out := make([]Range, nq)
	width := int64(domain / nq)
	if width == 0 {
		width = 1
	}
	for i := range out {
		lo := int64(i) * width
		out[i] = Range{Lo: lo, Hi: lo + width}
	}
	return out
}

// ZoomRanges returns nq ranges that progressively zoom into a focus point —
// the drill-down locality pattern of exploratory sessions.
func ZoomRanges(rng *rand.Rand, nq, domain int) []Range {
	out := make([]Range, nq)
	focus := int64(rng.Intn(domain))
	width := int64(domain)
	for i := range out {
		if width > 4 {
			width = width * 3 / 4
		}
		lo := focus - width/2
		if lo < 0 {
			lo = 0
		}
		out[i] = Range{Lo: lo, Hi: lo + width}
	}
	return out
}

// Sales builds the fact table the cube/SeeDB/AQP experiments share:
// region × product × quarter dimensions, Zipf-skewed product popularity,
// amount and qty measures.
func Sales(rng *rand.Rand, n int) (*storage.Table, error) {
	regions := []string{"east", "west", "north", "south"}
	quarters := []string{"q1", "q2", "q3", "q4"}
	nprod := 20
	prodPick := rand.NewZipf(rng, 1.3, 1, uint64(nprod-1))
	rv := make([]string, n)
	pv := make([]string, n)
	qv := make([]string, n)
	av := make([]float64, n)
	cv := make([]int64, n)
	for i := 0; i < n; i++ {
		rv[i] = regions[rng.Intn(len(regions))]
		p := int(prodPick.Uint64())
		pv[i] = fmt.Sprintf("p%02d", p)
		qv[i] = quarters[rng.Intn(len(quarters))]
		base := 50 + 10*float64(p)
		av[i] = base + rng.NormFloat64()*15
		cv[i] = int64(1 + rng.Intn(9))
	}
	return storage.FromColumns("sales", storage.Schema{
		{Name: "region", Type: storage.TString},
		{Name: "product", Type: storage.TString},
		{Name: "quarter", Type: storage.TString},
		{Name: "amount", Type: storage.TFloat},
		{Name: "qty", Type: storage.TInt},
	}, []storage.Column{
		storage.NewStringColumn(rv), storage.NewStringColumn(pv),
		storage.NewStringColumn(qv), storage.NewFloatColumn(av),
		storage.NewIntColumn(cv),
	})
}

// SkyCatalog builds a synthetic astronomical catalog: right ascension and
// declination uniform over the sky patch, magnitudes, and a redshift with
// planted high-redshift clusters — the "astronomer looking for interesting
// regions" workload from the tutorial's introduction.
func SkyCatalog(rng *rand.Rand, n int) (*storage.Table, error) {
	ra := make([]float64, n)
	dec := make([]float64, n)
	mag := make([]float64, n)
	z := make([]float64, n)
	cls := make([]string, n)
	classes := []string{"star", "galaxy", "quasar"}
	type cluster struct{ ra, dec, z float64 }
	clusters := []cluster{{30, 10, 2.5}, {70, -20, 3.2}}
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.05 { // 5% of objects in interesting clusters
			c := clusters[rng.Intn(len(clusters))]
			ra[i] = c.ra + rng.NormFloat64()*2
			dec[i] = c.dec + rng.NormFloat64()*2
			z[i] = c.z + rng.NormFloat64()*0.1
			cls[i] = "quasar"
		} else {
			ra[i] = rng.Float64() * 90
			dec[i] = rng.Float64()*90 - 45
			z[i] = rng.ExpFloat64() * 0.3
			cls[i] = classes[rng.Intn(2)]
		}
		mag[i] = 14 + rng.Float64()*10
	}
	return storage.FromColumns("sky", storage.Schema{
		{Name: "ra", Type: storage.TFloat},
		{Name: "dec", Type: storage.TFloat},
		{Name: "mag", Type: storage.TFloat},
		{Name: "z", Type: storage.TFloat},
		{Name: "class", Type: storage.TString},
	}, []storage.Column{
		storage.NewFloatColumn(ra), storage.NewFloatColumn(dec),
		storage.NewFloatColumn(mag), storage.NewFloatColumn(z),
		storage.NewStringColumn(cls),
	})
}

// Ticks builds a trading-tick table: symbol, random-walk price, Zipf-ish
// volume, monotone timestamp.
func Ticks(rng *rand.Rand, n int) (*storage.Table, error) {
	symbols := []string{"AAA", "BBB", "CCC", "DDD", "EEE"}
	prices := map[string]float64{}
	for _, s := range symbols {
		prices[s] = 50 + rng.Float64()*100
	}
	sym := make([]string, n)
	price := make([]float64, n)
	vol := make([]int64, n)
	ts := make([]int64, n)
	for i := 0; i < n; i++ {
		s := symbols[rng.Intn(len(symbols))]
		prices[s] *= 1 + rng.NormFloat64()*0.002
		sym[i] = s
		price[i] = prices[s]
		vol[i] = int64(1 + rng.ExpFloat64()*100)
		ts[i] = int64(i)
	}
	return storage.FromColumns("ticks", storage.Schema{
		{Name: "symbol", Type: storage.TString},
		{Name: "price", Type: storage.TFloat},
		{Name: "volume", Type: storage.TInt},
		{Name: "ts", Type: storage.TInt},
	}, []storage.Column{
		storage.NewStringColumn(sym), storage.NewFloatColumn(price),
		storage.NewIntColumn(vol), storage.NewIntColumn(ts),
	})
}

// Demo builds one of the synthetic demo tables by name — "sales" (also the
// default for ""), "sky" or "ticks" — the one switch behind dexd's -demo
// flag, the server's demo endpoint and a shard worker's synthetic load.
func Demo(kind string, rng *rand.Rand, rows int) (*storage.Table, error) {
	switch kind {
	case "", "sales":
		return Sales(rng, rows)
	case "sky":
		return SkyCatalog(rng, rows)
	case "ticks":
		return Ticks(rng, rows)
	default:
		return nil, fmt.Errorf("unknown demo kind %q (sales|sky|ticks)", kind)
	}
}

// SeriesCollection builds n random-walk series of the given length for the
// time-series indexing experiments.
func SeriesCollection(rng *rand.Rand, n, length int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = RandomWalk(rng, length, 1)
	}
	return out
}
