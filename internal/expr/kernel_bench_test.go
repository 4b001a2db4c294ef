package expr

import (
	"fmt"
	"math/rand"
	"testing"

	"dex/internal/par"
	"dex/internal/storage"
)

// BenchmarkKernelScan times Run over 2M rows in default-size morsels, one
// sub-benchmark per leaf shape the kernel scans with: a single int bound, a
// single float bound, a two-sided float range, an int NE, a dict EQ and a
// range over a run-coded int. Every shape selects about half the rows, so
// the branch-free loops and the selection writes both show.
//
// The scan/ and cand/ series are the value index's crossover sweep: a
// two-sided range over a uniform FLOAT and a uniform INT column, and a
// one-sided FLOAT bound (the cheapest scan), at 0.1 to 60 % selectivity,
// qualified per morsel by Run (the scan path) or by reading the value
// index's candidates and refining them (the candidate path). Each cand/ run reports cand/row, the candidates' share of the
// rows; where the two series cross sets exec's indexCrossover.
//
//	go test -bench=KernelScan -run '^$' -count 10 ./internal/expr/
func BenchmarkKernelScan(b *testing.B) {
	const n = 2_000_000
	rng := rand.New(rand.NewSource(1))
	k := make([]int64, n)
	x := make([]float64, n)
	s := make([]string, n)
	r := make([]int64, n)
	run := int64(0)
	for i := range k {
		k[i] = rng.Int63n(1000)
		x[i] = rng.Float64() * 100
		s[i] = fmt.Sprintf("c%d", rng.Intn(2))
		if rng.Intn(64) == 0 {
			run = rng.Int63n(100)
		}
		r[i] = run
	}
	tab, err := storage.FromColumns("t", storage.Schema{
		{Name: "k", Type: storage.TInt},
		{Name: "x", Type: storage.TFloat},
		{Name: "s", Type: storage.TString},
		{Name: "r", Type: storage.TInt},
	}, []storage.Column{
		storage.NewIntColumn(k), storage.NewFloatColumn(x), storage.EncodeDict(s), storage.EncodeRLE(r),
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, shape := range []struct {
		name string
		p    *Pred
	}{
		{"int-bound", Cmp("k", LT, storage.Int(500))},
		{"float-bound", Cmp("x", LT, storage.Float(50))},
		{"float-range", Between("x", storage.Float(25), storage.Float(75))},
		{"int-ne", Cmp("k", NE, storage.Int(500))},
		{"dict-eq", Cmp("s", EQ, storage.String_("c1"))},
		{"rle-range", Between("r", storage.Int(25), storage.Int(75))},
	} {
		kern, reason := CompileKernel(tab, shape.p)
		if reason != "" {
			b.Fatalf("%s: %s", shape.p, reason)
		}
		b.Run(shape.name, func(b *testing.B) {
			sel := make([]int, 0, par.DefaultMorselSize)
			for i := 0; i < b.N; i++ {
				for lo := 0; lo < n; lo += par.DefaultMorselSize {
					sel = kern.Run(lo, lo+par.DefaultMorselSize, sel[:0])
				}
			}
		})
	}
	benchIndexCrossover(b, n, rng)
}

func benchIndexCrossover(b *testing.B, n int, rng *rand.Rand) {
	const m = par.DefaultMorselSize
	u := make([]float64, n)
	w := make([]int64, n)
	for i := range u {
		u[i] = rng.Float64()
		w[i] = rng.Int63n(1_000_000)
	}
	tab, err := storage.FromColumns("u", storage.Schema{
		{Name: "u", Type: storage.TFloat},
		{Name: "w", Type: storage.TInt},
	}, []storage.Column{storage.NewFloatColumn(u), storage.NewIntColumn(w)})
	if err != nil {
		b.Fatal(err)
	}
	for _, shape := range []struct {
		name string
		pred func(s float64) *Pred
	}{
		{"float", func(s float64) *Pred { return Between("u", storage.Float(0.3), storage.Float(0.3+s)) }},
		{"float-bound", func(s float64) *Pred { return Cmp("u", GE, storage.Float(1-s)) }},
		{"int", func(s float64) *Pred { return Between("w", storage.Int(300_000), storage.Int(300_000+int64(s*1e6))) }},
	} {
		for _, s := range []float64{0.001, 0.01, 0.05, 0.1, 0.2, 0.4, 0.6} {
			p := shape.pred(s)
			kern, reason := CompileKernel(tab, p)
			if reason != "" {
				b.Fatalf("%s: %s", p, reason)
			}
			ivs, _ := Intervals(tab.Schema(), p)
			vi, _, err := tab.ValueIndex(ivs[0].Col, m)
			if err != nil {
				b.Fatal(err)
			}
			bl, bh := vi.IntRange(ivs[0].ILo, ivs[0].IHi)
			if ivs[0].Float {
				bl, bh = vi.FloatRange(ivs[0].FLo, ivs[0].FHi)
			}
			label := fmt.Sprintf("%s/%g%%", shape.name, 100*s)
			b.Run("scan/"+label, func(b *testing.B) {
				sel := make([]int, 0, m)
				for i := 0; i < b.N; i++ {
					for lo := 0; lo < n; lo += m {
						sel = kern.Run(lo, lo+m, sel[:0])
					}
				}
			})
			b.Run("cand/"+label, func(b *testing.B) {
				sel := make([]int, 0, m)
				cands := 0
				for i := 0; i < b.N; i++ {
					cands = 0
					for lo := 0; lo < n; lo += m {
						sel = vi.Candidates(lo/m, bl, bh, sel[:0])
						cands += len(sel)
						sel = kern.Refine(sel)
					}
				}
				b.ReportMetric(float64(cands)/float64(n), "cand/row")
			})
		}
	}
}
