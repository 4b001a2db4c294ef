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
}
