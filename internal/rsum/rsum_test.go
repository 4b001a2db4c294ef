package rsum

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// term is one value a test adds: a float64, or an int64 when isInt.
type term struct {
	f     float64
	i     int64
	isInt bool
}

func (t term) add(s *Sum) {
	if t.isInt {
		s.AddInt(t.i)
	} else {
		s.Add(t.f)
	}
}

// exact returns the terms' exact sum, whether it saw +Inf and -Inf, the
// largest finite magnitude and how many terms are not NaN.
func exact(terms []term) (sum *big.Float, pos, neg bool, m float64, n int) {
	sum = new(big.Float).SetPrec(4096)
	for _, t := range terms {
		var x big.Float
		x.SetPrec(4096)
		switch {
		case t.isInt:
			x.SetInt64(t.i)
			m = math.Max(m, math.Abs(float64(t.i)))
		case t.f != t.f:
			continue
		case math.IsInf(t.f, 1):
			pos = true
			n++
			continue
		case math.IsInf(t.f, -1):
			neg = true
			n++
			continue
		default:
			x.SetFloat64(t.f)
			m = math.Max(m, math.Abs(t.f))
		}
		sum.Add(sum, &x)
		n++
	}
	return sum, pos, neg, m, n
}

// checkBound holds got to the package's stated contract against the exact
// sum of terms.
func checkBound(t *testing.T, label string, terms []term, got float64) {
	t.Helper()
	sum, pos, neg, m, n := exact(terms)
	switch {
	case pos && neg:
		if !math.IsNaN(got) {
			t.Fatalf("%s: +Inf and -Inf sum to %v, want NaN", label, got)
		}
		return
	case pos || neg:
		if want := math.Inf(map[bool]int{true: 1, false: -1}[pos]); got != want {
			t.Fatalf("%s: got %v, want %v", label, got, want)
		}
		return
	}
	if math.IsInf(got, 0) {
		// A finite total past MaxFloat64 rounds to ±Inf; below it, never.
		if f, _ := sum.Float64(); !math.IsInf(f, 0) || math.Signbit(f) != math.Signbit(got) {
			t.Fatalf("%s: got %v for the finite total %v", label, got, f)
		}
		return
	}
	per := math.Max(math.Ldexp(m, -51), math.Ldexp(1, -1024))
	bound := new(big.Float).SetPrec(4096).SetFloat64(per)
	bound.Mul(bound, new(big.Float).SetInt64(int64(n)))
	bound.Add(bound, new(big.Float).SetFloat64(math.Ldexp(math.Abs(got), -53)))
	diff := new(big.Float).SetPrec(4096).SetFloat64(got)
	diff.Sub(diff, sum).Abs(diff)
	if diff.Cmp(bound) > 0 {
		t.Fatalf("%s: got %v, exact %v: off by %v, bound %v", label, got, sum, diff, bound)
	}
}

// specials are the values the property test and the fuzzer draw from.
var specials = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, -0.3, 1e300, -1e300, 1e-300,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	-math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1023, 3 * 0x1p-1074,
	0x1p53, 0x1p53 + 2, -0x1p53, 0x1p53 - 1, 0x1p52 + 0.5, 0x1p63, 1e16, 12345.678,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

var specialInts = []int64{0, 1, -1, 1 << 53, 1<<53 + 1, -(1<<53 + 1), math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, 42}

// randTerms draws n terms; with inf false none is infinite.
func randTerms(rng *rand.Rand, n int, inf bool) []term {
	terms := make([]term, n)
	scale := math.Ldexp(1, rng.Intn(2000)-1000)
	for i := range terms {
		switch rng.Intn(6) {
		case 0:
			terms[i] = term{f: specials[rng.Intn(len(specials))]}
			if !inf && math.IsInf(terms[i].f, 0) {
				terms[i].f = 1
			}
		case 1:
			terms[i] = term{i: specialInts[rng.Intn(len(specialInts))], isInt: true}
		case 2:
			terms[i] = term{i: rng.Int63() - rng.Int63(), isInt: true}
		case 3:
			terms[i] = term{f: math.Float64frombits(rng.Uint64())}
			if !inf && math.IsInf(terms[i].f, 0) {
				terms[i].f = 2
			}
		default:
			terms[i] = term{f: rng.NormFloat64() * scale}
		}
	}
	return terms
}

// sumTree adds terms, permuted by perm, cut into parts at cuts, each part
// into its own Sum, and merges the parts in a random binary tree.
func sumTree(rng *rand.Rand, terms []term) float64 {
	perm := rng.Perm(len(terms))
	var parts []*Sum
	for i := 0; i < len(perm); {
		j := min(len(perm), i+1+rng.Intn(8))
		s := new(Sum)
		switch rng.Intn(3) {
		case 0:
			for _, p := range perm[i:j] {
				terms[p].add(s)
			}
		default: // Fold over the part's floats and ints, as a morsel would
			var fs []float64
			var is []int64
			for _, p := range perm[i:j] {
				if terms[p].isInt {
					is = append(is, terms[p].i)
				} else {
					fs = append(fs, terms[p].f)
				}
			}
			rows := make([]int, len(fs))
			for r := range rows {
				rows[r] = r
			}
			FoldAt(s, fs, rows)
			FoldAt(s, is, nil)
		}
		parts = append(parts, s)
		i = j
	}
	for len(parts) > 1 {
		k := rng.Intn(len(parts) - 1)
		parts[k].Merge(parts[k+1])
		parts = append(parts[:k+1], parts[k+2:]...)
	}
	if len(parts) == 0 {
		return new(Sum).Float64()
	}
	return parts[0].Float64()
}

// TestSumOrderFree is the accumulator's property: the same multiset gives
// the same bits under any permutation, split and merge tree, and lands
// within the stated bound of the exact sum.
func TestSumOrderFree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		terms := randTerms(rng, rng.Intn(200), trial%4 == 0)
		var seq Sum
		for _, tm := range terms {
			tm.add(&seq)
		}
		want := seq.Float64()
		checkBound(t, "sequential", terms, want)
		for k := 0; k < 8; k++ {
			if got := sumTree(rng, terms); math.Float64bits(got) != math.Float64bits(want) && !(got != got && want != want) {
				t.Fatalf("trial %d: tree sum %v (%#x), sequential %v (%#x)", trial, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestSumFiniteOverflow pins a finite total past MaxFloat64: ±Inf, in any
// order, and a total that comes back under it is exact.
func TestSumFiniteOverflow(t *testing.T) {
	big, orders := math.MaxFloat64, [][]float64{
		{math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64},
		{math.MaxFloat64, -math.MaxFloat64, math.MaxFloat64},
		{-math.MaxFloat64, math.MaxFloat64, math.MaxFloat64},
	}
	for _, o := range orders {
		var s Sum
		for _, x := range o {
			s.Add(x)
		}
		if got := s.Float64(); got != big {
			t.Fatalf("%v: got %v, want MaxFloat64", o, got)
		}
	}
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{math.MaxFloat64, math.MaxFloat64}, math.Inf(1)},
		{[]float64{-math.MaxFloat64, -math.MaxFloat64, 1}, math.Inf(-1)},
		// Half an ulp past MaxFloat64 rounds up to +Inf, as IEEE does.
		{[]float64{math.MaxFloat64, 0x1p970}, math.Inf(1)},
		{[]float64{math.MaxFloat64, 0x1p969}, math.MaxFloat64},
		{[]float64{math.Inf(1), math.Inf(-1), 1}, math.NaN()},
		{[]float64{math.Inf(-1), 1, math.NaN()}, math.Inf(-1)},
	} {
		var s Sum
		for _, x := range c.xs {
			s.Add(x)
		}
		if got := s.Float64(); math.Float64bits(got) != math.Float64bits(c.want) && !(got != got && c.want != c.want) {
			t.Fatalf("%v: got %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestSumIntsPast2p53 pins INT inputs: the sum is exact, then rounded once.
func TestSumIntsPast2p53(t *testing.T) {
	for _, c := range []struct {
		xs   []int64
		want float64
	}{
		{[]int64{1 << 53, 1}, 0x1p53},        // 2^53+1 rounds half to even
		{[]int64{1 << 53, 1, 1}, 0x1p53 + 2}, // a float sum in this order loses both 1s
		{[]int64{1<<53 + 1, -(1 << 53)}, 1},  // float64(2^53+1) would be 2^53
		{[]int64{math.MaxInt64, math.MinInt64}, -1},
		{[]int64{math.MaxInt64, math.MaxInt64, math.MinInt64}, 0x1p63},
		{[]int64{math.MaxInt64, 1 - math.MaxInt64}, 1},
		{[]int64{3 << 60, 3 << 60, 3 << 60, 3 << 60, 3 << 60}, 15 * 0x1p60},
	} {
		var s, r Sum
		for i, x := range c.xs {
			s.AddInt(x)
			r.AddInt(c.xs[len(c.xs)-1-i])
		}
		if got := s.Float64(); got != c.want || r.Float64() != c.want {
			t.Fatalf("%v: got %v and %v reversed, want %v", c.xs, got, r.Float64(), c.want)
		}
	}
}

// TestAddNIsRepeatedAdd: addN and AddIntN leave the state k Adds do, past
// a carry too.
func TestAddNIsRepeatedAdd(t *testing.T) {
	for _, x := range []float64{0.1, -3.7e10, 1e300, 5e-324, 0x1p53 + 2} {
		for _, k := range []int{1, 3, every - 1, every, 3*every + 17} {
			var a, b Sum
			a.Add(2.5)
			b.Add(2.5)
			a.addN(x, k)
			for i := 0; i < k; i++ {
				b.Add(x)
			}
			if a != b {
				t.Fatalf("addN(%v, %d) = %+v, %d Adds = %+v", x, k, a, k, b)
			}
		}
	}
	for _, x := range []int64{7, math.MaxInt64, math.MinInt64 + 3} {
		var a, b Sum
		a.AddIntN(x, 2*every+5)
		for i := 0; i < 2*every+5; i++ {
			b.AddInt(x)
		}
		if a.Float64() != b.Float64() {
			t.Fatalf("AddIntN(%v) = %v, Adds = %v", x, a.Float64(), b.Float64())
		}
	}
}

// TestSumIsExactWhenTermsFit: values on a common grid inside one bin's
// window sum exactly, in a long run that crosses many carries.
func TestSumIsExactWhenTermsFit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s Sum
	var want int64
	for i := 0; i < 50000; i++ {
		x := rng.Int63n(1<<40) - 1<<39
		want += x
		s.Add(float64(x) / 1024)
	}
	if got := s.Float64(); got != float64(want)/1024 {
		t.Fatalf("got %v, want %v", got, float64(want)/1024)
	}
}

// BenchmarkFold prints the deposit's cost per value beside a plain float64
// loop over the same 16 384 values, dense and under a selection.
func BenchmarkFold(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	v := make([]float64, 1<<14)
	rows := make([]int, 0, len(v))
	for i := range v {
		v[i] = rng.Float64() * 1000
		if rng.Intn(2) == 0 {
			rows = append(rows, i)
		}
	}
	b.Run("plain", func(b *testing.B) {
		var sum float64
		for i := 0; i < b.N; i++ {
			for _, x := range v {
				if x == x {
					sum += x
				}
			}
		}
		_ = sum
	})
	b.Run("dense", func(b *testing.B) {
		var s Sum
		for i := 0; i < b.N; i++ {
			FoldAt(&s, v, nil)
		}
	})
	b.Run("rows", func(b *testing.B) {
		var s Sum
		for i := 0; i < b.N; i++ {
			FoldAt(&s, v, rows)
		}
	})
	b.Run("add", func(b *testing.B) {
		var s Sum
		for i := 0; i < b.N; i++ {
			for _, x := range v {
				s.Add(x)
			}
		}
	})
}

// TestSumPastInt128Reach: a fold whose carries pass 2^13 — 2^26 values at
// the top of their bin — converts through math/big, and exactly; split in
// two and merged it gives the same bits.
func TestSumPastInt128Reach(t *testing.T) {
	const k = 1 << 26
	var s, a, b Sum
	s.addN(0x1p98, k)
	s.Add(0x1p72)
	a.addN(0x1p98, k/2)
	b.addN(0x1p98, k/2)
	b.Add(0x1p72)
	a.Merge(&b)
	if s.h0 < 1<<13 {
		t.Fatalf("carry %d: the fold stayed within int128's reach", s.h0)
	}
	want := 0x1p124 + 0x1p72
	if got, merged := s.Float64(), a.Float64(); got != want || merged != want {
		t.Fatalf("got %v and %v merged, want %v", got, merged, want)
	}
}

// TestIntBinIsTheFloatPath: the int loops' shortcut in intBin adds what
// the float64 deposit of the same value adds.
func TestIntBinIsTheFloatPath(t *testing.T) {
	if e0 := low + width*intBin; e0 > 0 || e0+width <= 0 || bins[intBin].lim != intLim {
		t.Fatalf("intBin %d: e0 %d, lim %v, intLim %v", intBin, e0, bins[intBin].lim, float64(intLim))
	}
	for _, x := range []int64{0, 1, -1, 7, -123456789, intLim, -intLim, intLim - 1} {
		q0, q1 := slices(float64(x), &bins[intBin])
		if q0 != x<<intShift || q1 != 0 {
			t.Fatalf("%d: slices %d, %d; the shortcut adds %d, 0", x, q0, q1, x<<intShift)
		}
	}
}
