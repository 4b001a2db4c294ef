// Package rsum is the engine's one floating-point sum: Demmel and Nguyen's
// binned summation with two folds ("Fast Reproducible Floating-Point
// Summation", ARITH 2013; "Parallel Reproducible Summation", IEEE TC 2015).
// A Sum gives the same bits for the same multiset of values, whatever the
// order they are added in, however they are split among partial sums and in
// whatever tree those are merged. Every SUM and AVG the engine computes —
// a morsel scan, a worker's partial, a bucket cell, the reference
// evaluator — keeps one, so an answer does not depend on the path or the
// worker count that computed it.
//
// The exponent range is cut into fixed bins, width bits apart. A Sum sits
// in the least bin whose reach holds every value it has met: its two folds
// count units u0 = 2^e0 and u1 = 2^(e0-width), and a value x adds
// round(x/u0) to fold 0 and round of the rest over u1 to fold 1, both
// rounded half to even against a fixed extractor, so the slices depend on x
// and the bin alone. The folds are int64 counts with carries, so adding
// slices is exact and order-free. Moving up one bin drops fold 1 and shifts
// fold 0 into its place, which is what the new bin's slices of the same
// values add up to: the new u1 is the old u0, and a multiple of the new u0
// is an even number of old ones, so the half-to-even ties agree. Moving up
// further drops both folds, as every value the old bin held rounds to 0
// there, reach being less than width. A Sum therefore holds exactly
// Σ round(x/u1) over its values, and Float64 rounds that once.
//
// Contract (DESIGN.md, "One float sum"):
//   - NaN is the engine's NULL: Add skips it.
//   - +Inf and −Inf are flags: a Sum that met one is that infinity, and one
//     that met both is NaN, in any order.
//   - Finite values: the result is the nearest float64 to Σ round(x/u1).
//     Each value is off by at most u1/2 ≤ max(2^-51·max|x|, 2^-1024), so
//     |Float64() − Σx| ≤ n·max(2^-51·max|x|, 2^-1024) + 2^-53·|Float64()|.
//   - INT inputs (AddInt): every int64 lies in a bin whose u1 divides 1, so
//     an INT sum is exact and then rounded once: exact while the total stays
//     below 2^53 in magnitude, the nearest float64 above that.
//   - A finite total past math.MaxFloat64 rounds to ±Inf, as one rounding of
//     the exact total would; it does not depend on the order either.
//   - Exact for up to 2^40 values per Sum, merged ones included.
package rsum

import (
	"math"
	"math/big"
	"math/bits"
)

const (
	width = 51      // bits between the units of fold 0 and fold 1, and between bins
	reach = 50      // a bin holds |x| ≤ 2^reach·u0; reach < width
	low   = -972    // e0 of bin 0, so its u1 is 2^-1023, whose inverse is a float64
	nbins = 40      // bin nbins-1 holds math.MaxFloat64
	every = 1 << 11 // deposits between carries: every·2^reach·(1+2^-50) < 2^62
	// magic is the extractor: t+magic rounds t to an integer, half to even,
	// for |t| ≤ 2^50, and lies in [2^52, 2^53), where a float64's bits
	// count its units.
	magic     = 0x1.8p52
	magicBits = 0x4338000000000000 // math.Float64bits(magic)
	// keep is the part of a fold a carry leaves: a fold is h·2^61 + a.
	keep = 1<<61 - 1
	// intBin is the bin of an INT sum whose values lie within ±intLim: its
	// u0 is 2^-intShift, so an int64's slices are x<<intShift and 0, which
	// the int loops add without a float64 in between.
	intBin   = -low / width
	intShift = -(low + width*intBin)
	intLim   = 1 << (reach - intShift)
)

// bin holds one bin's scales, s0 = 1/u0 and s1 = 1/u1, and lim, the
// largest |x| it holds.
type bin struct{ s0, s1, lim float64 }

var bins = func() (t [nbins]bin) {
	for k := range t {
		e0 := low + width*k
		t[k] = bin{math.Ldexp(1, -e0), math.Ldexp(1, width-e0), math.Ldexp(1, reach+e0)}
	}
	t[nbins-1].lim = math.MaxFloat64 // +Inf falls out of every bin
	return t
}()

// Sum is a reproducible sum. The zero value is an empty sum, 0. It takes
// 32 bytes.
type Sum struct {
	a0, a1 int64  // the folds' counts of u0 and u1 since the last carry
	h0, h1 int32  // the folds' carries, in units of 2^61·u0 and 2^61·u1
	n      uint16 // deposits since the last carry
	bin    uint8
	inf    uint8 // 1: met +Inf; 2: met -Inf
}

// Add adds x; a NaN adds nothing.
func (s *Sum) Add(x float64) {
	if !(math.Abs(x) <= bins[s.bin].lim) && !s.fit(x) {
		return
	}
	s.put(x)
	if s.n++; s.n == every {
		s.carry()
	}
}

// AddInt adds x exactly.
func (s *Sum) AddInt(x int64) { s.AddIntN(x, 1) }

// addN adds x k times: the state k calls of Add(x) leave, in one step.
func (s *Sum) addN(x float64, k int) {
	if k <= 0 || !(math.Abs(x) <= bins[s.bin].lim) && !s.fit(x) {
		return
	}
	q0, q1 := slices(x, &bins[s.bin])
	for k > 0 {
		c := min(k, every-int(s.n))
		s.a0 += int64(c) * q0
		s.a1 += int64(c) * q1
		if s.n += uint16(c); s.n == every {
			s.carry()
		}
		k -= c
	}
}

// AddIntN adds the int64 x k times, exactly. An x float64 cannot hold is
// added as two parts that it can.
func (s *Sum) AddIntN(x int64, k int) {
	if narrow(x) {
		s.addN(float64(x), k)
		return
	}
	hi := x &^ (1<<32 - 1)
	s.addN(float64(hi), k)
	s.addN(float64(x-hi), k)
}

// narrow reports whether float64 holds x: |x| ≤ 2^53.
func narrow(x int64) bool { return uint64(x+1<<53) <= 1<<54 }

// Put adds x, a float64 or an int64, as Add or AddInt would: the one call
// for a caller generic over its column's type.
func Put[T int64 | float64](s *Sum, x T) {
	f := float64(x)
	switch {
	case T(f) == x && math.Abs(f) < 0x1p63: // every int64 float64 holds, every float64 below 2^63
		s.Add(f)
	case f != f:
	default:
		if _, isInt := any(x).(int64); isInt {
			s.AddInt(int64(x))
		} else {
			s.Add(f)
		}
	}
}

// FoldAt adds v[r] for every r in rows, as Put would each, and returns how
// many were not NaN; a nil rows stands for every row of v.
func FoldAt[T int64 | float64](s *Sum, v []T, rows []int) (n int) {
	m := len(rows)
	if rows == nil {
		m = len(v)
	}
	for i := 0; i < m; {
		c := min(m-i, every-int(s.n))
		switch v := any(v).(type) {
		case []float64:
			n += s.floats(v, rows, i, i+c)
		case []int64:
			n += s.ints(v, rows, i, i+c)
		}
		if s.n += uint16(c); s.n == every {
			s.carry()
		}
		i += c
	}
	return n
}

// floats adds the values of positions [i, j) — v[i:j], or v[r] for r in
// rows[i:j] — with the folds held in registers, and returns how many were
// not NaN. A value out of the bin or an infinity goes through deposit,
// with the folds stored around it, and a NaN adds nothing. The caller
// counts the deposits.
func (s *Sum) floats(v []float64, rows []int, i, j int) (n int) {
	b := &bins[s.bin]
	a0, a1 := s.a0, s.a1
	for ; i < j; i++ {
		var x float64
		if rows == nil {
			x = v[i]
		} else {
			x = v[rows[i]]
		}
		if !(math.Abs(x) <= b.lim) {
			if x != x {
				continue
			}
			s.a0, s.a1 = a0, a1
			s.deposit(x)
			b, a0, a1 = &bins[s.bin], s.a0, s.a1
			n++
			continue
		}
		q0, q1 := slices(x, b)
		a0 += q0
		a1 += q1
		n++
	}
	s.a0, s.a1 = a0, a1
	return n
}

// ints is floats for int64 values, none of them NULL. One float64 cannot
// hold is deposited in two parts, which count as one deposit: together
// they add less than 2^reach to either fold.
func (s *Sum) ints(v []int64, rows []int, i, j int) int {
	b := &bins[s.bin]
	a0, a1 := s.a0, s.a1
	for k := i; k < j; k++ {
		var x int64
		if rows == nil {
			x = v[k]
		} else {
			x = v[rows[k]]
		}
		if s.bin == intBin && uint64(x+intLim) <= 2*intLim {
			a0 += x << intShift
			continue
		}
		f := float64(x)
		if !narrow(x) || !(math.Abs(f) <= b.lim) {
			s.a0, s.a1 = a0, a1
			s.wide(x)
			b, a0, a1 = &bins[s.bin], s.a0, s.a1
			continue
		}
		q0, q1 := slices(f, b)
		a0 += q0
		a1 += q1
	}
	s.a0, s.a1 = a0, a1
	return j - i
}

// wide deposits the int64 x without counting it: whole when float64 holds
// it, else as two parts it holds.
func (s *Sum) wide(x int64) {
	if narrow(x) {
		s.deposit(float64(x))
		return
	}
	hi := x &^ (1<<32 - 1)
	s.deposit(float64(hi))
	s.deposit(float64(x - hi))
}

// FoldSlots adds v's values — v[j], or v[rows[j]] for a non-nil rows — to
// sums[slots[j]], as Put would each, and counts every one that is not NaN
// in counts[slots[j]]: a grouped aggregate's item pass, its deposit inline.
func FoldSlots[T int64 | float64](sums []Sum, counts []int64, slots []int32, v []T, rows []int) {
	switch v := any(v).(type) {
	case []float64:
		for j, s := range slots {
			var x float64
			if rows == nil {
				x = v[j]
			} else {
				x = v[rows[j]]
			}
			if x != x {
				continue
			}
			counts[s]++
			sum := &sums[s]
			if b := &bins[sum.bin]; math.Abs(x) <= b.lim && sum.n < every-1 {
				q0, q1 := slices(x, b)
				sum.a0 += q0
				sum.a1 += q1
				sum.n++
			} else {
				sum.Add(x)
			}
		}
	case []int64:
		for j, s := range slots {
			var x int64
			if rows == nil {
				x = v[j]
			} else {
				x = v[rows[j]]
			}
			counts[s]++
			sum := &sums[s]
			if sum.n == every-1 {
				sum.AddInt(x)
				continue
			}
			if sum.bin == intBin && uint64(x+intLim) <= 2*intLim {
				sum.a0 += x << intShift
				sum.n++
				continue
			}
			if b, f := &bins[sum.bin], float64(x); narrow(x) && math.Abs(f) <= b.lim {
				q0, q1 := slices(f, b)
				sum.a0 += q0
				sum.a1 += q1
				sum.n++
				continue
			}
			sum.AddInt(x)
		}
	}
}

// deposit adds x without counting it: a NaN adds nothing, an infinity
// sets its flag.
func (s *Sum) deposit(x float64) {
	if math.Abs(x) <= bins[s.bin].lim || s.fit(x) {
		s.put(x)
	}
}

// slices returns x's two slices in bin b: q0 = round(x/u0), and q1 =
// round(x/u1 − q0·2^width), both half to even. |x| ≤ b.lim keeps x/u0
// within 2^reach and the rest within 2^(width-1), so each sum against magic
// lies in [2^52, 2^53), where a float64's bits count its units: the bits
// less magic's are the slice. x/u1 − q0·2^width is exact: both terms are,
// and they differ by at most 2^(width-1) once q0 is not 0, when x/u1 is at
// least 2^(width-1) and so has no bit below 2^-2.
func slices(x float64, b *bin) (q0, q1 int64) {
	t0 := float64(x*b.s0) + magic
	t1 := float64(x*b.s1) - float64((t0-magic)*(1<<width)) + magic
	return int64(math.Float64bits(t0) - magicBits), int64(math.Float64bits(t1) - magicBits)
}

// put deposits x, which the bin holds, without counting it.
func (s *Sum) put(x float64) {
	q0, q1 := slices(x, &bins[s.bin])
	s.a0 += q0
	s.a1 += q1
}

// fit readies s for an x its bin does not hold: it records an infinity, or
// moves up to the least bin that holds x. It reports whether x is to be
// deposited, which a NaN or an infinity is not.
func (s *Sum) fit(x float64) bool {
	switch {
	case x != x:
		return false
	case math.IsInf(x, 1):
		s.inf |= 1
		return false
	case math.IsInf(x, -1):
		s.inf |= 2
		return false
	}
	k := s.bin
	for math.Abs(x) > bins[k].lim {
		k++
	}
	s.raise(k)
	return true
}

// raise moves s up to bin k: fold 0 becomes fold 1 when k is the next bin,
// and both are dropped beyond it (see the package comment).
func (s *Sum) raise(k uint8) {
	if k == s.bin+1 {
		s.a1, s.h1 = s.a0, s.h0
	} else {
		s.a1, s.h1 = 0, 0
	}
	s.a0, s.h0, s.bin = 0, 0, k
}

// carry moves each fold's count past 2^61 into its carry.
func (s *Sum) carry() {
	s.h0 += int32(s.a0 >> 61)
	s.a0 &= keep
	s.h1 += int32(s.a1 >> 61)
	s.a1 &= keep
	s.n = 0
}

// Merge adds o's values to s. o is left as it was.
func (s *Sum) Merge(o *Sum) {
	s.inf |= o.inf
	if o.bin == s.bin {
		// The counts add without a carry when neither sum overflows and
		// both stay under 2^62, which leaves room for every deposit
		// before the next carry.
		r0, r1 := s.a0+o.a0, s.a1+o.a1
		if (s.a0^r0)&(o.a0^r0)|(s.a1^r1)&(o.a1^r1) >= 0 && (uint64(r0+1<<62)|uint64(r1+1<<62)) < 1<<63 {
			s.a0, s.a1 = r0, r1
			s.h0 += o.h0
			s.h1 += o.h1
			return
		}
	}
	a0, h0, a1, h1 := o.a0, o.h0, o.a1, o.h1
	switch {
	case o.bin > s.bin:
		s.raise(o.bin)
	case o.bin+1 == s.bin:
		a0, h0, a1, h1 = 0, 0, a0, h0
	case o.bin < s.bin:
		a0, h0, a1, h1 = 0, 0, 0, 0
	}
	s.carry()
	// Both counts are now under 2^61, so their sum leaves room for every
	// deposit before the next carry.
	s.h0 += h0 + int32(a0>>61)
	s.a0 += a0 & keep
	s.h1 += h1 + int32(a1>>61)
	s.a1 += a1 & keep
}

// Float64 returns the sum: the nearest float64 to the exact sum of the
// slices s holds (see the package comment).
func (s *Sum) Float64() float64 {
	switch s.inf {
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return math.NaN()
	}
	e1 := low + width*int(s.bin) - width
	// The exact total is t·2^e1, t = (h0·2^61 + a0)·2^width + h1·2^61 + a1:
	// under 2^126 while |h0| < 2^13, else math/big adds it up.
	if s.h0 >= 1<<13 || s.h0 < -1<<13 {
		return s.bigFloat64(e1)
	}
	t := fold(s.h0, s.a0).shl(width).add(fold(s.h1, s.a1))
	neg := t.hi < 0
	if neg {
		t = t.neg()
	}
	var f float64
	shift := 0
	if t.hi == 0 {
		f = float64(t.lo) // rounded half to even
	} else {
		// The top 64 bits, with every lower bit ORed into the last, round
		// as the whole does: the last is 11 places below the rounding bit.
		shift = 64 - bits.LeadingZeros64(uint64(t.hi))
		top := uint64(t.hi)<<(64-shift) | t.lo>>shift
		if t.lo<<(64-shift) != 0 {
			top |= 1
		}
		f = float64(top)
	}
	// t is a whole number of units of 2^e1 ≥ 2^-1023, so scaling the
	// rounded t by 2^e1 is exact, below 2^-1022 too, or overflows to ±Inf
	// exactly when the rounded total does.
	f = math.Ldexp(f, shift+e1)
	if neg {
		f = -f
	}
	return f
}

// bigFloat64 is Float64 for a total past int128's reach.
func (s *Sum) bigFloat64(e1 int) float64 {
	v0 := new(big.Int).Lsh(big.NewInt(int64(s.h0)), 61)
	v0.Add(v0, big.NewInt(s.a0)).Lsh(v0, width)
	v1 := new(big.Int).Lsh(big.NewInt(int64(s.h1)), 61)
	v1.Add(v1, big.NewInt(s.a1))
	f, _ := new(big.Float).SetMantExp(new(big.Float).SetInt(v0.Add(v0, v1)), e1).Float64()
	return f
}

// i128 is a two's-complement 128-bit integer.
type i128 struct {
	hi int64
	lo uint64
}

// fold returns h·2^61 + a.
func fold(h int32, a int64) i128 {
	return i128{int64(h) >> 3, uint64(h) << 61}.add(i128{a >> 63, uint64(a)})
}

func (x i128) add(y i128) i128 {
	lo, c := bits.Add64(x.lo, y.lo, 0)
	return i128{x.hi + y.hi + int64(c), lo}
}

func (x i128) shl(k uint) i128 { return i128{x.hi<<k | int64(x.lo>>(64-k)), x.lo << k} }

func (x i128) neg() i128 {
	lo, b := bits.Sub64(0, x.lo, 0)
	return i128{-x.hi - int64(b), lo}
}
