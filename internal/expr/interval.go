// Intervals: the one place a WHERE clause turns into value ranges. Zone-map
// pruning, cracked mode and the predicate kernel all ask "which values of
// column c can satisfy this predicate?", and all of them get the answer
// from the per-leaf rule below, which matches what FilterRange does leaf by
// leaf:
//
//   - INT column, INT constant: exact int64 comparison.
//   - FLOAT column, numeric constant: raw float64 comparison; strict bounds
//     move to the adjacent double, so every interval is inclusive. A NULL
//     (NaN) row satisfies no comparison and lies in no interval.
//   - INT column, FLOAT constant: Value.Compare's three-way comparison in
//     float64, where an int64 past 2^53 rounds. float64(x) is
//     non-decreasing in x, so every comparison keeps one run of integers:
//     below 2^53 its bounds are the constant's Ceil/Floor, beyond they are
//     found by a binary search over int64. A NaN constant compares equal to
//     every row: EQ, LE and GE keep them all, LT and GT none.
//   - NE, LIKE, string columns and string constants have no interval (the
//     kernel compiles an NE leaf as its EQ interval, negated).
package expr

import (
	"math"

	"dex/internal/storage"
)

// Interval is the set of values of one numeric column that a predicate's
// comparisons admit: Lo <= x <= Hi, inclusive, in the column's own type —
// the I bounds for an INT column, the F bounds for a FLOAT one. A NULL is
// never inside an interval. An unsatisfiable conjunction is an empty
// interval (Lo > Hi), not a missing one.
type Interval struct {
	Col      string
	Float    bool
	ILo, IHi int64
	FLo, FHi float64
}

// Empty reports whether no value lies in the interval.
func (iv Interval) Empty() bool {
	if iv.Float {
		return iv.FLo > iv.FHi
	}
	return iv.ILo > iv.IHi
}

// IntAbove returns IHi+1, the exclusive upper bound of the same integer
// range, and false when IHi is MaxInt64 and no such bound exists.
func (iv Interval) IntAbove() (int64, bool) {
	if iv.IHi == math.MaxInt64 {
		return 0, false
	}
	return iv.IHi + 1, true
}

// FloatAbove returns the least double above FHi, the exclusive upper bound
// of the same float range, and false when FHi is +Inf.
func (iv Interval) FloatAbove() (float64, bool) {
	if math.IsInf(iv.FHi, 1) {
		return 0, false
	}
	return nextAbove(iv.FHi), true
}

// Intervals returns, per numeric column of schema in order of first
// mention, the exact interval the comparison leaves of p's top-level
// conjunction admit (nested ANDs flatten, as in CompileKernel). reason is
// "" when those leaves are the whole predicate — a row satisfies p exactly
// when each of its columns lies in its interval — and otherwise names the
// first part of p that gave no interval. Either way every row satisfying p
// lies in every interval, which is all zone pruning needs.
func Intervals(schema storage.Schema, p *Pred) (ivs []Interval, reason string) {
	if p == nil {
		return nil, ""
	}
	var leaves []*Pred
	reason = flattenAnd(p, &leaves)
	if reason != "" {
		reason = "not an interval"
	}
	ivs, _, why := intervals(schema, leaves)
	if reason == "" {
		reason = why
	}
	return ivs, reason
}

// intervals intersects, per column in order of first mention, the
// intervals of the leaves that have one. rest are the other leaves, why
// the first one's reason.
func intervals(schema storage.Schema, leaves []*Pred) (ivs []Interval, rest []*Pred, why string) {
	for _, l := range leaves {
		iv, reason := leafInterval(schema, l)
		if reason != "" {
			if why == "" {
				why = reason
			}
			rest = append(rest, l)
			continue
		}
		i := 0
		for i < len(ivs) && ivs[i].Col != iv.Col {
			i++
		}
		if i == len(ivs) {
			ivs = append(ivs, iv)
			continue
		}
		ivs[i] = ivs[i].intersect(iv)
	}
	return ivs, rest, why
}

// leafInterval applies the per-leaf rule to one comparison or LIKE leaf.
func leafInterval(schema storage.Schema, p *Pred) (Interval, string) {
	if p.Kind != KCmp || p.Op == NE {
		return Interval{}, "not an interval"
	}
	c := schema.Index(p.Col)
	if c < 0 || !p.Val.IsNumeric() {
		return Interval{}, "not numeric"
	}
	iv := Interval{Col: p.Col}
	switch {
	case schema[c].Type == storage.TFloat:
		iv.Float = true
		iv.FLo, iv.FHi = f64Bounds(p.Op, p.Val.AsFloat())
		return iv.normal(), ""
	case schema[c].Type != storage.TInt:
		return Interval{}, "not numeric"
	case p.Val.Typ == storage.TInt:
		iv.ILo, iv.IHi = i64Bounds(p.Op, p.Val.I)
	default:
		iv.ILo, iv.IHi = intAsFloatBounds(p.Op, p.Val.F)
	}
	return iv, ""
}

// intAsFloatBounds rewrites Value.Compare's three-way comparison of
// float64(x) with v as an inclusive int64 range. The ints at or above v
// and those above v are two suffixes of int64: GE and GT keep one, LT and
// LE keep what lies below one, and EQ keeps the first minus the second.
func intAsFloatBounds(op Op, v float64) (lo, hi int64) {
	if v != v {
		if op == LT || op == GT {
			return math.MaxInt64, math.MinInt64
		}
		return math.MinInt64, math.MaxInt64
	}
	below := func(lo, hi int64) (int64, int64) {
		if lo > hi {
			return math.MinInt64, math.MaxInt64
		}
		return i64Bounds(LT, lo)
	}
	geLo, geHi := intsAbove(v, false)
	gtLo, gtHi := intsAbove(v, true)
	switch op {
	case GE:
		return geLo, geHi
	case GT:
		return gtLo, gtHi
	case LT:
		return below(geLo, geHi)
	case LE:
		return below(gtLo, gtHi)
	}
	lo, hi = below(gtLo, gtHi)
	return max(lo, geLo), min(hi, geHi)
}

// intsAbove returns the int64s x with float64(x) >= v, or > v when strict,
// as the range [c, MaxInt64], empty when no int64 qualifies. Below 2^53
// every integer is a double and c is v rounded up; beyond, c is the least
// x that qualifies, found by bisection since float64(x) never decreases.
func intsAbove(v float64, strict bool) (lo, hi int64) {
	if math.Abs(v) < 1<<53 {
		c := math.Ceil(v)
		if strict {
			c = math.Floor(v) + 1
		}
		return int64(c), math.MaxInt64
	}
	in := func(x int64) bool { return float64(x) > v || !strict && float64(x) == v }
	if !in(math.MaxInt64) {
		return math.MaxInt64, math.MinInt64
	}
	lo, hi = math.MinInt64, math.MaxInt64
	for lo < hi {
		if mid := lo + int64(uint64(hi-lo)/2); in(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, math.MaxInt64
}

// intersect narrows iv to the values o admits too.
func (iv Interval) intersect(o Interval) Interval {
	if iv.Float {
		iv.FLo, iv.FHi = math.Max(iv.FLo, o.FLo), math.Min(iv.FHi, o.FHi)
		return iv
	}
	iv.ILo, iv.IHi = max(iv.ILo, o.ILo), min(iv.IHi, o.IHi)
	return iv
}

// normal rewrites a float range f64Bounds marked unsatisfiable with a NaN
// bound as an empty one, so Empty and every comparison against the bounds
// agree.
func (iv Interval) normal() Interval {
	if !(iv.FLo <= iv.FHi) {
		iv.FLo, iv.FHi = math.Inf(1), math.Inf(-1)
	}
	return iv
}

// i64Bounds rewrites one exact int64 comparison as an inclusive range.
// An unsatisfiable comparison (x > MaxInt64, x < MinInt64) returns the
// empty range lo > hi, which intersection preserves.
func i64Bounds(op Op, v int64) (lo, hi int64) {
	lo, hi = math.MinInt64, math.MaxInt64
	switch op {
	case LT:
		if v == math.MinInt64 {
			return math.MaxInt64, math.MinInt64
		}
		hi = v - 1
	case LE:
		hi = v
	case GT:
		if v == math.MaxInt64 {
			return math.MaxInt64, math.MinInt64
		}
		lo = v + 1
	case GE:
		lo = v
	case EQ:
		lo, hi = v, v
	}
	return lo, hi
}

// f64Bounds rewrites one raw float64 comparison as an inclusive range.
// Strict bounds move to the adjacent representable double (exact), and a
// comparison no value satisfies — x > +Inf, x < -Inf, any op against NaN —
// yields a NaN bound.
func f64Bounds(op Op, v float64) (lo, hi float64) {
	lo, hi = math.Inf(-1), math.Inf(1)
	switch op {
	case LT:
		hi = nextBelow(v)
	case LE:
		hi = v // v NaN: x <= NaN holds for no x, the range is already empty
	case GT:
		lo = nextAbove(v)
	case GE:
		lo = v
	case EQ:
		lo, hi = v, v
	}
	return lo, hi
}

func nextAbove(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 1) {
		return math.NaN()
	}
	return math.Nextafter(v, math.Inf(1))
}

func nextBelow(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, -1) {
		return math.NaN()
	}
	return math.Nextafter(v, math.Inf(-1))
}
