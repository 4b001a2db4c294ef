// Predicate kernels: the hot filtered-scan loop compiled down to typed
// slice scans. CompileKernel lowers a conjunction of comparison leaves onto
// the concrete column representations of one table, and Run then evaluates
// a row range with zero boxed Eval calls: the first leaf scans raw values
// into a selection vector, each further leaf refines that vector in place.
// Every numeric leaf is one inclusive range over its column — the
// intersection Intervals takes of the column's comparisons, or an NE
// leaf's EQ range — kept or, negated, thrown out. A dictionary leaf is a
// per-code verdict table, which LIKE lowers to as well. Predicates the
// compiler cannot lower (OR, NOT, comparisons and LIKE on plain string
// columns) report a fallback reason and the caller uses the generic
// FilterRange path, which stays the semantic oracle: for every input,
// Run(lo, hi, nil) must equal FilterRange(t, p, lo, hi), and Refine over
// candidates in any order must keep exactly the rows FilterRange selects,
// in their given order. The differential fuzzer in kernel_fuzz_test.go
// enforces exactly that.
package expr

import (
	"math"
	"unsafe"

	"dex/internal/storage"
)

// kernelKind discriminates compiled leaf shapes.
type kernelKind uint8

const (
	// kI64: an IntColumn's values in [lo, lo+span], one unsigned compare.
	kI64 kernelKind = iota
	// kF64: a FloatColumn's values in [flo, fhi]; a NaN lies in no range.
	kF64
	// kRLE: an RLEIntColumn's values in [lo, lo+span], decided once per run.
	kRLE
	// kDict: a DictColumn's codes, verdict precomputed per code.
	kDict
)

// kernelLeaf is one compiled leaf, bound to a column's raw storage. A range
// leaf keeps the rows inside its range, or with neg the rows outside it.
type kernelLeaf struct {
	kind     kernelKind
	neg      bool
	lo       int64   // kI64, kRLE: low bound
	span     uint64  // kI64, kRLE: high bound minus low bound
	flo, fhi float64 // kF64: bounds
	i64      []int64
	f64      []float64
	rle      *storage.RLEIntColumn
	codes    []int32
	match    []bool
}

// Kernel is a compiled predicate over one table. The zero leaf count means
// "match everything" (an empty conjunction).
type Kernel struct {
	leaves []kernelLeaf
	n      int // table length at compile time
}

// Leaves returns the number of compiled leaves.
func (k *Kernel) Leaves() int { return len(k.leaves) }

// CompileKernel lowers p onto t's columns. It returns (kernel, "") on
// success, or (nil, reason) when the predicate must take the generic path.
// Only comparison and LIKE leaves and conjunctions of them are
// specializable; the reason string is stable and surfaces in the scan
// trace span.
func CompileKernel(t *storage.Table, p *Pred) (*Kernel, string) {
	if p == nil || p.Kind == KTrue {
		return nil, "trivial predicate"
	}
	var cmps []*Pred
	if reason := flattenAnd(p, &cmps); reason != "" {
		return nil, reason
	}
	ivs, rest, _ := intervals(t.Schema(), cmps)
	k := &Kernel{leaves: make([]kernelLeaf, 0, len(ivs)+len(rest)), n: t.NumRows()}
	for _, iv := range ivs {
		c, _ := t.ColumnByName(iv.Col)
		k.leaves = append(k.leaves, rangeLeaf(c, iv, false))
	}
	for _, c := range rest {
		leaf, reason := compileLeaf(t, c)
		if reason != "" {
			return nil, reason
		}
		k.leaves = append(k.leaves, leaf)
	}
	// Run-length leaves scan whole runs at a time, so when one is present it
	// should produce the candidate vector the others refine. AND commutes;
	// moving it first never changes the result.
	for i, l := range k.leaves {
		if l.kind == kRLE {
			k.leaves[0], k.leaves[i] = k.leaves[i], k.leaves[0]
			break
		}
	}
	return k, ""
}

// flattenAnd collects the comparison and LIKE leaves of a (possibly nested)
// conjunction into out, returning a fallback reason for the first conjunct
// of any other shape. It skips such a conjunct and keeps collecting, so the
// leaves still describe a superset of the rows p admits.
func flattenAnd(p *Pred, out *[]*Pred) string {
	switch p.Kind {
	case KCmp, KLike:
		*out = append(*out, p)
		return ""
	case KTrue:
		return "" // neutral element of AND
	case KAnd:
		reason := ""
		for _, kid := range p.Kids {
			if r := flattenAnd(kid, out); reason == "" {
				reason = r
			}
		}
		return reason
	case KOr:
		return "disjunction"
	case KNot:
		return "negation"
	default:
		return "unknown predicate kind"
	}
}

// compileLeaf binds a leaf Intervals gave no range to a column's storage.
// On a dictionary column it becomes a per-code verdict table. On a numeric
// column an NE leaf is its EQ range negated, and a TEXT constant has one
// verdict on every row, NULLs included — numbers order before strings — so
// it is the empty range, negated when that verdict is true.
func compileLeaf(t *storage.Table, p *Pred) (kernelLeaf, string) {
	c, err := t.ColumnByName(p.Col)
	if err != nil {
		return kernelLeaf{}, "unknown column"
	}
	switch cc := c.(type) {
	case *storage.DictColumn:
		return kernelLeaf{kind: kDict, codes: cc.Codes(), match: dictVerdicts(cc, p)}, ""
	case *storage.StringColumn:
		if p.Kind != KLike {
			return kernelLeaf{}, "string column"
		}
	}
	if p.Kind == KLike {
		return kernelLeaf{}, "like pattern"
	}
	if p.Val.Typ == storage.TString {
		empty := Interval{ILo: math.MaxInt64, IHi: math.MinInt64, FLo: math.Inf(1), FHi: math.Inf(-1)}
		return rangeLeaf(c, empty, p.Op.apply(storage.Int(0).Compare(p.Val))), ""
	}
	eq := *p
	eq.Op = EQ
	iv, _ := leafInterval(t.Schema(), &eq)
	return rangeLeaf(c, iv, true), ""
}

// rangeLeaf binds the interval iv to its numeric column c. The unsigned
// int test has no empty range, so an empty one becomes the full range with
// neg flipped.
func rangeLeaf(c storage.Column, iv Interval, neg bool) kernelLeaf {
	l := kernelLeaf{kind: kI64, neg: neg}
	switch cc := c.(type) {
	case *storage.FloatColumn:
		l.kind, l.f64, l.flo, l.fhi = kF64, cc.V, iv.FLo, iv.FHi
		return l
	case *storage.IntColumn:
		l.i64 = cc.V
	case *storage.RLEIntColumn:
		l.kind, l.rle = kRLE, cc
	}
	if iv.Empty() {
		iv.ILo, iv.IHi, l.neg = math.MinInt64, math.MaxInt64, !neg
	}
	l.lo, l.span = iv.ILo, uint64(iv.IHi-iv.ILo)
	return l
}

// inRun decides a kRLE leaf for one run value.
func (l *kernelLeaf) inRun(x int64) bool {
	return uint64(x-l.lo) <= l.span != l.neg
}

// Run appends to sel the positions in [lo, hi) that satisfy the kernel, in
// ascending order, and returns the extended slice. sel is typically a
// pooled buffer sliced to length zero; Run never reads its prior contents.
func (k *Kernel) Run(lo, hi int, sel []int) []int {
	if hi > k.n {
		hi = k.n
	}
	if lo < 0 {
		lo = 0
	}
	if lo >= hi {
		return sel
	}
	if len(k.leaves) == 0 {
		for i := lo; i < hi; i++ {
			sel = append(sel, i)
		}
		return sel
	}
	base := len(sel)
	sel = k.leaves[0].scan(sel, lo, hi)
	for i := 1; i < len(k.leaves); i++ {
		kept := k.leaves[i].refine(sel[base:])
		sel = sel[:base+len(kept)]
	}
	return sel
}

// Refine keeps the candidate positions in sel that satisfy the kernel,
// compacting in place, and returns the kept prefix in the candidates'
// order. Unlike Run's ranges, the candidates may come in any order — a
// window of a row shuffle, say — since every leaf reads by position.
func (k *Kernel) Refine(sel []int) []int {
	for i := range k.leaves {
		sel = k.leaves[i].refine(sel)
	}
	return sel
}

// scan appends the matching positions of [lo, hi) to sel. The typed kinds
// run branch-free: every position is written into a pre-sized window of the
// buffer and the write cursor advances by the test's 0/1 result, XORed with
// neg, so the loop's cost does not depend on how predictable the
// selectivity is. A float range with an infinite bound tests only its
// finite one.
func (l *kernelLeaf) scan(sel []int, lo, hi int) []int {
	need := len(sel) + (hi - lo)
	if cap(sel) < need {
		grown := make([]int, len(sel), need)
		copy(grown, sel)
		sel = grown
	}
	if l.kind == kRLE {
		// Runs are accepted or rejected whole; the inner fill is a straight
		// index write, no per-row verdict.
		l.rle.ForEachRun(lo, hi, func(x int64, rlo, rhi int) {
			if l.inRun(x) {
				for i := rlo; i < rhi; i++ {
					sel = append(sel, i)
				}
			}
		})
		return sel
	}
	buf, k, neg := sel[len(sel):need], 0, b2i(l.neg)
	switch l.kind {
	case kI64:
		from, span := l.lo, l.span
		for i, x := range l.i64[lo:hi] {
			buf[k] = lo + i
			k += b2i(uint64(x-from) <= span) ^ neg
		}
	case kF64:
		from, to, s := l.flo, l.fhi, l.f64[lo:hi]
		switch {
		case math.IsInf(to, 1):
			for i, x := range s {
				buf[k] = lo + i
				k += b2i(x >= from) ^ neg
			}
		case math.IsInf(from, -1):
			for i, x := range s {
				buf[k] = lo + i
				k += b2i(x <= to) ^ neg
			}
		default:
			for i, x := range s {
				buf[k] = lo + i
				k += b2i(x >= from)&b2i(x <= to) ^ neg
			}
		}
	case kDict:
		match := l.match
		for i, code := range l.codes[lo:hi] {
			buf[k] = lo + i
			k += b2i(match[code])
		}
	}
	return sel[:len(sel)+k]
}

// refine keeps only the candidates satisfying the leaf, compacting in
// place: positions are rewritten over the prefix of sel and the write
// cursor advances only on a match, which is safe because writes never pass
// reads. It uses the same branch-free advance as scan.
func (l *kernelLeaf) refine(sel []int) []int {
	if l.kind == kRLE {
		// The cursor seeks, so candidates may come in any order: ascending
		// ones (Run's) cost a short forward walk, others a binary search.
		// The verdict is recomputed only when the run changes.
		out := sel[:0]
		cur := l.rle.Cursor()
		last, ok := -1, false
		for _, p := range sel {
			x := cur.At(p)
			if r := cur.Run(); r != last {
				ok, last = l.inRun(x), r
			}
			if ok {
				out = append(out, p)
			}
		}
		return out
	}
	k, neg := 0, b2i(l.neg)
	switch l.kind {
	case kI64:
		from, span, s := l.lo, l.span, l.i64
		for _, p := range sel {
			sel[k] = p
			k += b2i(uint64(s[p]-from) <= span) ^ neg
		}
	case kF64:
		from, to, s := l.flo, l.fhi, l.f64
		for _, p := range sel {
			sel[k] = p
			x := s[p]
			k += b2i(x >= from)&b2i(x <= to) ^ neg
		}
	case kDict:
		match, codes := l.match, l.codes
		for _, p := range sel {
			sel[k] = p
			k += b2i(match[codes[p]])
		}
	}
	return sel[:k]
}

// b2i converts a bool to 0/1 without a branch: the compiler materializes a
// comparison result as a 0/1 byte (SETcc on amd64), and reading that byte
// directly keeps the selection loops branch-free at any selectivity — a
// mid-selectivity predicate would otherwise pay a misprediction every few
// rows. The representation (false=0, true=1, one byte) is what the gc and
// gccgo runtimes use and what the reflect package relies on.
func b2i(b bool) int {
	return int(*(*uint8)(unsafe.Pointer(&b)))
}
