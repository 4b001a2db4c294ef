// Predicate kernels: the hot filtered-scan loop compiled down to typed
// slice scans. CompileKernel lowers a comparison leaf — or a conjunction of
// them — onto the concrete column representations of one table, and Run
// then evaluates a row range with zero boxed Eval calls: the first leaf
// scans raw values into a selection vector, each further leaf refines that
// vector in place. LIKE lowers too when its column is dictionary-encoded:
// the pattern runs once per distinct entry and rows reduce to a code
// lookup. Predicates the compiler cannot lower (OR, NOT, LIKE on plain
// string columns, cross-type comparisons) report a fallback reason
// and the caller uses the generic FilterRange path, which stays the
// semantic oracle: for every input, Run(lo, hi, nil) must equal
// FilterRange(t, p, lo, hi), and Refine over candidates in any order must
// keep exactly the rows FilterRange selects, in their given order. The
// differential fuzzer in kernel_fuzz_test.go enforces exactly that.
package expr

import (
	"math"
	"unsafe"

	"dex/internal/storage"
)

// kernelKind discriminates compiled leaf shapes.
type kernelKind uint8

const (
	// kI64: IntColumn vs INT constant, exact int64 comparison.
	kI64 kernelKind = iota
	// kI64AsF64: IntColumn vs FLOAT constant. The generic path boxes both
	// sides through Value.Compare (float64 conversion, three-way result), so
	// the kernel replicates that exactly — including NaN constants, where
	// every comparison collapses to cmp==0.
	kI64AsF64
	// kF64: FloatColumn vs numeric constant, raw float64 comparison
	// (NaN matches nothing except NE, as in the typed FilterRange path).
	kF64
	// kI64Range: two or more kI64 leaves on the same column fused into one
	// inclusive range iv <= x <= iv2 (bounds normalized exactly; an empty
	// intersection is iv > iv2). One load and two compares per row replace
	// a scan per leaf.
	kI64Range
	// kF64Range: fused kF64 leaves, inclusive fv <= x <= fv2. Strict bounds
	// normalize via Nextafter (exact on doubles); an unsatisfiable range
	// carries a NaN bound, which no row — NaN included — can pass, matching
	// the raw-comparison semantics of the unfused leaves.
	kF64Range
	// kDict: DictColumn vs any constant; verdict precomputed per code.
	kDict
	// kRLE: RLEIntColumn vs any constant; verdict computed once per run.
	kRLE
)

// kernelLeaf is one compiled comparison, bound to a column's raw storage.
type kernelLeaf struct {
	kind  kernelKind
	op    Op
	col   string        // source column, for range fusion
	iv    int64         // kI64 constant / kI64Range low bound
	iv2   int64         // kI64Range high bound
	fv    float64       // kI64AsF64, kF64 constant / kF64Range low bound
	fv2   float64       // kF64Range high bound
	val   storage.Value // kRLE boxed constant (non-INT)
	exact bool          // kRLE: INT constant, compare exactly
	i64   []int64       // kI64 / kI64AsF64 / kI64Range values
	f64   []float64     // kF64 / kF64Range values
	codes []int32       // kDict codes
	match []bool        // kDict per-code verdict
	rle   *storage.RLEIntColumn
	// extra holds further fused comparisons against the same RLE column:
	// the run verdict is the conjunction of (op, val) and every entry here,
	// evaluated once per run instead of once per leaf pass.
	extra []rleCond
}

// rleCond is one fused comparison of a kRLE leaf's conjunction.
type rleCond struct {
	op  Op
	val storage.Value
}

// runVerdict evaluates the leaf's full conjunction against one run value.
func (l *kernelLeaf) runVerdict(x int64) bool {
	if !rleVerdict(l.op, x, l.val) {
		return false
	}
	for _, c := range l.extra {
		if !rleVerdict(c.op, x, c.val) {
			return false
		}
	}
	return true
}

// Kernel is a compiled predicate over one table. The zero leaf count means
// "match everything" (an empty conjunction).
type Kernel struct {
	leaves []kernelLeaf
	n      int // table length at compile time
}

// Leaves returns the number of compiled comparison leaves.
func (k *Kernel) Leaves() int { return len(k.leaves) }

// CompileKernel lowers p onto t's columns. It returns (kernel, "") on
// success, or (nil, reason) when the predicate must take the generic path.
// Only comparison leaves and conjunctions of them are specializable; the
// reason string is stable and surfaces in the scan trace span.
func CompileKernel(t *storage.Table, p *Pred) (*Kernel, string) {
	if p == nil || p.Kind == KTrue {
		return nil, "trivial predicate"
	}
	var cmps []*Pred
	if reason := flattenAnd(p, &cmps); reason != "" {
		return nil, reason
	}
	k := &Kernel{leaves: make([]kernelLeaf, 0, len(cmps)), n: t.NumRows()}
	for _, c := range cmps {
		leaf, reason := compileLeaf(t, c)
		if reason != "" {
			return nil, reason
		}
		k.leaves = append(k.leaves, leaf)
	}
	k.leaves = fuseRanges(k.leaves)
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

// fuseRanges intersects same-column kI64/kF64 comparison leaves into single
// range leaves, so BETWEEN-style conjunctions scan the column once instead
// of once per bound. NE leaves are not contiguous ranges and stay unfused;
// kI64AsF64 keeps its three-way-compare semantics and stays unfused too.
// Fusion is exact: each leaf's inclusive bounds come from the interval rule
// in interval.go (integers by ±1 with overflow producing an empty range,
// floats by Nextafter with ±Inf/NaN producing an unsatisfiable NaN bound).
// Same-column kRLE leaves fuse by a different mechanism — the extra
// comparisons join the first leaf's per-run conjunction, so a range over a
// run-length column still makes a single pass over the runs.
func fuseRanges(leaves []kernelLeaf) []kernelLeaf {
	fusable := func(l kernelLeaf) bool {
		return (l.kind == kI64 || l.kind == kF64) && l.op != NE || l.kind == kRLE
	}
	byCol := map[string]int{} // column -> count of fusable leaves
	for _, l := range leaves {
		if fusable(l) {
			byCol[l.col]++
		}
	}
	out := leaves[:0]
	at := map[string]int{} // column -> index of its fused leaf in out
	for _, l := range leaves {
		if !fusable(l) || byCol[l.col] < 2 {
			out = append(out, l)
			continue
		}
		if i, ok := at[l.col]; ok {
			merge := &out[i]
			switch l.kind {
			case kI64:
				lo, hi := i64Bounds(l.op, l.iv)
				merge.iv = max(merge.iv, lo)
				merge.iv2 = min(merge.iv2, hi)
			case kF64:
				lo, hi := f64Bounds(l.op, l.fv)
				// math.Max/Min propagate a NaN (unsatisfiable) bound.
				merge.fv = math.Max(merge.fv, lo)
				merge.fv2 = math.Min(merge.fv2, hi)
			case kRLE:
				merge.extra = append(merge.extra, rleCond{op: l.op, val: l.val})
			}
			continue
		}
		r := l
		switch l.kind {
		case kI64:
			r.kind = kI64Range
			r.iv, r.iv2 = i64Bounds(l.op, l.iv)
		case kF64:
			r.kind = kF64Range
			r.fv, r.fv2 = f64Bounds(l.op, l.fv)
		}
		at[l.col] = len(out)
		out = append(out, r)
	}
	return out
}

// flattenAnd collects the comparison and LIKE leaves of a (possibly nested)
// conjunction into out, returning a fallback reason for the first conjunct
// of any other shape. It skips such a conjunct and keeps collecting, so the
// leaves still describe a superset of the rows p admits.
func flattenAnd(p *Pred, out *[]*Pred) string {
	switch p.Kind {
	case KCmp:
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
	case KLike:
		// Lowerable when the column turns out to be dictionary-encoded
		// (compileLeaf decides); plain string columns still fall back.
		*out = append(*out, p)
		return ""
	default:
		return "unknown predicate kind"
	}
}

// compileLeaf binds one comparison or LIKE leaf to a column's storage.
func compileLeaf(t *storage.Table, p *Pred) (kernelLeaf, string) {
	c, err := t.ColumnByName(p.Col)
	if err != nil {
		return kernelLeaf{}, "unknown column"
	}
	if p.Kind == KLike {
		// LIKE compiles only against a dictionary: the pattern is matched
		// once per distinct entry — the same per-code verdict table
		// evalLike builds — and the scan degenerates to a kDict code
		// lookup. Row-at-a-time pattern matching over a plain string
		// column has no typed fast path, so it keeps the generic reason.
		dc, ok := c.(*storage.DictColumn)
		if !ok {
			return kernelLeaf{}, "like pattern"
		}
		dict, pat := dc.Dict(), p.Val.S
		match := make([]bool, len(dict))
		for code, s := range dict {
			match[code] = likeMatch(s, pat)
		}
		return kernelLeaf{kind: kDict, op: EQ, col: p.Col, codes: dc.Codes(), match: match}, ""
	}
	switch cc := c.(type) {
	case *storage.IntColumn:
		switch p.Val.Typ {
		case storage.TInt:
			return kernelLeaf{kind: kI64, op: p.Op, col: p.Col, iv: p.Val.I, i64: cc.V}, ""
		case storage.TFloat:
			return kernelLeaf{kind: kI64AsF64, op: p.Op, col: p.Col, fv: p.Val.AsFloat(), i64: cc.V}, ""
		default:
			return kernelLeaf{}, "cross-type compare"
		}
	case *storage.FloatColumn:
		if !p.Val.IsNumeric() {
			return kernelLeaf{}, "cross-type compare"
		}
		return kernelLeaf{kind: kF64, op: p.Op, col: p.Col, fv: p.Val.AsFloat(), f64: cc.V}, ""
	case *storage.DictColumn:
		return kernelLeaf{kind: kDict, op: p.Op, col: p.Col, codes: cc.Codes(),
			match: dictMatch(cc, p.Op, p.Val)}, ""
	case *storage.RLEIntColumn:
		l := kernelLeaf{kind: kRLE, op: p.Op, col: p.Col, rle: cc, val: p.Val}
		if p.Val.Typ == storage.TInt {
			l.exact, l.iv = true, p.Val.I
		}
		return l, ""
	default:
		return kernelLeaf{}, "string column"
	}
}

// dictMatch evaluates op-against-val once per dictionary entry. Boxed
// Compare gives the same cross-type ordering as the generic row path.
func dictMatch(c *storage.DictColumn, op Op, val storage.Value) []bool {
	dict := c.Dict()
	match := make([]bool, len(dict))
	for code, s := range dict {
		match[code] = op.apply(storage.String_(s).Compare(val))
	}
	return match
}

// rleVerdict evaluates one run value against the constant with the same
// semantics as the IntColumn paths: exact int64 comparison for INT
// constants, boxed Compare otherwise.
func rleVerdict(op Op, x int64, val storage.Value) bool {
	if val.Typ == storage.TInt {
		return intVerdict(op, x, val.I)
	}
	return op.apply(storage.Int(x).Compare(val))
}

// intVerdict is the exact int64 comparison used by the IntColumn fast path.
func intVerdict(op Op, x, v int64) bool {
	switch op {
	case LT:
		return x < v
	case LE:
		return x <= v
	case GT:
		return x > v
	case GE:
		return x >= v
	case EQ:
		return x == v
	default:
		return x != v
	}
}

// floatVerdict is the raw float64 comparison used by the FloatColumn fast
// path: a NaN on either side satisfies NE and nothing else.
func floatVerdict(op Op, x, v float64) bool {
	switch op {
	case LT:
		return x < v
	case LE:
		return x <= v
	case GT:
		return x > v
	case GE:
		return x >= v
	case EQ:
		return x == v
	default:
		return x != v
	}
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
// buffer and the write cursor advances by the comparison's 0/1 result, so
// the loop's cost does not depend on how predictable the selectivity is.
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
			if l.runVerdict(x) {
				for i := rlo; i < rhi; i++ {
					sel = append(sel, i)
				}
			}
		})
		return sel
	}
	buf := sel[len(sel):need]
	k := 0
	switch l.kind {
	case kI64:
		v, s := l.iv, l.i64[lo:hi]
		switch l.op {
		case LT:
			for i, x := range s {
				buf[k] = lo + i
				k += b2i(x < v)
			}
		case LE:
			for i, x := range s {
				buf[k] = lo + i
				k += b2i(x <= v)
			}
		case GT:
			for i, x := range s {
				buf[k] = lo + i
				k += b2i(x > v)
			}
		case GE:
			for i, x := range s {
				buf[k] = lo + i
				k += b2i(x >= v)
			}
		case EQ:
			for i, x := range s {
				buf[k] = lo + i
				k += b2i(x == v)
			}
		case NE:
			for i, x := range s {
				buf[k] = lo + i
				k += b2i(x != v)
			}
		}
	case kI64Range:
		lov, hiv, s := l.iv, l.iv2, l.i64[lo:hi]
		for i, x := range s {
			buf[k] = lo + i
			k += b2i(x >= lov) & b2i(x <= hiv)
		}
	case kI64AsF64:
		// Three-way float semantics (see kI64AsF64 doc): LE is "not greater",
		// GE "not less", EQ "neither" — so a NaN constant satisfies LE/GE/EQ
		// for every row, exactly like the boxed path.
		v, s := l.fv, l.i64[lo:hi]
		switch l.op {
		case LT:
			for i, x := range s {
				buf[k] = lo + i
				k += b2i(float64(x) < v)
			}
		case LE:
			for i, x := range s {
				buf[k] = lo + i
				k += b2i(!(float64(x) > v))
			}
		case GT:
			for i, x := range s {
				buf[k] = lo + i
				k += b2i(float64(x) > v)
			}
		case GE:
			for i, x := range s {
				buf[k] = lo + i
				k += b2i(!(float64(x) < v))
			}
		case EQ:
			for i, x := range s {
				buf[k] = lo + i
				f := float64(x)
				k += b2i(!(f < v)) & b2i(!(f > v))
			}
		case NE:
			for i, x := range s {
				buf[k] = lo + i
				f := float64(x)
				k += b2i(f < v) | b2i(f > v)
			}
		}
	case kF64:
		v, s := l.fv, l.f64[lo:hi]
		switch l.op {
		case LT:
			for i, x := range s {
				buf[k] = lo + i
				k += b2i(x < v)
			}
		case LE:
			for i, x := range s {
				buf[k] = lo + i
				k += b2i(x <= v)
			}
		case GT:
			for i, x := range s {
				buf[k] = lo + i
				k += b2i(x > v)
			}
		case GE:
			for i, x := range s {
				buf[k] = lo + i
				k += b2i(x >= v)
			}
		case EQ:
			for i, x := range s {
				buf[k] = lo + i
				k += b2i(x == v)
			}
		case NE:
			for i, x := range s {
				buf[k] = lo + i
				k += b2i(x != v)
			}
		}
	case kF64Range:
		lov, hiv, s := l.fv, l.fv2, l.f64[lo:hi]
		for i, x := range s {
			buf[k] = lo + i
			k += b2i(x >= lov) & b2i(x <= hiv)
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

// test reports whether row i satisfies the leaf (random access; used by
// refine for kinds without a specialized loop; kRLE walks runs instead).
func (l *kernelLeaf) test(i int) bool {
	switch l.kind {
	case kI64:
		return intVerdict(l.op, l.i64[i], l.iv)
	case kI64Range:
		x := l.i64[i]
		return x >= l.iv && x <= l.iv2
	case kF64Range:
		x := l.f64[i]
		return x >= l.fv && x <= l.fv2
	case kI64AsF64:
		f, v := float64(l.i64[i]), l.fv
		switch l.op {
		case LT:
			return f < v
		case LE:
			return !(f > v)
		case GT:
			return f > v
		case GE:
			return !(f < v)
		case EQ:
			return !(f < v) && !(f > v)
		default:
			return f < v || f > v
		}
	case kF64:
		return floatVerdict(l.op, l.f64[i], l.fv)
	case kDict:
		return l.match[l.codes[i]]
	default:
		return false
	}
}

// refine keeps only the candidates satisfying the leaf, compacting in
// place: positions are rewritten over the prefix of sel and the write
// cursor advances only on a match, which is safe because writes never pass
// reads. The common kinds use the same branch-free advance as scan.
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
				ok, last = l.runVerdict(x), r
			}
			if ok {
				out = append(out, p)
			}
		}
		return out
	}
	k := 0
	switch l.kind {
	case kI64:
		v, s := l.iv, l.i64
		switch l.op {
		case LT:
			for _, p := range sel {
				sel[k] = p
				k += b2i(s[p] < v)
			}
		case LE:
			for _, p := range sel {
				sel[k] = p
				k += b2i(s[p] <= v)
			}
		case GT:
			for _, p := range sel {
				sel[k] = p
				k += b2i(s[p] > v)
			}
		case GE:
			for _, p := range sel {
				sel[k] = p
				k += b2i(s[p] >= v)
			}
		case EQ:
			for _, p := range sel {
				sel[k] = p
				k += b2i(s[p] == v)
			}
		case NE:
			for _, p := range sel {
				sel[k] = p
				k += b2i(s[p] != v)
			}
		}
	case kI64Range:
		lov, hiv, s := l.iv, l.iv2, l.i64
		for _, p := range sel {
			sel[k] = p
			x := s[p]
			k += b2i(x >= lov) & b2i(x <= hiv)
		}
	case kF64Range:
		lov, hiv, s := l.fv, l.fv2, l.f64
		for _, p := range sel {
			sel[k] = p
			x := s[p]
			k += b2i(x >= lov) & b2i(x <= hiv)
		}
	case kDict:
		match, codes := l.match, l.codes
		for _, p := range sel {
			sel[k] = p
			k += b2i(match[codes[p]])
		}
	default:
		for _, p := range sel {
			sel[k] = p
			k += b2i(l.test(p))
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
