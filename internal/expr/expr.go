// Package expr provides scalar predicates over tables: comparisons of a
// column against a constant, combined with AND/OR/NOT. Predicates evaluate
// either row-at-a-time (Matches) or column-at-a-time (Filter), the latter
// using typed fast paths as a column store would.
package expr

import (
	"cmp"
	"errors"
	"fmt"
	"strings"

	"dex/internal/storage"
)

// ErrUnknownColumn is returned when a predicate references a column that the
// table does not have.
var ErrUnknownColumn = errors.New("expr: unknown column")

// Op is a comparison operator.
type Op uint8

// Comparison operators.
const (
	EQ Op = iota
	NE
	LT
	LE
	GT
	GE
)

// String returns the SQL spelling of the operator.
func (o Op) String() string {
	switch o {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// apply evaluates "cmp(a,b) o 0" given a three-way comparison result.
func (o Op) apply(cmp int) bool {
	switch o {
	case EQ:
		return cmp == 0
	case NE:
		return cmp != 0
	case LT:
		return cmp < 0
	case LE:
		return cmp <= 0
	case GT:
		return cmp > 0
	case GE:
		return cmp >= 0
	default:
		return false
	}
}

// Kind discriminates predicate nodes.
type Kind uint8

// Predicate node kinds.
const (
	KCmp Kind = iota
	KAnd
	KOr
	KNot
	KTrue
	KLike
)

// Pred is a predicate tree node. Leaves (KCmp) compare a column against a
// constant; interior nodes combine children. The zero value is not valid;
// use the constructors.
type Pred struct {
	Kind Kind
	Col  string
	Op   Op
	Val  storage.Value
	Kids []*Pred
}

// Cmp builds a comparison leaf: col op val.
func Cmp(col string, op Op, val storage.Value) *Pred {
	return &Pred{Kind: KCmp, Col: col, Op: op, Val: val}
}

// Like builds a SQL LIKE leaf: % matches any sequence, _ any single byte.
func Like(col, pattern string) *Pred {
	return &Pred{Kind: KLike, Col: col, Val: storage.String_(pattern)}
}

// In builds col IN (vals...): a disjunction of equalities.
func In(col string, vals ...storage.Value) *Pred {
	if len(vals) == 1 {
		return Cmp(col, EQ, vals[0])
	}
	terms := make([]*Pred, len(vals))
	for i, v := range vals {
		terms[i] = Cmp(col, EQ, v)
	}
	return Or(terms...)
}

// Between builds lo <= col < hi, the half-open range convention used by the
// cracking literature.
func Between(col string, lo, hi storage.Value) *Pred {
	return And(Cmp(col, GE, lo), Cmp(col, LT, hi))
}

// And combines predicates conjunctively.
func And(kids ...*Pred) *Pred { return &Pred{Kind: KAnd, Kids: kids} }

// Or combines predicates disjunctively.
func Or(kids ...*Pred) *Pred { return &Pred{Kind: KOr, Kids: kids} }

// Not negates a predicate.
func Not(k *Pred) *Pred { return &Pred{Kind: KNot, Kids: []*Pred{k}} }

// True matches every row.
func True() *Pred { return &Pred{Kind: KTrue} }

// String renders the predicate as SQL-ish text.
func (p *Pred) String() string {
	if p == nil {
		return "TRUE"
	}
	switch p.Kind {
	case KTrue:
		return "TRUE"
	case KCmp:
		v := p.Val.String()
		if p.Val.Typ == storage.TString {
			v = "'" + v + "'"
		}
		return fmt.Sprintf("%s %s %s", p.Col, p.Op, v)
	case KLike:
		return fmt.Sprintf("%s LIKE '%s'", p.Col, p.Val.S)
	case KNot:
		return "NOT (" + p.Kids[0].String() + ")"
	case KAnd, KOr:
		sep := " AND "
		if p.Kind == KOr {
			sep = " OR "
		}
		parts := make([]string, len(p.Kids))
		for i, k := range p.Kids {
			parts[i] = k.String()
			if k.Kind == KAnd || k.Kind == KOr {
				parts[i] = "(" + parts[i] + ")"
			}
		}
		return strings.Join(parts, sep)
	default:
		return "?"
	}
}

// Columns returns the distinct column names the predicate references.
func (p *Pred) Columns() []string {
	seen := map[string]bool{}
	var out []string
	var walk func(*Pred)
	walk = func(q *Pred) {
		if q == nil {
			return
		}
		if (q.Kind == KCmp || q.Kind == KLike) && !seen[q.Col] {
			seen[q.Col] = true
			out = append(out, q.Col)
		}
		for _, k := range q.Kids {
			walk(k)
		}
	}
	walk(p)
	return out
}

// Validate checks that every referenced column exists in the schema.
func (p *Pred) Validate(schema storage.Schema) error {
	for _, c := range p.Columns() {
		if schema.Index(c) < 0 {
			return fmt.Errorf("%q: %w", c, ErrUnknownColumn)
		}
	}
	return nil
}

// Matches reports whether row i of t satisfies the predicate, exactly as
// FilterRange decides it: it is the row-at-a-time evaluator for predicates
// the kernel cannot compile. Unknown columns evaluate to false.
func (p *Pred) Matches(t *storage.Table, i int) bool {
	if p == nil {
		return true
	}
	switch p.Kind {
	case KTrue:
		return true
	case KCmp:
		c, err := t.ColumnByName(p.Col)
		if err != nil {
			return false
		}
		return cmpVerdict(p.Op, c.Value(i), p.Val)
	case KLike:
		c, err := t.ColumnByName(p.Col)
		if err != nil {
			return false
		}
		return likeMatch(c.Value(i).String(), p.Val.S)
	case KAnd:
		for _, k := range p.Kids {
			if !k.Matches(t, i) {
				return false
			}
		}
		return true
	case KOr:
		for _, k := range p.Kids {
			if k.Matches(t, i) {
				return true
			}
		}
		return false
	case KNot:
		return !p.Kids[0].Matches(t, i)
	default:
		return false
	}
}

// cmpVerdict decides "v op val" with FilterRange's typed semantics: INT
// against INT exactly in int64, a FLOAT against a numeric constant as a raw
// float64 comparison (so a NaN, the engine's NULL, satisfies only <>), and
// every other pairing by Value.Compare.
func cmpVerdict(op Op, v, val storage.Value) bool {
	switch {
	case v.Typ == storage.TInt && val.Typ == storage.TInt:
		return op.apply(cmp.Compare(v.I, val.I))
	case v.Typ == storage.TFloat && val.IsNumeric():
		return floatVerdict(op, v.F, val.AsFloat())
	default:
		return op.apply(v.Compare(val))
	}
}

// floatVerdict is the raw float64 comparison of the FloatColumn paths: a
// NaN on either side satisfies NE and nothing else.
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

// dictVerdicts decides a comparison or LIKE leaf once per dictionary
// entry. Boxed Compare gives the same cross-type ordering as the plain
// string column paths.
func dictVerdicts(c *storage.DictColumn, p *Pred) []bool {
	dict := c.Dict()
	match := make([]bool, len(dict))
	for code, s := range dict {
		if p.Kind == KLike {
			match[code] = likeMatch(s, p.Val.S)
		} else {
			match[code] = p.Op.apply(storage.String_(s).Compare(p.Val))
		}
	}
	return match
}

// Filter returns the row positions of t that satisfy p, in ascending order.
// It evaluates column-at-a-time into a boolean vector with typed fast paths
// for comparison leaves, then collects positions.
func Filter(t *storage.Table, p *Pred) ([]int, error) {
	return FilterRange(t, p, 0, t.NumRows())
}

// FilterRange is Filter restricted to rows [lo, hi): it returns the
// positions in that range that satisfy p, in ascending order. It is the
// per-morsel unit of the parallel scan — each morsel evaluates its own
// range and the selection vectors concatenate back into row order.
func FilterRange(t *storage.Table, p *Pred, lo, hi int) ([]int, error) {
	if hi > t.NumRows() {
		hi = t.NumRows()
	}
	if lo < 0 {
		lo = 0
	}
	if lo >= hi {
		return nil, nil
	}
	if p == nil || p.Kind == KTrue {
		out := make([]int, hi-lo)
		for i := range out {
			out[i] = lo + i
		}
		return out, nil
	}
	if err := p.Validate(t.Schema()); err != nil {
		return nil, err
	}
	bits, err := evalVector(t, p, lo, hi)
	if err != nil {
		return nil, err
	}
	out := make([]int, 0, (hi-lo)/4)
	for i, b := range bits {
		if b {
			out = append(out, lo+i)
		}
	}
	return out, nil
}

// Count returns how many rows of t satisfy p.
func Count(t *storage.Table, p *Pred) (int, error) {
	sel, err := Filter(t, p)
	if err != nil {
		return 0, err
	}
	return len(sel), nil
}

// evalVector evaluates p over rows [lo, hi) into a boolean vector whose
// index 0 corresponds to row lo.
func evalVector(t *storage.Table, p *Pred, lo, hi int) ([]bool, error) {
	n := hi - lo
	switch p.Kind {
	case KTrue:
		out := make([]bool, n)
		for i := range out {
			out[i] = true
		}
		return out, nil
	case KCmp:
		return evalCmp(t, p, lo, hi)
	case KLike:
		return evalLike(t, p, lo, hi)
	case KNot:
		out, err := evalVector(t, p.Kids[0], lo, hi)
		if err != nil {
			return nil, err
		}
		for i := range out {
			out[i] = !out[i]
		}
		return out, nil
	case KAnd, KOr:
		var acc []bool
		for _, k := range p.Kids {
			v, err := evalVector(t, k, lo, hi)
			if err != nil {
				return nil, err
			}
			if acc == nil {
				acc = v
				continue
			}
			if p.Kind == KAnd {
				for i := range acc {
					acc[i] = acc[i] && v[i]
				}
			} else {
				for i := range acc {
					acc[i] = acc[i] || v[i]
				}
			}
		}
		if acc == nil {
			acc = make([]bool, n)
			if p.Kind == KAnd {
				for i := range acc {
					acc[i] = true
				}
			}
		}
		return acc, nil
	default:
		return nil, fmt.Errorf("expr: bad predicate kind %d", p.Kind)
	}
}

func evalCmp(t *storage.Table, p *Pred, lo, hi int) ([]bool, error) {
	c, err := t.ColumnByName(p.Col)
	if err != nil {
		return nil, err
	}
	out := make([]bool, hi-lo)
	switch cc := c.(type) {
	case *storage.IntColumn:
		if p.Val.Typ == storage.TInt {
			v, op := p.Val.I, p.Op
			vals := cc.V[lo:hi]
			switch op {
			case LT:
				for i, x := range vals {
					out[i] = x < v
				}
			case LE:
				for i, x := range vals {
					out[i] = x <= v
				}
			case GT:
				for i, x := range vals {
					out[i] = x > v
				}
			case GE:
				for i, x := range vals {
					out[i] = x >= v
				}
			case EQ:
				for i, x := range vals {
					out[i] = x == v
				}
			case NE:
				for i, x := range vals {
					out[i] = x != v
				}
			}
			return out, nil
		}
	case *storage.FloatColumn:
		if p.Val.IsNumeric() {
			v, op := p.Val.AsFloat(), p.Op
			vals := cc.V[lo:hi]
			switch op {
			case LT:
				for i, x := range vals {
					out[i] = x < v
				}
			case LE:
				for i, x := range vals {
					out[i] = x <= v
				}
			case GT:
				for i, x := range vals {
					out[i] = x > v
				}
			case GE:
				for i, x := range vals {
					out[i] = x >= v
				}
			case EQ:
				for i, x := range vals {
					out[i] = x == v
				}
			case NE:
				for i, x := range vals {
					out[i] = x != v
				}
			}
			return out, nil
		}
	case *storage.StringColumn:
		if p.Val.Typ == storage.TString {
			v, op := p.Val.S, p.Op
			for i, x := range cc.V[lo:hi] {
				out[i] = op.apply(strings.Compare(x, v))
			}
			return out, nil
		}
	case *storage.DictColumn:
		// Evaluate the predicate once per dictionary entry, then match rows
		// on codes.
		match := dictVerdicts(cc, p)
		for i, code := range cc.Codes()[lo:hi] {
			out[i] = match[code]
		}
		return out, nil
	case *storage.RLEIntColumn:
		// Evaluate once per run; accept or reject the whole overlap.
		cc.ForEachRun(lo, hi, func(x int64, rlo, rhi int) {
			if cmpVerdict(p.Op, storage.Int(x), p.Val) {
				for i := rlo; i < rhi; i++ {
					out[i-lo] = true
				}
			}
		})
		return out, nil
	}
	// Generic slow path for cross-type comparisons.
	for i := lo; i < hi; i++ {
		out[i-lo] = p.Op.apply(c.Value(i).Compare(p.Val))
	}
	return out, nil
}

func evalLike(t *storage.Table, p *Pred, lo, hi int) ([]bool, error) {
	c, err := t.ColumnByName(p.Col)
	if err != nil {
		return nil, err
	}
	out := make([]bool, hi-lo)
	pat := p.Val.S
	if sc, ok := c.(*storage.StringColumn); ok {
		for i, s := range sc.V[lo:hi] {
			out[i] = likeMatch(s, pat)
		}
		return out, nil
	}
	if dc, ok := c.(*storage.DictColumn); ok {
		// Match the pattern once per dictionary entry, then map codes.
		match := dictVerdicts(dc, p)
		for i, code := range dc.Codes()[lo:hi] {
			out[i] = match[code]
		}
		return out, nil
	}
	for i := lo; i < hi; i++ {
		out[i-lo] = likeMatch(c.Value(i).String(), pat)
	}
	return out, nil
}

// likeMatch implements SQL LIKE over bytes: '%' matches any sequence,
// '_' any single byte. Iterative two-pointer algorithm with backtracking
// to the last '%'.
func likeMatch(s, pat string) bool {
	si, pi := 0, 0
	star, ss := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pat) && (pat[pi] == '_' || pat[pi] == s[si]):
			si++
			pi++
		case pi < len(pat) && pat[pi] == '%':
			star, ss = pi, si
			pi++
		case star >= 0:
			ss++
			si, pi = ss, star+1
		default:
			return false
		}
	}
	for pi < len(pat) && pat[pi] == '%' {
		pi++
	}
	return pi == len(pat)
}
