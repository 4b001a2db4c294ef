// Package aqp implements approximate query processing in the style the
// tutorial's middleware section surveys (Aqua [5], BlinkDB [6,7]):
// aggregate queries run against pre-built uniform or stratified samples and
// return estimates with confidence intervals, and a planner picks the
// cheapest sample that satisfies a user error bound or row budget — the
// "queries with bounded errors and bounded response times" contract.
package aqp

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"dex/internal/exec"
	"dex/internal/expr"
	"dex/internal/metrics"
	"dex/internal/storage"
)

// Package-level sentinel errors.
var (
	ErrUnsupportedAgg = errors.New("aqp: unsupported aggregate")
	ErrNoSample       = errors.New("aqp: no sample satisfies the bound")
	ErrBadQuery       = errors.New("aqp: malformed query")
)

// Query is the aggregate query shape the AQP layer accepts: one aggregate
// over one measure column, an optional predicate, an optional single
// grouping column.
type Query struct {
	Agg     exec.AggFunc
	Col     string // measure column; "" or "*" for COUNT
	Where   *expr.Pred
	GroupBy string // optional
}

// String renders the query.
func (q Query) String() string {
	s := fmt.Sprintf("%s(%s)", q.Agg, q.Col)
	if q.Where != nil {
		s += " WHERE " + q.Where.String()
	}
	if q.GroupBy != "" {
		s += " GROUP BY " + q.GroupBy
	}
	return s
}

// GroupEstimate is one output row: the group key (zero Value when the query
// has no GROUP BY), the estimate, and the 95% confidence half-width
// (0 for exact execution, +Inf when the aggregate is not estimable from a
// sample, e.g. MIN/MAX).
type GroupEstimate struct {
	Group storage.Value
	Est   float64
	CI    float64
	N     int // contributing sample (or base) rows
}

// RelCI returns CI/|Est| (the relative error bound), or +Inf for Est==0.
func (g GroupEstimate) RelCI() float64 {
	if g.Est == 0 {
		if g.CI == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return g.CI / math.Abs(g.Est)
}

// Exact computes the query on the full table; CIs are zero.
func Exact(t *storage.Table, q Query) ([]GroupEstimate, error) {
	return OnView(t, nil, q)
}

// OnView computes estimates from a sampled view: view must hold the sampled
// rows and weights[i] the expansion weight of view row i, which already
// carries the scale — row i is one of len(weights) draws. Nil weights say
// the view is the population itself: weight 1, no draws, zero intervals.
func OnView(view *storage.Table, weights []float64, q Query) ([]GroupEstimate, error) {
	est, err := NewEstimator(view, q)
	if err != nil {
		return nil, err
	}
	sel, err := expr.Filter(view, q.Where)
	if err != nil {
		return nil, err
	}
	est.AddRows(sel, weights)
	return est.Estimates(float64(len(weights)), 1), nil
}

// Estimator is the one estimate accumulator of the middleware lane: AQP
// over a stored sample, online aggregation over a shuffled prefix and index
// striding over per-group prefixes all answer from a random sample with a
// CLT interval, and differ only in who picks the rows and in the (k, scale)
// they render with. Callers evaluate the predicate and hand the qualifying
// rows to AddRows, which reads the group and measure columns' raw storage;
// groups come back ordered by key.
type Estimator struct {
	agg    exec.AggFunc
	meas   column // the measure; colNone for COUNT(*)
	grp    column // the group key; colNone without GROUP BY
	slots  []int  // dictionary group column: group id by code, -1 unseen
	numIDs map[uint64]int
	strIDs map[string]int
	groups []groupAcc // by id, in first-seen order
	order  []int      // ids by ascending key; re-sorted once groups outgrow it
}

// colKind says how a bound column's rows are read.
type colKind uint8

const (
	colNone colKind = iota
	colInt
	colFloat
	colRLE
	colDict
	colString
)

// column is one input column bound to its raw storage once per query, so
// reading a row is a slice load rather than a boxed Column.Value.
type column struct {
	kind  colKind
	i64   []int64
	f64   []float64
	codes []int32
	strs  []string // the dictionary for colDict, the values for colString
	cur   storage.RLECursor
}

// bind binds c; a nil c binds colNone.
func bind(c storage.Column) column {
	switch cc := c.(type) {
	case nil:
		return column{}
	case *storage.IntColumn:
		return column{kind: colInt, i64: cc.V}
	case *storage.FloatColumn:
		return column{kind: colFloat, f64: cc.V}
	case *storage.RLEIntColumn:
		return column{kind: colRLE, cur: cc.Cursor()}
	case *storage.DictColumn:
		return column{kind: colDict, codes: cc.Codes(), strs: cc.Dict()}
	case *storage.StringColumn:
		return column{kind: colString, strs: cc.V}
	default:
		panic(fmt.Sprintf("aqp: no reader for column type %T", c))
	}
}

// measure returns row's measure and false when it is NULL (NaN). A TEXT
// measure reads 0, as Value.AsFloat does; only COUNT, MIN and MAX take one.
func (c *column) measure(row int) (float64, bool) {
	switch c.kind {
	case colFloat:
		x := c.f64[row]
		return x, x == x
	case colInt:
		return float64(c.i64[row]), true
	case colRLE:
		return float64(c.cur.At(row)), true
	default:
		return 0, true
	}
}

// nullBits is the one key every NaN of a FLOAT group column maps to: the
// NULL group, as Value.String's "NaN" made it.
var nullBits = math.Float64bits(math.NaN())

// groupAcc holds one group's sums over the rows added so far; a NULL
// measure adds to none of them. A draw's contribution is y = w·x for SUM
// and y = w for COUNT, so Σy is wx or wsum and only Σy² needs its own sum.
type groupAcc struct {
	key    string
	val    storage.Value
	n      int            // qualifying rows, NULL measures included
	wsum   float64        // Σ w: COUNT, and AVG's denominator
	wx     float64        // Σ w·x: SUM, and AVG's numerator
	sumY2  float64        // Σ y²
	stream metrics.Stream // the non-NULL measures: AVG interval, MIN, MAX
}

// NewEstimator validates q against t and returns an empty accumulator
// bound to t's group and measure columns.
func NewEstimator(t *storage.Table, q Query) (*Estimator, error) {
	e := &Estimator{agg: q.Agg}
	switch q.Agg {
	case exec.AggCount, exec.AggSum, exec.AggAvg, exec.AggMin, exec.AggMax:
	case exec.AggNone:
		return nil, fmt.Errorf("missing aggregate: %w", ErrBadQuery)
	default:
		return nil, fmt.Errorf("%v: %w", q.Agg, ErrUnsupportedAgg)
	}
	if q.Agg != exec.AggCount || (q.Col != "" && q.Col != "*") {
		mcol, err := t.ColumnByName(q.Col)
		if err != nil {
			return nil, err
		}
		if mcol.Type() == storage.TString && (q.Agg == exec.AggSum || q.Agg == exec.AggAvg) {
			return nil, fmt.Errorf("%s over TEXT column %q: %w", q.Agg, q.Col, ErrUnsupportedAgg)
		}
		e.meas = bind(mcol)
	}
	if q.GroupBy != "" {
		gcol, err := t.ColumnByName(q.GroupBy)
		if err != nil {
			return nil, err
		}
		e.grp = bind(gcol)
		switch e.grp.kind {
		case colDict:
			e.slots = make([]int, len(e.grp.strs))
			for i := range e.slots {
				e.slots[i] = -1
			}
		case colString:
			e.strIDs = map[string]int{}
		default:
			e.numIDs = map[uint64]int{}
		}
	}
	if q.Where != nil {
		if err := q.Where.Validate(t.Schema()); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// AddRows folds the rows, in order, into their groups. Every row must
// satisfy the query's predicate: callers filter. w holds each row's
// expansion weight by row id; nil weighs every row 1. A NaN measure is the
// engine's NULL and follows exec's rules: the row still belongs to its
// group (and counts for COUNT(*)), but SUM, AVG, MIN, MAX and COUNT(col)
// ignore it.
func (e *Estimator) AddRows(rows []int, w []float64) {
	sum := e.agg == exec.AggSum
	for _, row := range rows {
		a := &e.groups[e.group(row)]
		a.n++
		x, ok := e.meas.measure(row)
		if !ok {
			continue
		}
		wt := 1.0
		if w != nil {
			wt = w[row]
		}
		y := wt
		if sum {
			y = wt * x
		}
		a.wsum += wt
		a.wx += wt * x
		a.sumY2 += y * y
		a.stream.Add(x)
	}
}

// GroupIDs returns the group id of each row, registering unseen groups
// without adding the rows to them.
func (e *Estimator) GroupIDs(rows []int) []int {
	ids := make([]int, len(rows))
	for i, row := range rows {
		ids[i] = e.group(row)
	}
	return ids
}

// group returns the id of row's group, registering the group on first
// sight; ids are dense and count up in first-seen order. Dictionary codes
// index a slot, numbers key a map by their bits, and only a plain TEXT
// column is keyed by its strings.
func (e *Estimator) group(row int) int {
	g := &e.grp
	switch g.kind {
	case colNone:
		if len(e.groups) == 0 {
			return e.register(storage.Value{})
		}
		return 0
	case colDict:
		code := g.codes[row]
		if id := e.slots[code]; id >= 0 {
			return id
		}
		id := e.register(storage.String_(g.strs[code]))
		e.slots[code] = id
		return id
	case colString:
		s := g.strs[row]
		if id, ok := e.strIDs[s]; ok {
			return id
		}
		id := e.register(storage.String_(s))
		e.strIDs[s] = id
		return id
	default: // colInt, colRLE, colFloat
		var bits uint64
		switch g.kind {
		case colInt:
			bits = uint64(g.i64[row])
		case colRLE:
			bits = uint64(g.cur.At(row))
		default:
			if bits = math.Float64bits(g.f64[row]); g.f64[row] != g.f64[row] {
				bits = nullBits
			}
		}
		if id, ok := e.numIDs[bits]; ok {
			return id
		}
		val := storage.Int(int64(bits))
		if g.kind == colFloat {
			val = storage.Float(g.f64[row])
		}
		id := e.register(val)
		e.numIDs[bits] = id
		return id
	}
}

// register adds an empty group for val and returns its id.
func (e *Estimator) register(val storage.Value) int {
	e.groups = append(e.groups, groupAcc{key: val.String(), val: val})
	return len(e.groups) - 1
}

// Order returns the group ids by ascending key, the order Estimates lists
// them in.
func (e *Estimator) Order() []int {
	if len(e.order) != len(e.groups) {
		for id := len(e.order); id < len(e.groups); id++ {
			e.order = append(e.order, id)
		}
		sort.Slice(e.order, func(i, j int) bool { return e.groups[e.order[i]].key < e.groups[e.order[j]].key })
	}
	return e.order
}

// Estimates renders every group with the same (k, scale); see EstimatesBy.
func (e *Estimator) Estimates(k, scale float64) []GroupEstimate {
	return e.EstimatesBy(func(int) (float64, float64) { return k, scale })
}

// EstimatesBy renders the current estimates, asking draws for each group's
// (k, scale): the added rows are the qualifying ones among k random draws,
// each standing for scale·w population rows. k = 0 says the rows are the
// population itself, so every interval is zero.
//
//	AQP sample      k = sample rows        scale = 1 (w is the expansion weight)
//	online prefix   k = m rows processed   scale = N/m
//	index striding  k = m_g rows of g      scale = N_g/m_g, per group
//
// SUM and COUNT are the Hansen-Hurwitz estimator: draw i contributes
// t_i = k·scale·y_i (0 when it fails the predicate, falls outside the group
// or is NULL), the estimate is mean(t_i) = scale·Σy and the interval is the
// CLT one over the k draws, zeros included. AVG is the weighted group mean
// with the CLT interval of the group's own values (unbounded until there
// are two); MIN and MAX report the sample extreme, whose error a sample
// cannot bound.
func (e *Estimator) EstimatesBy(draws func(id int) (k, scale float64)) []GroupEstimate {
	out := make([]GroupEstimate, 0, len(e.groups))
	for _, id := range e.Order() {
		k, scale := draws(id)
		out = append(out, e.Estimate(id, k, scale))
	}
	return out
}

// Len returns the number of groups seen so far; their ids are 0..Len()-1.
func (e *Estimator) Len() int { return len(e.groups) }

// Estimate renders group id alone with (k, scale), as EstimatesBy would,
// for callers that inspect estimates without keeping them.
func (e *Estimator) Estimate(id int, k, scale float64) GroupEstimate {
	a := &e.groups[id]
	ge := GroupEstimate{Group: a.val, N: a.n}
	switch e.agg {
	case exec.AggCount, exec.AggSum:
		sumY := a.wsum
		if e.agg == exec.AggSum {
			sumY = a.wx
		}
		ge.Est = scale * sumY
		if k > 1 {
			// s² of the t_i: Σt² = (k·scale)²·Σy², Σt = k·scale·Σy.
			s2 := scale * scale * (k*k*a.sumY2 - k*sumY*sumY) / (k - 1)
			ge.CI = metrics.Z95 * math.Sqrt(math.Max(s2, 0)/k)
		}
	case exec.AggAvg:
		ge.Est = a.wx / a.wsum // NaN (NULL) for a group of NULLs, as exec
		if k > 0 {
			ge.CI = a.stream.MeanCI(metrics.Z95)
			if a.stream.N() < 2 {
				ge.CI = math.Inf(1)
			}
		}
	default: // MIN, MAX
		ge.Est = math.NaN()
		if a.stream.N() > 0 {
			ge.Est = a.stream.Min()
			if e.agg == exec.AggMax {
				ge.Est = a.stream.Max()
			}
		}
		if k > 0 {
			ge.CI = math.Inf(1)
		}
	}
	return ge
}
