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
	"dex/internal/rsum"
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
	return est.Estimates(float64(len(weights)), 1, 0), nil
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
// The exact stratum — the cells AddCell folds — keeps its own sums beside
// them, which render with k = 0.
type groupAcc struct {
	key    string
	val    storage.Value
	n      int            // qualifying rows, NULL measures included
	wsum   float64        // Σ w: COUNT, and AVG's denominator
	wx     float64        // Σ w·x: SUM, and AVG's numerator
	sumY2  float64        // Σ y²
	stream metrics.Stream // the non-NULL measures: AVG interval, MIN, MAX
	exact  stratum        // the cells' rows
}

// stratum is the exact stratum of one group: the rows of the cells folded
// into it, what COUNT counts of them (every row, or the non-NULL
// measures), the measures' sum, merged as the cells keep it, and, once
// n > 0, their extremes.
type stratum struct {
	rows, n  int
	count    float64
	sum      rsum.Sum
	min, max float64
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
	if q.GroupBy == "" {
		// A scalar aggregate has one group whether or not a row qualifies:
		// COUNT 0, SUM 0 and a NULL AVG, MIN or MAX, as exec answers.
		e.register(storage.Value{})
	} else {
		gcol, err := t.ColumnByName(q.GroupBy)
		if err != nil {
			return nil, err
		}
		e.grp = bind(gcol)
		switch e.grp.kind {
		case colDict:
			// The dictionary bounds the groups: one allocation holds them.
			e.slots = make([]int, len(e.grp.strs))
			e.groups = make([]groupAcc, 0, len(e.grp.strs))
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

// AddCell folds one bucket cell of the table's rows into the exact
// stratum of its group — the only group without GROUP BY, else the one of
// the dictionary code c.Group. Every row of the cell must satisfy the
// query's predicate. COUNT takes the cell's rows over a column that holds
// no NULL and its non-NULL count over a FLOAT; SUM and AVG its sum; MIN
// and MAX the measure at its extremes' rows. An empty cell leaves its
// group unseen.
func (e *Estimator) AddCell(c *storage.Cell) {
	if c.Rows == 0 {
		return
	}
	id := 0
	if e.grp.kind == colDict {
		code := c.Group
		if id = e.slots[code]; id < 0 {
			id = e.register(storage.String_(e.grp.strs[code]))
			e.slots[code] = id
		}
	}
	s := &e.groups[id].exact
	s.rows += c.Rows
	if e.meas.kind != colFloat {
		s.count += float64(c.Rows)
	} else {
		s.count += float64(c.N)
	}
	if c.N == 0 || e.meas.kind == colNone {
		return
	}
	lo, _ := e.meas.measure(c.MinRow)
	hi, _ := e.meas.measure(c.MaxRow)
	if s.n == 0 || lo < s.min {
		s.min = lo
	}
	if s.n == 0 || hi > s.max {
		s.max = hi
	}
	s.n += c.N
	s.sum.Merge(&c.Sum)
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

// Estimates renders every group with the same (k, scale, n); see
// EstimatesBy.
func (e *Estimator) Estimates(k, scale, n float64) []GroupEstimate {
	return e.EstimatesBy(func(int) (float64, float64, float64) { return k, scale, n })
}

// EstimatesBy renders the current estimates, asking draws for each group's
// (k, scale, n): the added rows are the qualifying ones among k random
// draws, each standing for scale·w population rows. k = 0 says the rows are
// the population itself, so every interval is zero. n > 0 says the draws
// are k of a population of n rows, drawn without replacement: the CLT
// intervals over the k draws — SUM's, COUNT's and the delta method's of an
// AVG beside an exact stratum — take the finite-population correction
// 1 − k/n of their variance, so a walk that has read every row reports 0.
// n = 0 says there is no such population (weighted draws), and no
// correction applies.
//
//	AQP sample      k = sample rows        scale = 1 (w is the expansion weight)         n = 0
//	online prefix   k = m rows processed   scale = N/m                                   n = N
//	index striding  k = m_g rows of g      scale = N_g/m_g, per group                    n = N_g
//	online edges    k = m edge rows read   scale = N_edge/m, beside the exact stratum    n = N_edge
//
// SUM and COUNT are the Hansen-Hurwitz estimator: draw i contributes
// t_i = k·scale·y_i (0 when it fails the predicate, falls outside the group
// or is NULL), the estimate is mean(t_i) = scale·Σy and the interval is the
// CLT one over the k draws, zeros included. AVG is the weighted group mean
// with the CLT interval of the group's own values (unbounded until there
// are two); MIN and MAX report the sample extreme, whose error a sample
// cannot bound.
//
// The exact stratum (AddCell) renders with k = 0: it adds its count or sum
// to the estimate and nothing to the interval. AVG beside it is the ratio
// (S + scale·Σw·x) / (C + scale·Σw) of the two strata's sums and counts,
// and its interval the delta method's: the CLT interval of the draws'
// d_i = k·scale·(a_i − R·b_i), a_i the measure and b_i 1 for a draw that
// is a non-NULL row of the group, over the estimated count. MIN and MAX
// are the extreme of both strata, unbounded while an unread draw remains.
// The draws beside an exact stratum carry weight 1. An interval an
// infinite measure makes NaN is unbounded.
func (e *Estimator) EstimatesBy(draws func(id int) (k, scale, n float64)) []GroupEstimate {
	out := make([]GroupEstimate, 0, len(e.groups))
	for _, id := range e.Order() {
		k, scale, n := draws(id)
		out = append(out, e.Estimate(id, k, scale, n))
	}
	return out
}

// Len returns the number of groups seen so far; their ids are 0..Len()-1.
func (e *Estimator) Len() int { return len(e.groups) }

// Estimate renders group id alone with (k, scale, n), as EstimatesBy
// would, for callers that inspect estimates without keeping them.
func (e *Estimator) Estimate(id int, k, scale, n float64) GroupEstimate {
	a := &e.groups[id]
	ex := &a.exact
	ge := GroupEstimate{Group: a.val, N: a.n + ex.rows}
	fpc := 1.0 // the finite-population correction of the variance
	if n > 0 {
		fpc = math.Max(1-k/n, 0)
	}
	switch e.agg {
	case exec.AggCount, exec.AggSum:
		sumY, exY := a.wsum, ex.count
		if e.agg == exec.AggSum {
			sumY, exY = a.wx, ex.sum.Float64()
		}
		ge.Est = scale*sumY + exY
		if k > 1 {
			// s² of the t_i: Σt² = (k·scale)²·Σy², Σt = k·scale·Σy.
			s2 := scale * scale * (k*k*a.sumY2 - k*sumY*sumY) / (k - 1)
			ge.CI = metrics.Z95 * math.Sqrt(math.Max(s2, 0)/k*fpc)
		}
	case exec.AggAvg:
		if ex.rows == 0 {
			ge.Est = a.wx / a.wsum // NaN (NULL) for a group of NULLs, as exec
			if k > 0 {
				ge.CI = a.stream.MeanCI(metrics.Z95)
				if a.stream.N() < 2 {
					ge.CI = math.Inf(1)
				}
			}
			break
		}
		c := ex.count + scale*a.wsum
		ge.Est = (ex.sum.Float64() + scale*a.wx) / c
		switch {
		case k > 1 && c > 0:
			// Σd = Σa − R·Σb; Σd² = Σ(x − R)² over the non-NULL rows,
			// Welford's m2 plus n·(mean − R)².
			r, nb := ge.Est, float64(a.stream.N())
			sumD := a.wx - r*a.wsum
			dm := a.stream.Mean() - r
			sumD2 := a.stream.Variance()*math.Max(nb-1, 0) + nb*dm*dm
			s2 := scale * scale * (k*k*sumD2 - k*sumD*sumD) / (k - 1)
			ge.CI = metrics.Z95 * math.Sqrt(math.Max(s2, 0)/k*fpc) / c
		case k > 0:
			ge.CI = math.Inf(1)
		}
	default: // MIN, MAX
		ge.Est = math.NaN()
		if a.stream.N() > 0 {
			ge.Est = a.stream.Min()
			if e.agg == exec.AggMax {
				ge.Est = a.stream.Max()
			}
		}
		if ex.n > 0 {
			switch {
			case e.agg == exec.AggMin && !(ge.Est < ex.min):
				ge.Est = ex.min
			case e.agg == exec.AggMax && !(ge.Est > ex.max):
				ge.Est = ex.max
			}
		}
		if k > 0 {
			ge.CI = math.Inf(1)
		}
	}
	if ge.CI != ge.CI {
		ge.CI = math.Inf(1) // an infinite measure's spread: no bound
	}
	return ge
}
