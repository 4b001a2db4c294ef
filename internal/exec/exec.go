// Package exec implements the relational operators of the engine: filtered
// scans, projection, aggregation, hash group-by, hash join, order-by and
// limit, composed through a declarative Query value. Execution is fully
// materialized, column-at-a-time — the style of the main-memory column
// stores targeted by the adaptive-indexing literature.
package exec

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"dex/internal/expr"
	"dex/internal/rsum"
	"dex/internal/storage"
)

// Package-level sentinel errors.
var (
	ErrEmptySelect  = errors.New("exec: empty select list")
	ErrBadAggregate = errors.New("exec: aggregate over non-numeric column")
	ErrMixedSelect  = errors.New("exec: plain column in aggregate query must appear in GROUP BY")
)

// AggFunc identifies an aggregate function.
type AggFunc uint8

// Supported aggregates. AggNone marks a plain column reference.
const (
	AggNone AggFunc = iota
	AggCount
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String returns the SQL name of the aggregate.
func (a AggFunc) String() string {
	switch a {
	case AggNone:
		return ""
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return fmt.Sprintf("AggFunc(%d)", uint8(a))
	}
}

// SelectItem is one output expression: a plain column (AggNone) or an
// aggregate over a column. For AggCount the column may be "*".
type SelectItem struct {
	Col string
	Agg AggFunc
	As  string // optional output name
}

// Name returns the output column name for the item.
func (s SelectItem) Name() string {
	if s.As != "" {
		return s.As
	}
	if s.Agg == AggNone {
		return s.Col
	}
	return fmt.Sprintf("%s(%s)", strings.ToLower(s.Agg.String()), s.Col)
}

// OrderKey is one ORDER BY key.
type OrderKey struct {
	Col  string
	Desc bool
}

// Query is a declarative single-table query:
// SELECT items FROM t WHERE pred GROUP BY cols ORDER BY keys LIMIT n.
type Query struct {
	Select  []SelectItem
	Where   *expr.Pred
	GroupBy []string
	// Having filters the grouped output; it references output column names
	// (e.g. "sum(amount)" or the alias).
	Having  *expr.Pred
	OrderBy []OrderKey
	Limit   int // 0 means no limit
}

// HasAggregates reports whether any select item is an aggregate.
func (q Query) HasAggregates() bool {
	for _, s := range q.Select {
		if s.Agg != AggNone {
			return true
		}
	}
	return false
}

// String renders the query as SQL-ish text (for logs and session history).
func (q Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, s := range q.Select {
		if i > 0 {
			b.WriteString(", ")
		}
		if s.Agg == AggNone {
			b.WriteString(s.Col)
		} else {
			fmt.Fprintf(&b, "%s(%s)", s.Agg, s.Col)
		}
	}
	if q.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(q.Where.String())
	}
	if len(q.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		b.WriteString(strings.Join(q.GroupBy, ", "))
	}
	if q.Having != nil {
		b.WriteString(" HAVING ")
		b.WriteString(q.Having.String())
	}
	for i, k := range q.OrderBy {
		if i == 0 {
			b.WriteString(" ORDER BY ")
		} else {
			b.WriteString(", ")
		}
		b.WriteString(k.Col)
		if k.Desc {
			b.WriteString(" DESC")
		}
	}
	if q.Limit > 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.Limit)
	}
	return b.String()
}

// Execute is the reference evaluator: sequential, boxed, one operator at a
// time over a fully materialized selection vector. Nothing serves queries
// through it — ExecuteCtx's pipeline does — it is the oracle the
// differential fuzzers, the parity matrices and the benchmark's answer
// check hold the pipeline equal to, so it shares only the leaf pieces
// (aggState, groupTable, projection, having) with what it certifies. Its
// ORDER BY is Table.SortBy, the boxed stable sort under Value.Order, one
// key at a time — independent of the typed comparator the pipeline and
// finish sort with.
func Execute(t *storage.Table, q Query) (*storage.Table, error) {
	if len(q.Select) == 0 {
		return nil, ErrEmptySelect
	}
	sel, err := expr.Filter(t, q.Where)
	if err != nil {
		return nil, err
	}
	var out *storage.Table
	switch {
	case len(q.GroupBy) > 0:
		out, err = groupBy(t, sel, q)
	case q.HasAggregates():
		out, err = scalarAggregate(t, sel, q)
	default:
		var o output
		if o, err = projection(t, q); err == nil {
			out, err = o.gather(sel)
		}
	}
	if err != nil {
		return nil, err
	}
	rows, err := having(out, q)
	if err != nil {
		return nil, err
	}
	out = out.Gather(rows)
	for i := len(q.OrderBy) - 1; i >= 0; i-- { // stable multi-key sort
		if out, err = out.SortBy(q.OrderBy[i].Col, q.OrderBy[i].Desc); err != nil {
			return nil, err
		}
	}
	if q.Limit > 0 && out.NumRows() > q.Limit {
		first := make([]int, q.Limit)
		for i := range first {
			first[i] = i
		}
		out = out.Gather(first)
	}
	return out, nil
}

// aggState accumulates one aggregate over a stream of values. A float NaN
// is the engine's NULL: aggregates skip it entirely (SQL semantics —
// COUNT(col), SUM, AVG, MIN and MAX all ignore NULLs; COUNT(*) counts every
// row via addCountOnly). Skipping NaN also makes the state a commutative
// monoid under merge, which the parallel operators rely on: without it,
// MIN/MAX folds over incomparable values would depend on morsel boundaries.
// SUM and AVG keep the one order-free sum (rsum), so the state's bits do
// not depend on how its values were split or merged either.
//
// MIN and MAX keep one extreme, ext, and the input position it came from.
// Values can tie under Value.Compare and still differ — int64s past 2^53
// that meet in the float64 domain, -0 and +0 — and the sequential scan
// keeps the first one it meets. One state meets its values in ascending
// position, and merge keeps the earlier position of a tie, so the answer
// does not depend on which worker ran which morsel.
type aggState struct {
	fn    AggFunc
	has   bool // MIN/MAX: ext holds a value
	count int64
	sum   rsum.Sum      // SUM/AVG
	ext   storage.Value // MIN/MAX: the extreme so far
	at    int           // MIN/MAX: input position of ext
}

// add folds the value found at input position pos.
func (a *aggState) add(v storage.Value, pos int) {
	if v.Typ == storage.TFloat && math.IsNaN(v.F) {
		return
	}
	a.count++
	switch {
	case a.fn == AggMin || a.fn == AggMax:
		a.offer(v, pos)
	case a.fn != AggSum && a.fn != AggAvg:
	case v.Typ == storage.TInt:
		a.sum.AddInt(v.I)
	default:
		a.sum.Add(v.F)
	}
}

func (a *aggState) addCountOnly() { a.count++ }

// offer makes v, from input position pos, the extreme if it beats the
// current one, or ties it from an earlier position.
func (a *aggState) offer(v storage.Value, pos int) {
	if !a.has {
		a.ext, a.at, a.has = v, pos, true
		return
	}
	c := v.Compare(a.ext)
	if a.fn == AggMax {
		c = -c
	}
	if c < 0 || c == 0 && pos < a.at {
		a.ext, a.at = v, pos
	}
}

// merge folds another partial state (same aggregate function) into a. It is
// the combine step of parallel aggregation: each worker accumulates its own
// morsels, then partials merge pairwise.
func (a *aggState) merge(b *aggState) {
	a.count += b.count
	a.sum.Merge(&b.sum)
	if b.has {
		a.offer(b.ext, b.at)
	}
}

func (a *aggState) result() storage.Value {
	switch a.fn {
	case AggCount:
		return storage.Int(a.count)
	case AggSum:
		return storage.Float(a.sum.Float64())
	case AggAvg:
		if a.count == 0 {
			return storage.Float(math.NaN())
		}
		return storage.Float(a.sum.Float64() / float64(a.count))
	case AggMin, AggMax:
		if !a.has {
			return storage.Float(math.NaN())
		}
		return a.ext
	default:
		return storage.Value{}
	}
}

func (a *aggState) resultType() storage.Type {
	switch a.fn {
	case AggCount:
		return storage.TInt
	case AggMin, AggMax:
		if a.has {
			return a.ext.Typ
		}
		return storage.TFloat
	default:
		return storage.TFloat
	}
}

func aggColumn(t *storage.Table, item SelectItem) (storage.Column, error) {
	if item.Agg == AggCount && (item.Col == "*" || item.Col == "") {
		return nil, nil // COUNT(*) needs no input column
	}
	c, err := t.ColumnByName(item.Col)
	if err != nil {
		return nil, err
	}
	if item.Agg != AggCount && item.Agg != AggMin && item.Agg != AggMax && c.Type() == storage.TString {
		return nil, fmt.Errorf("%s(%s): %w", item.Agg, item.Col, ErrBadAggregate)
	}
	return c, nil
}

// scalarInputs validates an aggregate-only select list and resolves the
// input column of every item (nil for COUNT(*)).
func scalarInputs(t *storage.Table, q Query) ([]storage.Column, error) {
	inputs := make([]storage.Column, len(q.Select))
	for i, item := range q.Select {
		if item.Agg == AggNone {
			return nil, fmt.Errorf("column %q: %w", item.Col, ErrMixedSelect)
		}
		c, err := aggColumn(t, item)
		if err != nil {
			return nil, err
		}
		inputs[i] = c
	}
	return inputs, nil
}

// newAggStates allocates one fresh state per select item (nil for plain
// columns, which only occur in the group-by path).
func newAggStates(q Query) []*aggState {
	states := make([]*aggState, len(q.Select))
	for i, item := range q.Select {
		if item.Agg != AggNone {
			states[i] = &aggState{fn: item.Agg}
		}
	}
	return states
}

// accumulateScalar feeds the rows, ascending, into the states.
func accumulateScalar(inputs []storage.Column, states []*aggState, rows []int) {
	for _, row := range rows {
		for i, st := range states {
			if inputs[i] == nil {
				st.addCountOnly()
			} else {
				st.add(inputs[i].Value(row), row)
			}
		}
	}
}

func scalarAggregate(t *storage.Table, sel []int, q Query) (*storage.Table, error) {
	inputs, err := scalarInputs(t, q)
	if err != nil {
		return nil, err
	}
	states := newAggStates(q)
	accumulateScalar(inputs, states, sel)
	return buildScalarOutput(t.Name(), q, states)
}

// buildScalarOutput renders final aggregate states as a one-row table.
func buildScalarOutput(name string, q Query, states []*aggState) (*storage.Table, error) {
	schema := make(storage.Schema, len(states))
	cols := make([]storage.Column, len(states))
	for i, st := range states {
		schema[i] = storage.Field{Name: q.Select[i].Name(), Type: st.resultType()}
		col := storage.NewColumn(schema[i].Type)
		v := st.result()
		// Coerce to the declared column type.
		switch schema[i].Type {
		case storage.TInt:
			v = storage.Int(v.AsInt())
		case storage.TFloat:
			v = storage.Float(v.AsFloat())
		}
		if err := col.Append(v); err != nil {
			return nil, err
		}
		cols[i] = col
	}
	return storage.FromColumns(name, schema, cols)
}

type groupEntry struct {
	key    []storage.Value
	states []*aggState
	// first is the row id of the group's first row. The pipeline sorts
	// merged groups by it so output order matches the sequential
	// first-seen order exactly; a merge of partitioned partials numbers
	// groups in the order they first appear across parts.
	first int
}

// groupInputs resolves the grouping columns and per-item aggregate inputs,
// validating that every plain select column is a grouping column.
func groupInputs(t *storage.Table, q Query) (groupCols, inputs []storage.Column, err error) {
	groupCols = make([]storage.Column, len(q.GroupBy))
	for i, g := range q.GroupBy {
		c, err := t.ColumnByName(g)
		if err != nil {
			return nil, nil, err
		}
		groupCols[i] = c
	}
	inGroup := func(name string) bool {
		for _, g := range q.GroupBy {
			if g == name {
				return true
			}
		}
		return false
	}
	inputs = make([]storage.Column, len(q.Select))
	for i, item := range q.Select {
		if item.Agg == AggNone {
			if !inGroup(item.Col) {
				return nil, nil, fmt.Errorf("column %q: %w", item.Col, ErrMixedSelect)
			}
			continue
		}
		c, err := aggColumn(t, item)
		if err != nil {
			return nil, nil, err
		}
		inputs[i] = c
	}
	return groupCols, inputs, nil
}

// groupTable is one hash-aggregation table: entries keyed by the encoded
// group key, with insertion order preserved. The reference evaluator builds
// a single one; the pipeline's generic sink builds one per worker and merges.
type groupTable struct {
	groups map[string]*groupEntry
	order  []string
}

func newGroupTable() *groupTable {
	return &groupTable{groups: make(map[string]*groupEntry)}
}

// keyAppender returns a function appending the column's row to a group
// key buffer. Key building is the generic group-by's hot loop, so the
// common representations skip boxing: int and float columns render digits
// straight from the raw slice, dict columns append the code (codes and
// values are 1:1, so code keys group identically). Only other columns pay
// Value(row).String().
func keyAppender(gc storage.Column) func(b []byte, row int) []byte {
	switch c := gc.(type) {
	case *storage.IntColumn:
		v := c.V
		return func(b []byte, row int) []byte { return strconv.AppendInt(b, v[row], 10) }
	case *storage.DictColumn:
		codes := c.Codes()
		return func(b []byte, row int) []byte { return strconv.AppendInt(b, int64(codes[row]), 10) }
	case *storage.FloatColumn:
		v := c.V
		return func(b []byte, row int) []byte { return strconv.AppendFloat(b, v[row], 'g', -1, 64) }
	default:
		return func(b []byte, row int) []byte { return append(b, gc.Value(row).String()...) }
	}
}

// accumulate feeds the rows, ascending, into the table. A new group records
// its first row, which totally orders groups exactly as a sequential scan
// of the whole input would first meet them.
//
// The key buffer is reused across rows, and the map probe goes through the
// zero-copy string(keyBuf) lookup — a key string is allocated only when a
// group is first seen.
func (gt *groupTable) accumulate(groupCols, inputs []storage.Column, q Query, rows []int) {
	appenders := make([]func(b []byte, row int) []byte, len(groupCols))
	for i, gc := range groupCols {
		appenders[i] = keyAppender(gc)
	}
	var keyBuf []byte
	for _, row := range rows {
		keyBuf = keyBuf[:0]
		for _, ap := range appenders {
			keyBuf = ap(keyBuf, row)
			keyBuf = append(keyBuf, '\x00')
		}
		e, ok := gt.groups[string(keyBuf)]
		if !ok {
			k := string(keyBuf)
			key := make([]storage.Value, len(groupCols))
			for i, gc := range groupCols {
				key[i] = gc.Value(row)
			}
			e = &groupEntry{key: key, states: newAggStates(q), first: row}
			gt.groups[k] = e
			gt.order = append(gt.order, k)
		}
		for i, st := range e.states {
			if st == nil {
				continue
			}
			if inputs[i] == nil {
				st.addCountOnly()
			} else {
				st.add(inputs[i].Value(row), row)
			}
		}
	}
}

// merge folds another table's entries into gt, keeping the earlier first
// row per group.
func (gt *groupTable) merge(o *groupTable) {
	for _, k := range o.order {
		oe := o.groups[k]
		e, ok := gt.groups[k]
		if !ok {
			gt.groups[k] = oe
			gt.order = append(gt.order, k)
			continue
		}
		if oe.first < e.first {
			e.first = oe.first
		}
		for i, st := range e.states {
			if st != nil {
				st.merge(oe.states[i])
			}
		}
	}
}

func groupBy(t *storage.Table, sel []int, q Query) (*storage.Table, error) {
	groupCols, inputs, err := groupInputs(t, q)
	if err != nil {
		return nil, err
	}
	gt := newGroupTable()
	gt.accumulate(groupCols, inputs, q, sel)
	return buildGroupOutput(t, q, gt)
}

// buildGroupOutput renders a finished group table, one row per group in
// first-seen order.
func buildGroupOutput(t *storage.Table, q Query, gt *groupTable) (*storage.Table, error) {
	entries := make([]*groupEntry, 0, len(gt.order))
	for _, k := range gt.order {
		entries = append(entries, gt.groups[k])
	}
	return buildGroupEntries(t.Name(), t.Schema(), q, entries)
}

// buildGroupEntries renders group entries as an output table, one row per
// entry in the given order. Every group-by ends here — the generic hash
// table, the typed group kernels and the merge of partitioned partials —
// so in, the schema the query reads, types the output even when there
// are no groups: group columns keep their type, MIN/MAX take their
// input's, COUNT is INT and the rest FLOAT.
func buildGroupEntries(name string, in storage.Schema, q Query, entries []*groupEntry) (*storage.Table, error) {
	schema := make(storage.Schema, len(q.Select))
	for i, item := range q.Select {
		typ := storage.TFloat
		switch item.Agg {
		case AggNone, AggMin, AggMax:
			typ = in[in.Index(item.Col)].Type
		case AggCount:
			typ = storage.TInt
		}
		schema[i] = storage.Field{Name: item.Name(), Type: typ}
	}
	cols := make([]storage.Column, len(schema))
	for i := range cols {
		cols[i] = storage.NewColumn(schema[i].Type)
	}
	groupIdx := make([]int, len(q.Select))
	for i, item := range q.Select {
		groupIdx[i] = -1
		if item.Agg == AggNone {
			for gi, g := range q.GroupBy {
				if g == item.Col {
					groupIdx[i] = gi
					break
				}
			}
		}
	}
	for _, e := range entries {
		for i := range q.Select {
			var v storage.Value
			if gi := groupIdx[i]; gi >= 0 {
				v = e.key[gi]
			} else {
				v = e.states[i].result()
			}
			switch schema[i].Type {
			case storage.TInt:
				v = storage.Int(v.AsInt())
			case storage.TFloat:
				v = storage.Float(v.AsFloat())
			}
			if err := cols[i].Append(v); err != nil {
				return nil, err
			}
		}
	}
	return storage.FromColumns(name, schema, cols)
}
