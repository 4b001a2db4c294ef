// Row answers: the projection sinks of the pipeline (see pipeline.go) and
// the typed ORDER BY comparator that both they and finish sort with.
//
//   - A projection without ORDER BY leaves each morsel's qualifying rows in
//     its pooled selection buffer (the driver parks them) and, at finish,
//     gathers every output column once straight across the parked buffers —
//     no merged selection; with LIMIT k only the first k positions.
//   - ORDER BY … LIMIT k keeps a bounded heap per worker of (first sort key,
//     row id) entries; the morsel's buffer goes back at once. The merge
//     sorts the workers' survivors and gathers only the k winners. Without
//     LIMIT the same sink keeps every entry and sorts them once, and finish
//     orders aggregate outputs the same way.
//
// Outputs are gathered with Column.Gather, so dict columns stay dict-coded
// all the way to the serializer. The order is (keys, row id): exactly the
// stable sort Execute defines, since every input — the table's rows or
// ExecuteSel's selection — lists its rows ascending. Keys compare
// as storage.Value.Order does — ints in the float64 domain (as the MIN/MAX
// kernels do), NULL (NaN) after every number, dict codes by a per-query
// code→rank table, run-coded ints through a cursor — and FuzzRowsVsOracle
// holds the result to Execute's boxed sort.
package exec

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"

	"dex/internal/expr"
	"dex/internal/storage"
)

var errHavingNoAgg = errors.New("exec: HAVING without aggregation")

// output is a projection's result shape: the output fields and the input
// column behind each.
type output struct {
	name   string
	schema storage.Schema
	in     []storage.Column
}

// projection resolves a plain select list against t: every item names a
// column of t, and output names are distinct.
func projection(t *storage.Table, q Query) (output, error) {
	o := output{name: t.Name(), schema: make(storage.Schema, len(q.Select)), in: make([]storage.Column, len(q.Select))}
	for i, item := range q.Select {
		c, err := t.ColumnByName(item.Col)
		if err != nil {
			return o, err
		}
		o.schema[i] = storage.Field{Name: item.Name(), Type: c.Type()}
		o.in[i] = c
	}
	return o, o.schema.Validate()
}

// gather renders the given rows, one Gather per output column.
func (o output) gather(rows []int) (*storage.Table, error) {
	cols := make([]storage.Column, len(o.in))
	for i, c := range o.in {
		cols[i] = c.Gather(rows)
	}
	return storage.FromColumns(o.name, o.schema, cols)
}

// gatherSink is a projection without ORDER BY.
type gatherSink struct {
	out   output
	limit int
	m     int
	parts [][]int // per morsel: its qualifying rows, ascending
}

func (s *gatherSink) consume(_, lo, _ int, rows []int) { s.parts[lo/s.m] = rows }

func (s *gatherSink) finish() (*storage.Table, error) {
	n := 0
	for _, p := range s.parts {
		n += len(p)
	}
	if s.limit > 0 {
		n = min(n, s.limit)
	}
	cols := make([]storage.Column, len(s.out.in))
	for i, c := range s.out.in {
		cols[i] = storage.GatherParts(c, s.parts, n)
	}
	return storage.FromColumns(s.out.name, s.out.schema, cols)
}

// topSink is a projection with ORDER BY: each worker keeps its k best
// entries (every entry without LIMIT), and finish gathers only the winners.
type topSink struct {
	out    output
	order  *rowOrder
	k      int        // LIMIT; 0 keeps every row
	locals []*topHeap // per worker
}

func (s *topSink) consume(worker, lo, hi int, rows []int) {
	h := s.locals[worker]
	if h == nil {
		h = &topHeap{rd: s.order.reader()}
		s.locals[worker] = h
	}
	if rows == nil { // the dense range
		for r := lo; r < hi; r++ {
			h.offer(s.k, r)
		}
		return
	}
	for _, r := range rows {
		h.offer(s.k, r)
	}
}

func (s *topSink) finish() (*storage.Table, error) {
	var es []topEntry
	for _, h := range s.locals {
		if h != nil {
			es = append(es, h.es...)
		}
	}
	return s.out.gather(s.order.reader().sorted(es, s.k))
}

// topEntry is one candidate row: its first sort key (when that key reads
// as a number) and its row id.
type topEntry struct {
	key float64
	row int
}

// topHeap is one worker's candidates. Bounded, it is a max-heap under
// compare — the root is the worst of the k best seen so far, and a row
// that does not beat it costs one key read and one comparison.
type topHeap struct {
	rd *orderReader
	es []topEntry
}

func (h *topHeap) offer(k, row int) {
	e := h.rd.entry(row)
	switch {
	case k == 0 || len(h.es) < k:
		h.es = append(h.es, e)
		if len(h.es) == k {
			for i := k/2 - 1; i >= 0; i-- {
				h.down(i)
			}
		}
	case h.rd.compare(&e, &h.es[0]) < 0:
		h.es[0] = e
		h.down(0)
	}
}

// down restores the max-heap below i.
func (h *topHeap) down(i int) {
	for {
		j := 2*i + 1
		if j >= len(h.es) {
			return
		}
		if r := j + 1; r < len(h.es) && h.rd.compare(&h.es[r], &h.es[j]) > 0 {
			j = r
		}
		if h.rd.compare(&h.es[j], &h.es[i]) <= 0 {
			return
		}
		h.es[i], h.es[j] = h.es[j], h.es[i]
		i = j
	}
}

// keyKind says how an ORDER BY key reads its column. The kinds before
// kString compare as float64s.
type keyKind uint8

const (
	kFloat  keyKind = iota
	kInt            // in the float64 domain, as Value.Compare does
	kRLE            // run-coded ints, through the reader's cursor
	kDict           // codes, by the value rank
	kString         // plain strings
)

type orderKey struct {
	desc  bool
	kind  keyKind
	rle   *storage.RLEIntColumn
	f64   []float64
	i64   []int64
	codes []int32
	rank  []int32 // kDict: code → rank by value; nil when code order is value order
	str   []string
}

// rowOrder is an ORDER BY list bound to typed columns.
type rowOrder struct{ keys []orderKey }

// newRowOrder binds each ORDER BY key to the column schema names it by;
// cols[i] holds field i's values (for a projection, the input column
// behind output field i).
func newRowOrder(schema storage.Schema, cols []storage.Column, keys []OrderKey) (*rowOrder, error) {
	o := &rowOrder{keys: make([]orderKey, len(keys))}
	for i, k := range keys {
		ci := schema.Index(k.Col)
		if ci < 0 {
			return nil, fmt.Errorf("%q: %w", k.Col, storage.ErrNoSuchColumn)
		}
		key := orderKey{desc: k.Desc}
		switch c := cols[ci].(type) {
		case *storage.FloatColumn:
			key.kind, key.f64 = kFloat, c.V
		case *storage.IntColumn:
			key.kind, key.i64 = kInt, c.V
		case *storage.RLEIntColumn:
			key.kind, key.rle = kRLE, c
		case *storage.DictColumn:
			key.kind, key.codes, key.rank = kDict, c.Codes(), dictRank(c.Dict())
		case *storage.StringColumn:
			key.kind, key.str = kString, c.V
		default:
			panic(fmt.Sprintf("exec: no ORDER BY reader for column type %T", c))
		}
		o.keys[i] = key
	}
	return o, nil
}

// dictRank maps codes to their value's rank, or returns nil when code
// order already is value order (EncodeDict sorts; only an Append of a new
// value breaks it).
func dictRank(dict []string) []int32 {
	if slices.IsSorted(dict) {
		return nil
	}
	byValue := make([]int32, len(dict))
	for i := range byValue {
		byValue[i] = int32(i)
	}
	slices.SortFunc(byValue, func(a, b int32) int { return strings.Compare(dict[a], dict[b]) })
	rank := make([]int32, len(dict))
	for r, code := range byValue {
		rank[code] = int32(r)
	}
	return rank
}

// orderReader compares rows under a rowOrder. It owns the RLE cursors, so
// every goroutine needs its own.
type orderReader struct {
	keys []orderKey
	curs []storage.RLECursor
}

func (o *rowOrder) reader() *orderReader {
	rd := &orderReader{keys: o.keys, curs: make([]storage.RLECursor, len(o.keys))}
	for i, k := range o.keys {
		if k.kind == kRLE {
			rd.curs[i] = k.rle.Cursor()
		}
	}
	return rd
}

// num reads key i of row as the float64 it compares by (kinds < kString).
func (rd *orderReader) num(i, row int) float64 {
	k := &rd.keys[i]
	switch k.kind {
	case kFloat:
		return k.f64[row]
	case kInt:
		return float64(k.i64[row])
	case kRLE:
		return float64(rd.curs[i].At(row))
	}
	if k.rank == nil {
		return float64(k.codes[row])
	}
	return float64(k.rank[k.codes[row]])
}

func (rd *orderReader) entry(row int) topEntry {
	e := topEntry{row: row}
	if rd.keys[0].kind < kString {
		e.key = rd.num(0, row)
	}
	return e
}

// compare orders two entries by (keys, row id).
func (rd *orderReader) compare(a, b *topEntry) int {
	for i := range rd.keys {
		k := &rd.keys[i]
		var c int
		switch {
		case i == 0 && k.kind < kString:
			c = cmpNum(a.key, b.key)
		case k.kind < kString:
			c = cmpNum(rd.num(i, a.row), rd.num(i, b.row))
		default:
			c = strings.Compare(k.str[a.row], k.str[b.row])
		}
		if c != 0 {
			if k.desc {
				return -c
			}
			return c
		}
	}
	return cmp.Compare(a.row, b.row)
}

// cmpNum is Value.Order on two numbers: NaN (NULL) after every number and
// level with another NaN.
func cmpNum(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b || a != a && b != b:
		return 0
	case a != a:
		return 1
	default:
		return -1
	}
}

// sorted sorts entries into (keys, row id) order, cuts them at limit
// (0 = none) and returns their row ids.
func (rd *orderReader) sorted(es []topEntry, limit int) []int {
	slices.SortFunc(es, func(a, b topEntry) int { return rd.compare(&a, &b) })
	if limit > 0 && len(es) > limit {
		es = es[:limit]
	}
	rows := make([]int, len(es))
	for i, e := range es {
		rows[i] = e.row
	}
	return rows
}

// having returns the rows of out that pass q's HAVING clause, all of them
// without one.
func having(out *storage.Table, q Query) ([]int, error) {
	if q.Having != nil && len(q.GroupBy) == 0 && !q.HasAggregates() {
		return nil, errHavingNoAgg
	}
	return expr.Filter(out, q.Having)
}

// finish applies the post-aggregation tail of a query — HAVING, ORDER BY
// and LIMIT — to an aggregate output, which is small: it runs sequentially,
// sorts row ids with the typed comparator and gathers once.
func finish(out *storage.Table, q Query) (*storage.Table, error) {
	if q.Having == nil && len(q.OrderBy) == 0 && (q.Limit <= 0 || out.NumRows() <= q.Limit) {
		return out, nil
	}
	rows, err := having(out, q)
	if err != nil {
		return nil, err
	}
	if len(q.OrderBy) > 0 {
		cols := make([]storage.Column, out.NumCols())
		for i := range cols {
			cols[i] = out.Column(i)
		}
		o, err := newRowOrder(out.Schema(), cols, q.OrderBy)
		if err != nil {
			return nil, err
		}
		rd := o.reader()
		es := make([]topEntry, len(rows))
		for i, r := range rows {
			es[i] = rd.entry(r)
		}
		rows = rd.sorted(es, q.Limit)
	} else if q.Limit > 0 && len(rows) > q.Limit {
		rows = rows[:q.Limit]
	}
	return out.Gather(rows), nil
}
