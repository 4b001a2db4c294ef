package server

import (
	"encoding/json"
	"strconv"
	"sync"
)

// The one deserializer, the mirror of appendAnswer: a /query body in the
// serializer's canonical shape — columns, types, rows, mode, elapsed_ms,
// then cached, degraded and coverage when set, then "}\n" — is parsed into
// a QueryResult in one pass over the client's read buffer, with no
// reflection and no per-cell slice growth. The rows are cut from one
// exactly sized backing array; a column's repeated strings are boxed once;
// small integral numbers share pre-boxed values. Anything else — a trace,
// a string with an escape or a non-ASCII byte, a field out of order, a
// value of another kind, a malformed body — goes to json.Unmarshal whole.
// Either way the result is what json.Unmarshal makes of the same bytes,
// bit for bit, or its error (decode_test.go holds it to that).

// decodeAnswer parses a /query body into res, which must be the zero
// QueryResult. The result never aliases b.
func decodeAnswer(b []byte, res *QueryResult) error {
	d := decoder{b: b}
	if d.answer(res) {
		return nil
	}
	*res = QueryResult{}
	return json.Unmarshal(b, res)
}

// smallInts holds float64(0) … float64(255) boxed, what json.Unmarshal
// makes of the integers a result's small counts and codes render as.
var smallInts = func() (v [256]any) {
	for i := range v {
		v[i] = float64(i)
	}
	return v
}()

// internCap bounds each column's table of boxed strings: a column with
// more distinct values boxes the rest per cell.
const internCap = 256

// rowScratch gathers one body's cells and the end of each row before the
// rows are cut from an exactly sized array. It is pooled, cleared before
// it goes back so it pins no strings; one that grew past maxPooledCells
// goes to the collector.
type rowScratch struct {
	cells []any
	ends  []int
}

var scratchPool = sync.Pool{New: func() any { return new(rowScratch) }}

const maxPooledCells = 1 << 16

type decoder struct {
	b      []byte
	i      int
	intern []map[string]any // per column
}

// answer parses the canonical shape into res, reporting false at the
// first byte outside it.
func (d *decoder) answer(res *QueryResult) bool {
	var ok bool
	if !d.lit(`{"columns":`) {
		return false
	}
	if res.Columns, ok = d.strings(); !ok || !d.lit(`,"types":`) {
		return false
	}
	if res.Types, ok = d.strings(); !ok || !d.lit(`,"rows":`) {
		return false
	}
	if res.Rows, ok = d.rows(); !ok || !d.lit(`,"mode":`) {
		return false
	}
	mode, ok := d.str()
	if !ok || !d.lit(`,"elapsed_ms":`) {
		return false
	}
	res.Mode = string(mode)
	if res.ElapsedMS, ok = d.float(); !ok {
		return false
	}
	res.Cached = d.lit(`,"cached":true`)
	res.Degraded = d.lit(`,"degraded":true`)
	if d.lit(`,"coverage":`) {
		if res.Coverage, ok = d.float(); !ok {
			return false
		}
	}
	return d.lit("}\n") && d.i == len(d.b)
}

// lit consumes s if the input continues with it.
func (d *decoder) lit(s string) bool {
	if len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// is consumes c if the input continues with it.
func (d *decoder) is(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// str consumes a string of printable ASCII with no escape and returns its
// bytes, which alias the input.
func (d *decoder) str() ([]byte, bool) {
	if !d.is('"') {
		return nil, false
	}
	for j := d.i; j < len(d.b); j++ {
		switch c := d.b[j]; {
		case c == '"':
			s := d.b[d.i:j]
			d.i = j + 1
			return s, true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// list consumes an array, calling elem at each element.
func (d *decoder) list(elem func() bool) bool {
	if !d.is('[') {
		return false
	}
	if d.is(']') {
		return true
	}
	for elem() {
		if d.is(']') {
			return true
		}
		if !d.is(',') {
			return false
		}
	}
	return false
}

// strings consumes an array of strings.
func (d *decoder) strings() ([]string, bool) {
	out := []string{}
	ok := d.list(func() bool {
		s, ok := d.str()
		out = append(out, string(s))
		return ok
	})
	return out, ok
}

// rows consumes the array of rows.
func (d *decoder) rows() ([][]any, bool) {
	sc := scratchPool.Get().(*rowScratch)
	defer func() {
		clear(sc.cells)
		sc.cells, sc.ends = sc.cells[:0], sc.ends[:0]
		if cap(sc.cells) <= maxPooledCells {
			scratchPool.Put(sc)
		}
	}()
	ok := d.list(func() bool {
		col := 0
		ok := d.list(func() bool {
			v, ok := d.cell(col)
			sc.cells = append(sc.cells, v)
			col++
			return ok
		})
		sc.ends = append(sc.ends, len(sc.cells))
		return ok
	})
	if !ok {
		return nil, false
	}
	// Three-index slices: appending to one row cannot overwrite the next.
	all := make([]any, len(sc.cells))
	copy(all, sc.cells)
	rows := make([][]any, len(sc.ends))
	start := 0
	for r, end := range sc.ends {
		rows[r] = all[start:end:end]
		start = end
	}
	return rows, true
}

// cell consumes one cell of column col: a string, null or a number.
func (d *decoder) cell(col int) (any, bool) {
	if d.i >= len(d.b) {
		return nil, false
	}
	switch c := d.b[d.i]; {
	case c == '"':
		s, ok := d.str()
		if !ok {
			return nil, false
		}
		return d.box(col, s), true
	case c == 'n':
		return nil, d.lit("null")
	case c == '-' || '0' <= c && c <= '9':
		num, plain, ok := d.number()
		if !ok {
			return nil, false
		}
		if plain && len(num) <= 3 {
			n := 0
			for _, c := range num {
				n = 10*n + int(c-'0')
			}
			if n < len(smallInts) {
				return smallInts[n], true
			}
		}
		f, err := strconv.ParseFloat(string(num), 64)
		return f, err == nil
	}
	return nil, false
}

// box returns s as a boxed string copied out of the input, the same box
// for every repeat of s in column col while the column's table has room.
func (d *decoder) box(col int, s []byte) any {
	for len(d.intern) <= col {
		d.intern = append(d.intern, nil)
	}
	m := d.intern[col]
	if v, ok := m[string(s)]; ok {
		return v
	}
	str := string(s)
	var v any = str
	if m == nil {
		m = map[string]any{}
		d.intern[col] = m
	}
	if len(m) < internCap {
		m[str] = v
	}
	return v
}

// float consumes a number as a float64 field.
func (d *decoder) float() (float64, bool) {
	num, _, ok := d.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(num), 64)
	return f, err == nil
}

// number consumes a number in JSON's grammar —
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — and returns its bytes,
// which strconv.ParseFloat reads as json.Unmarshal does. plain reports a
// number of digits alone: no sign, fraction or exponent.
func (d *decoder) number() (num []byte, plain, ok bool) {
	b, j := d.b, d.i
	digits := func() bool {
		k := j
		for j < len(b) && '0' <= b[j] && b[j] <= '9' {
			j++
		}
		return j > k
	}
	plain = true
	if j < len(b) && b[j] == '-' {
		j, plain = j+1, false
	}
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case !digits():
		return nil, false, false
	}
	if j < len(b) && b[j] == '.' {
		j, plain = j+1, false
		if !digits() {
			return nil, false, false
		}
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		j, plain = j+1, false
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		if !digits() {
			return nil, false, false
		}
	}
	num = b[d.i:j]
	d.i = j
	return num, plain, true
}
