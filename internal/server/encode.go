package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"dex/internal/storage"
	"dex/internal/trace"
)

// The one serializer: a /query response body is appended straight from the
// result table's column vectors into a pooled buffer — no [][]any, no
// reflection — and is byte for byte what json.Marshal makes of the
// QueryResult it stands for (encode_test.go holds it to that): the same
// field order and omitempty fields, ints via strconv.AppendInt, floats by
// encoding/json's 'f'/'e' rule with NaN (the engine's NULL) and ±Inf (an
// unbounded CI) as null, strings escaped as json.Marshal escapes them, and
// a dict column's strings quoted once per distinct code. Its mirror,
// decode.go, parses this shape on the client side in one pass.

// answer is a query's result as the server holds it. The result cache
// stores answers, never rendered bodies: a hit re-renders one with its own
// elapsed time and trace.
type answer struct {
	table    *storage.Table
	mode     string
	degraded bool
	coverage float64
}

// bodyPool recycles response buffers; one that grew past maxPooledBody
// goes to the collector rather than staying pinned.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 1 << 20

// writeAnswer renders the whole /query body, then writes it: marshal
// before header, so a body that cannot render is a typed 500, never a 200
// cut short. The encode span covers the table; a traced request then
// closes its root and splices the span tree in as "trace".
func writeAnswer(w http.ResponseWriter, root *trace.Span, traced bool, a *answer, elapsed time.Duration, cached bool) {
	bp := bodyPool.Get().(*[]byte)
	esp := root.Child("encode")
	b, err := appendAnswer((*bp)[:0], a, float64(elapsed.Microseconds())/1e3, cached)
	esp.SetInt("rows", int64(a.table.NumRows()))
	esp.SetInt("bytes", int64(len(b)))
	esp.End()
	if err == nil && traced {
		root.End()
		var tb []byte
		tb, err = json.Marshal(root.JSON())
		b = append(append(b, `,"trace":`...), tb...)
	}
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "response encoding failed: " + err.Error()})
	} else {
		b = append(b, "}\n"...)
		writeBody(w, http.StatusOK, b)
	}
	if cap(b) <= maxPooledBody {
		*bp = b
		bodyPool.Put(bp)
	}
}

// writeBody writes a fully rendered body with its length, so the response
// goes out unchunked and a client can read it into one buffer.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

// appendAnswer appends the QueryResult fields up to "trace", without the
// closing brace.
func appendAnswer(b []byte, a *answer, elapsedMS float64, cached bool) ([]byte, error) {
	schema := a.table.Schema()
	b = append(b, `{"columns":[`...)
	for i, f := range schema {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, f.Name)
	}
	b = append(b, `],"types":[`...)
	for i, f := range schema {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, f.Type.String())
	}
	b = append(b, `],"rows":[`...)
	b = appendRows(b, a.table)
	b = append(b, `],"mode":`...)
	b = appendString(b, a.mode)
	b = append(b, `,"elapsed_ms":`...)
	b = appendFloat(b, elapsedMS)
	if cached {
		b = append(b, `,"cached":true`...)
	}
	if a.degraded {
		b = append(b, `,"degraded":true`...)
	}
	if a.coverage != 0 {
		if math.IsNaN(a.coverage) || math.IsInf(a.coverage, 0) {
			_, err := json.Marshal(a.coverage) // json's own error for the value
			return b, err
		}
		b = append(b, `,"coverage":`...)
		b = appendFloat(b, a.coverage)
	}
	return b, nil
}

// cells reads one result column for the row-major rendering.
type cells struct {
	i64   []int64
	f64   []float64
	str   []string
	codes []int32
	dict  []string
	// span[2c:2c+2] locates dict code c's quoted form in quoted once it is
	// rendered (end 0: not yet; a quoted string is never empty).
	span   []int32
	quoted []byte
}

func appendRows(b []byte, t *storage.Table) []byte {
	n := t.NumRows()
	cs := make([]cells, t.NumCols())
	for i := range cs {
		c := &cs[i]
		switch col := t.Column(i).(type) {
		case *storage.IntColumn:
			c.i64 = col.V
		case *storage.FloatColumn:
			c.f64 = col.V
		case *storage.StringColumn:
			c.str = col.V
		case *storage.DictColumn:
			c.codes, c.dict = col.Codes(), col.Dict()
			if len(c.dict) <= n { // quote each code once only when codes repeat
				c.span = make([]int32, 2*len(c.dict))
			}
		default: // a run-coded column: results gather those to plain ints
			panic(fmt.Sprintf("server: no serializer for column type %T", col))
		}
	}
	for r := 0; r < n; r++ {
		if r > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for i := range cs {
			if i > 0 {
				b = append(b, ',')
			}
			b = cs[i].appendCell(b, r)
		}
		b = append(b, ']')
	}
	return b
}

func (c *cells) appendCell(b []byte, r int) []byte {
	switch {
	case c.i64 != nil:
		return strconv.AppendInt(b, c.i64[r], 10)
	case c.f64 != nil:
		return appendCellFloat(b, c.f64[r])
	case c.str != nil:
		return appendString(b, c.str[r])
	}
	code := c.codes[r]
	if c.span == nil {
		return appendString(b, c.dict[code])
	}
	lo, hi := c.span[2*code], c.span[2*code+1]
	if hi == 0 {
		lo = int32(len(c.quoted))
		c.quoted = appendString(c.quoted, c.dict[code])
		hi = int32(len(c.quoted))
		c.span[2*code], c.span[2*code+1] = lo, hi
	}
	return append(b, c.quoted[lo:hi]...)
}

// appendCellFloat renders a float cell: JSON carries neither NaN (the
// engine's NULL) nor ±Inf (the estimator's "no finite CI"); both are null.
func appendCellFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(b, "null"...)
	}
	return appendFloat(b, f)
}

// appendFloat renders a finite float64 as encoding/json does: shortest
// 'f' form, 'e' form below 1e-6 or from 1e21 on, with a two-digit negative
// exponent shortened (1e-07 → 1e-7).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString quotes s as json.Marshal does. Printable ASCII without
// quote, backslash or HTML characters — column names, types, modes, the
// common cell — is copied as is; anything else takes json.Marshal itself,
// so escaping can never drift from the library's.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
