package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"dex/internal/storage"
	"dex/internal/trace"
)

// answerBodies renders the /query bodies writeAnswer sends for random
// result tables (randEncTable) under every combination of cached,
// degraded, coverage and trace. fast reports, per body, whether it is in
// the decoder's canonical shape: no trace, a finite coverage, and no
// string that needed an escape or holds a non-ASCII byte.
func answerBodies(seed int64, tables int) (bodies [][]byte, fast []bool) {
	rng := rand.New(rand.NewSource(seed))
	for range tables {
		tbl := randEncTable(rng)
		elapsed := time.Duration(rng.Int63n(int64(time.Second)))
		for combo := 0; combo < 16; combo++ {
			cached, degraded, traced := combo&1 != 0, combo&2 != 0, combo&4 != 0
			coverage := 0.0
			if combo&8 != 0 {
				coverage = []float64{1, 0.75, 1.0 / 3, math.NaN()}[rng.Intn(4)]
			}
			var root *trace.Span
			if traced {
				_, root = trace.Start(context.Background(), "query")
				root.Child("scan").End()
			}
			rec := httptest.NewRecorder()
			writeAnswer(rec, root, traced, &answer{table: tbl, mode: "exact", degraded: degraded, coverage: coverage}, elapsed, cached)
			body := rec.Body.Bytes()
			plain := !bytes.ContainsAny(body, `\`)
			for _, c := range body {
				plain = plain && c < 0x80
			}
			bodies = append(bodies, body)
			fast = append(fast, rec.Code == 200 && !traced && plain)
		}
	}
	return bodies, fast
}

// sameJSON reports whether two values json.Unmarshal could make are equal,
// floats bit for bit: reflect.DeepEqual alone takes −0 for 0.
func sameJSON(a, b any) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	case []any:
		y, ok := b.([]any)
		if !ok || (x == nil) != (y == nil) || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !sameJSON(x[i], y[i]) {
				return false
			}
		}
		return true
	case map[string]any:
		y, ok := b.(map[string]any)
		if !ok || (x == nil) != (y == nil) || len(x) != len(y) {
			return false
		}
		for k, v := range x {
			if w, ok := y[k]; !ok || !sameJSON(v, w) {
				return false
			}
		}
		return true
	}
	return reflect.DeepEqual(a, b)
}

// sameDecoded compares two decoded results field by field, nil slices
// apart from empty ones and floats bit for bit.
func sameDecoded(a, b *QueryResult) bool {
	if (a.Rows == nil) != (b.Rows == nil) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if !sameJSON(a.Rows[i], b.Rows[i]) {
			return false
		}
	}
	return reflect.DeepEqual(a.Columns, b.Columns) && reflect.DeepEqual(a.Types, b.Types) &&
		a.Mode == b.Mode && math.Float64bits(a.ElapsedMS) == math.Float64bits(b.ElapsedMS) &&
		a.Cached == b.Cached && a.Degraded == b.Degraded &&
		math.Float64bits(a.Coverage) == math.Float64bits(b.Coverage) &&
		reflect.DeepEqual(a.Trace, b.Trace)
}

// checkDecode holds decodeAnswer to json.Unmarshal on one body: the same
// error, or the same result.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	var want, got QueryResult
	werr := json.Unmarshal(body, &want)
	gerr := decodeAnswer(body, &got)
	switch {
	case (werr == nil) != (gerr == nil):
		t.Fatalf("body %q: decodeAnswer error %v, json.Unmarshal error %v", body, gerr, werr)
	case werr != nil && werr.Error() != gerr.Error():
		t.Fatalf("body %q: decodeAnswer error %q, json.Unmarshal error %q", body, gerr, werr)
	case werr == nil && !sameDecoded(&got, &want):
		t.Fatalf("body %q:\ndecodeAnswer   %#v\njson.Unmarshal %#v", body, got, want)
	}
}

// decodeEdgeBodies are hand-written bodies at the edges of the canonical
// shape: every kind of value and field order the fast path does not take,
// numbers at its small-integer shortcut and outside JSON's grammar, and
// broken bodies.
var decodeEdgeBodies = []string{
	`{"columns":[],"types":[],"rows":[],"mode":"exact","elapsed_ms":0}` + "\n",
	`{"columns":["a"],"types":["INT"],"rows":[[0],[255],[256],[-0],[1.0],[1e2],[-0.0],[0e5]],"mode":"exact","elapsed_ms":-0}`,
	`{"columns":["a"],"types":["INT"],"rows":[[007]],"mode":"exact","elapsed_ms":1}`,
	`{"columns":["a"],"types":["FLOAT"],"rows":[[1e400]],"mode":"exact","elapsed_ms":1}`,
	`{"columns":["a"],"types":["FLOAT"],"rows":[[1e-400],[-1E+2],[0.5e-3]],"mode":"exact","elapsed_ms":1e400}`,
	`{"columns":["a","b"],"types":["INT","INT"],"rows":[[1,2],[3],[],[null,"x"]],"mode":"exact","elapsed_ms":1}`,
	`{"columns":["a"],"types":["INT"],"rows":[[true],[[1]],[{"k":1}]],"mode":"exact","elapsed_ms":1}`,
	`{"columns":["a"],"types":["TEXT"],"rows":[["x\u0041"],["é"],["\u2028"]],"mode":"exact","elapsed_ms":1}`,
	`{"types":[],"columns":[],"rows":[],"mode":"exact","elapsed_ms":0}`,
	`{"Columns":["a"],"types":["INT"],"rows":[[1]],"mode":"exact","elapsed_ms":0}`,
	`{"columns":["a"],"columns":["b"],"types":["INT"],"rows":[[1]],"mode":"exact","elapsed_ms":0}`,
	`{"columns":null,"types":null,"rows":null,"mode":"exact","elapsed_ms":null}`,
	`{"columns":[],"types":[],"rows":[],"mode":"exact","elapsed_ms":0,"cached":false,"degraded":true,"coverage":0.5}`,
	`{"columns":[],"types":[],"rows":[],"mode":"exact","elapsed_ms":0,"coverage":1,"cached":true}`,
	`{"columns":[],"types":[],"rows":[],"mode":"exact","elapsed_ms":0,"trace":{"name":"query"}}`,
	`{"columns":[],"types":[],"rows":[],"mode":"exact","elapsed_ms":0} x`,
	`{"columns":[],"types":[],"rows":[],"mode":"exact","elapsed_ms":0}}`,
	` {"columns":[],"types":[],"rows":[],"mode":"exact","elapsed_ms":0}`,
	`{"columns":[],"types":[],"rows":[[01]],"mode":"exact","elapsed_ms":0}`,
	`{"columns":[],"types":[],"rows":[[-]],"mode":"exact","elapsed_ms":0}`,
	`{"columns":[],"types":[],"rows":[[1.]],"mode":"exact","elapsed_ms":.5}`,
	`{"columns":[],"types":[],"rows":[[+1]],"mode":"exact","elapsed_ms":0}`,
	`{"columns":["a"],"types":["TEXT"],"rows":[["tab	in"]],"mode":"exact","elapsed_ms":0}`,
	`{"columns":["a"],"types":["TEXT"],"rows":[["x"`,
	`{"columns":[`,
	``,
	`null`,
}

// TestDecodeAnswerMatchesUnmarshal runs the fuzz corpus as a test: every
// body writeAnswer renders, and each edge body, decodes as json.Unmarshal
// decodes it, and the bodies in the canonical shape take the fast path.
func TestDecodeAnswerMatchesUnmarshal(t *testing.T) {
	bodies, fast := answerBodies(11, 60)
	took := 0
	for i, body := range bodies {
		checkDecode(t, body)
		var res QueryResult
		if ok := (&decoder{b: body}).answer(&res); ok != fast[i] {
			t.Fatalf("body %q: fast path %v, want %v", body, ok, fast[i])
		} else if ok {
			took++
		}
	}
	if took == 0 {
		t.Fatal("no body took the fast path")
	}
	for _, body := range decodeEdgeBodies {
		checkDecode(t, []byte(body))
	}
}

// FuzzDecodeVsUnmarshal is the decoder's contract: for any bytes — a
// rendered answer, or one mutated or cut short — decodeAnswer fails when
// json.Unmarshal does, with its error, and otherwise makes the same
// QueryResult, floats compared bit for bit.
func FuzzDecodeVsUnmarshal(f *testing.F) {
	bodies, _ := answerBodies(12, 20)
	for _, body := range bodies {
		f.Add(body)
	}
	for _, body := range decodeEdgeBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(checkDecode)
}

// fetchBody renders a 1500-row answer shaped like the row fetches the
// benchmark asks for: two string columns, a FLOAT and an INT of small
// values.
func fetchBody(t testing.TB) []byte {
	const n = 1500
	rng := rand.New(rand.NewSource(3))
	region, product := make([]string, n), make([]string, n)
	amount, qty := make([]float64, n), make([]int64, n)
	for i := range n {
		region[i] = []string{"east", "west", "north", "south"}[rng.Intn(4)]
		product[i] = "p" + string(rune('a'+rng.Intn(20)))
		amount[i] = 50 + rng.NormFloat64()*15
		qty[i] = int64(1 + rng.Intn(9))
	}
	tbl, err := storage.FromColumns("sales", storage.Schema{
		{Name: "region", Type: storage.TString}, {Name: "product", Type: storage.TString},
		{Name: "amount", Type: storage.TFloat}, {Name: "qty", Type: storage.TInt},
	}, []storage.Column{storage.NewStringColumn(region), storage.NewStringColumn(product),
		storage.NewFloatColumn(amount), storage.NewIntColumn(qty)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := appendAnswer(nil, &answer{table: tbl, mode: "exact"}, 1.25, false)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, "}\n"...)
}

// TestDecodeAnswerAllocs guards the decoder's allocation: one box per
// number that is not a small integer, plus a constant for the slices,
// names and interned strings, where boxing every cell would be four per
// row. The result aliases neither the body, which the client reuses, nor
// one row another.
func TestDecodeAnswerAllocs(t *testing.T) {
	body := fetchBody(t)
	var res, want QueryResult
	if err := decodeAnswer(body, &res); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}
	if ok := (&decoder{b: body}).answer(&QueryResult{}); !ok {
		t.Fatal("the fetch-shaped answer missed the fast path")
	}
	clear(body)
	res.Rows[0] = append(res.Rows[0], "extra")
	want.Rows[0] = append(want.Rows[0], "extra")
	if !sameDecoded(&res, &want) {
		t.Fatal("overwriting the body or growing a row changed the decoded answer")
	}
	body = fetchBody(t)
	const slack = 100
	allowed := float64(len(res.Rows) + slack) // one amount per row
	if n := testing.AllocsPerRun(20, func() {
		var res QueryResult
		_ = decodeAnswer(body, &res)
	}); n > allowed {
		t.Fatalf("decoding a %d-row answer allocated %v times, want at most %v", len(res.Rows), n, allowed)
	}
}

// BenchmarkDecodeAnswer prices the decoder against json.Unmarshal on the
// fetch-shaped answer.
func BenchmarkDecodeAnswer(b *testing.B) {
	body := fetchBody(b)
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			var res QueryResult
			if err := decodeAnswer(body, &res); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			var res QueryResult
			if err := json.Unmarshal(body, &res); err != nil {
				b.Fatal(err)
			}
		}
	})
}
