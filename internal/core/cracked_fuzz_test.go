package core

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dex/internal/crack"
	"dex/internal/exec"
	"dex/internal/expr"
	"dex/internal/storage"
)

// The differential cracked-mode fuzzer: every byte string decodes to a
// cracking variant, a morsel size, a table — a plain INT column k, a
// run-length INT column r and a FLOAT column x over value pools stacked
// with NULL (NaN), ±Inf, the neighbours of 2^53 and the int64 extremes —
// and a sequence of one-column WHERE clauses of one to three comparisons,
// FLOAT constants on INT columns included, each asked in one of three
// shapes: a projection, a GROUP BY k with COUNT(*), SUM(x) and MIN(x), and
// a projection under LIMIT — none of them with ORDER BY. Each is followed
// by an aggregate cells can answer (cellAsk), over a dictionary column g
// derived from id and chosen by the same draw, so it costs no byte. A
// draw tiles the table's rows 1, 2, 4, 8 or 16 times, so a range can have
// an interior the bucket cells answer, and a last one may spread the tiled
// copies' x apart (spreadX), so a value bucket can hold several values. Each query runs crackTouch+1 times
// in cracked mode — its bound sub-buckets read as rows until the crackTouch-th
// touch makes their crackers, the later rounds against the cuts the
// earlier ones left — and must answer exactly what exact mode answers at
// the same parallelism and morsel size and what the reference evaluator
// exec.Execute answers, in order and bit for bit: rows, groups, MIN/MAX
// ties and every SUM/AVG, grouped over any number of morsels too. The
// draws are made in the order they were added, so inputs from before a
// draw existed decode to the same tables and clauses.
// testdata/fuzz/FuzzCrackedVsExact holds one input per bug this caught —
// zone pruning and cracking at 2^53, the type's maximum at the top of a
// range, and a NULL stalling the partition loop — one per shape, and
// entries that reach the two-level partition's paths
// (TestCrackedFuzzCorpusReachesEdges).

var (
	crackFzInts = []int64{0, 1, -1, 5, 7, math.MinInt64, math.MaxInt64,
		1<<53 - 1, 1 << 53, 1<<53 + 1, -(1<<53 + 1)}
	crackFzFloats = []float64{0, 1.5, 5, 7, math.NaN(), math.Inf(1),
		math.Inf(-1), 1 << 53, -2.5}
	crackFzOps = []expr.Op{expr.EQ, expr.NE, expr.LT, expr.LE, expr.GT, expr.GE}
)

// crackFzReader turns fuzz bytes into bounded draws; exhausted input yields
// zeros, so every prefix of an input is itself a valid input.
type crackFzReader struct {
	b []byte
	i int
}

func (f *crackFzReader) draw(n int) int {
	if f.i >= len(f.b) {
		return 0
	}
	f.i++
	return int(f.b[f.i-1]) % n
}

// value draws a constant of either type from the pools.
func (f *crackFzReader) value() storage.Value {
	if f.draw(2) == 0 {
		return storage.Int(crackFzInts[f.draw(len(crackFzInts))])
	}
	return storage.Float(crackFzFloats[f.draw(len(crackFzFloats))])
}

// cellAsk is the aggregate bucket cells can answer after an ask of the
// given shape draw: over x, scalar and grouped by g, and over k — whose
// int64 extremes and 2^53 neighbours tie in float64, and whose SUM is the
// exact int64 total rounded once — grouped by g.
func cellAsk(shape int, where *expr.Pred) exec.Query {
	in := "x"
	if shape == 2 {
		in = "k"
	}
	q := exec.Query{Where: where, Select: []exec.SelectItem{{Col: "*", Agg: exec.AggCount},
		{Col: in, Agg: exec.AggCount}, {Col: in, Agg: exec.AggMin}, {Col: in, Agg: exec.AggMax},
		{Col: in, Agg: exec.AggSum}}}
	if in == "x" {
		q.Select = append(q.Select, exec.SelectItem{Col: in, Agg: exec.AggAvg})
	}
	if shape > 0 {
		q.Select = append([]exec.SelectItem{{Col: "g"}}, q.Select...)
		q.GroupBy = []string{"g"}
	}
	return q
}

func FuzzCrackedVsExact(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) { crackedCase(t, data, nil) })
}

// crackFzAsk is one decoded clause and the shape it is asked in.
type crackFzAsk struct {
	where *expr.Pred
	shape int
	limit int
}

// crackFzCase is one decoded FuzzCrackedVsExact input: the engine options,
// the plain table and its encoded twin (registered as "t"), and the asks.
// fr stands after the input's last draw, for a fuzzer that draws more.
type crackFzCase struct {
	opt        Options
	base, n    int
	plain, enc *storage.Table
	x          []float64 // the FLOAT column x, which both tables share
	asks       []crackFzAsk
	fr         *crackFzReader
}

// spreadX raises the x of every copy c of the base rows by c, so the tiled
// table holds many distinct FLOAT values, each a few times: a value bucket
// then holds more than one value, and a range inside it can have its bounds
// in two of its sub-buckets, which a tiled table of the pools' values alone
// never gives. It runs before any query, as the table's last draw.
func (c crackFzCase) spreadX() {
	for i := c.base; i < len(c.x); i++ {
		c.x[i] += float64(i / c.base)
	}
}

// decodeCrackFz decodes one FuzzCrackedVsExact input.
func decodeCrackFz(t *testing.T, data []byte) crackFzCase {
	fr := &crackFzReader{b: data}
	c := crackFzCase{fr: fr, opt: Options{
		Seed:         1,
		CrackOptions: crack.Options{Variant: crack.Variant(fr.draw(3)), StochasticMin: 4, SortMin: 4, Seed: 1},
		Exec:         exec.ExecOptions{Parallelism: 2, MorselSize: []int{2, 16, 1024}[fr.draw(3)]},
	}}
	base := fr.draw(48)
	k, r, x := make([]int64, base), make([]int64, base), make([]float64, base)
	for i := range k {
		k[i] = crackFzInts[fr.draw(len(crackFzInts))]
		x[i] = crackFzFloats[fr.draw(len(crackFzFloats))]
		r[i] = crackFzInts[fr.draw(len(crackFzInts))]
	}
	c.asks = make([]crackFzAsk, 1+fr.draw(3))
	for q := range c.asks {
		col := []string{"k", "r", "x"}[fr.draw(3)]
		leaves := make([]*expr.Pred, 1+fr.draw(3))
		for i := range leaves {
			leaves[i] = expr.Cmp(col, crackFzOps[fr.draw(len(crackFzOps))], fr.value())
		}
		c.asks[q].where = leaves[0]
		if len(leaves) > 1 {
			c.asks[q].where = expr.And(leaves...)
		}
	}
	for q := range c.asks {
		if c.asks[q].shape = fr.draw(3); c.asks[q].shape == 2 {
			c.asks[q].limit = 1 + fr.draw(5)
		}
	}
	n := base << fr.draw(5)
	c.base, c.n = base, n
	id, kk, rr := make([]int64, n), make([]int64, n), make([]int64, n)
	xx := make([]float64, n)
	c.x = xx
	g := make([]string, n)
	for i := range id {
		id[i] = int64(i)
		g[i] = []string{"a", "b", "c"}[i%3]
		kk[i], xx[i], rr[i] = k[i%base], x[i%base], r[i%base]
	}
	schema := storage.Schema{
		{Name: "id", Type: storage.TInt}, {Name: "k", Type: storage.TInt},
		{Name: "r", Type: storage.TInt}, {Name: "x", Type: storage.TFloat}, {Name: "g", Type: storage.TString},
	}
	var err error
	c.plain, err = storage.FromColumns("t", schema, []storage.Column{
		storage.NewIntColumn(id), storage.NewIntColumn(kk), storage.NewIntColumn(rr), storage.NewFloatColumn(xx),
		storage.NewStringColumn(g),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.enc, err = storage.FromColumns("t", schema, []storage.Column{
		storage.NewIntColumn(id), storage.NewIntColumn(kk), storage.EncodeRLE(rr), storage.NewFloatColumn(xx),
		storage.EncodeDict(g),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// engine returns a new engine under the case's options with the encoded
// table registered.
func (c crackFzCase) engine(t *testing.T) *Engine {
	e := New(c.opt)
	if err := e.Register(c.enc); err != nil {
		t.Fatal(err)
	}
	return e
}

// crackedCase decodes and runs one FuzzCrackedVsExact input; seen, when
// set, gets the crack span and whether cells answered the interior, of
// every query's crackTouch+1 runs.
func crackedCase(t *testing.T, data []byte, seen func(q exec.Query, round int, run crackedRun)) {
	c := decodeCrackFz(t, data)
	if c.fr.draw(2) == 1 {
		c.spreadX()
	}
	opt, n := c.opt, c.n
	e := c.engine(t)
	for _, a := range c.asks {
		query := exec.Query{
			Select: []exec.SelectItem{{Col: "id"}, {Col: "k"}, {Col: "r"}, {Col: "x"}},
			Where:  a.where,
			Limit:  a.limit,
		}
		if a.shape == 1 {
			query.Select = []exec.SelectItem{{Col: "k"}, {Col: "*", Agg: exec.AggCount},
				{Col: "x", Agg: exec.AggSum}, {Col: "x", Agg: exec.AggMin}}
			query.GroupBy = []string{"k"}
		}
		for _, q := range []exec.Query{query, cellAsk(a.shape, a.where)} {
			oracle, err := exec.Execute(c.plain, q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := e.Execute("t", q, Exact)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round <= crackTouch; round++ {
				got, run := crackSpan(t, e, q)
				label := fmt.Sprintf("%v, morsel %d, %d rows, round %d, %s", opt.CrackOptions.Variant,
					opt.Exec.MorselSize, n, round, q)
				if err := tablesIdentical(oracle, got); err != nil {
					t.Fatalf("%s: against exec.Execute: %v", label, err)
				}
				if err := tablesIdentical(want, got); err != nil {
					t.Fatalf("%s: against exact mode: %v", label, err)
				}
				if seen != nil {
					seen(q, round, run)
				}
			}
		}
	}
}

// TestCrackedFuzzCorpusReachesEdges requires FuzzCrackedVsExact's corpus
// to reach both levels of cracked mode's partition through built
// crackers, not only edges read as rows: queries whose interior the
// bucket cells answer beside cracked bound sub-buckets, scalar and grouped
// (the edges-cells-* entries were checked in for this); ranges that lie
// inside one value bucket, which crack the one sub-bucket holding both
// bounds, or the two holding them (edges-one-bucket-two-subs-spread:
// x >= -1 AND x < 0 over a table whose x is spread, in a bucket holding
// several values — a tiled table of the pools' values holds one value
// per bucket, every bound of which lies in one sub-bucket, as
// edges-one-bucket-two-subs's range below the column's least value, in
// bucket 0, now does); and ranges
// over the run-length column r, which has no value index and answers as
// exact mode does (no-index-rle). In every
// entry the last asking of a query builds no cracker, so a change that
// stops crackers being kept or found again fails on the corpus itself,
// not only in a long fuzzing run.
func TestCrackedFuzzCorpusReachesEdges(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzCrackedVsExact", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus (%v)", err)
	}
	reached := map[string]int{}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitN(strings.TrimSpace(string(raw)), "\n", 2)
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if lines[0] != "go test fuzz v1" || err != nil {
			t.Fatalf("%s: not a v1 corpus entry (%v)", f, err)
		}
		name := filepath.Base(f)
		crackedCase(t, []byte(s), func(q exec.Query, round int, run crackedRun) {
			all, _ := run.crack["edges"].(int64)
			scanned, _ := run.crack["edges_scanned"].(int64)
			edges := all - scanned // probed through a cracker
			if round == crackTouch && run.crack["edges_built"] != nil && run.crack["edges_built"] != int64(0) {
				t.Errorf("%s: %s asked for the last time built %v crackers", name, q, run.crack["edges_built"])
			}
			switch {
			case run.cells && edges > 0 && len(q.GroupBy) == 0:
				reached["cells and edges, scalar"]++
			case run.cells && edges > 0:
				reached["cells and edges, grouped"]++
			case run.crack["buckets"] == int64(1) && edges == 1:
				reached["one bucket"]++
			case run.crack["buckets"] == int64(1) && edges == 2:
				reached["one bucket, two sub-buckets"]++
			case run.crack["fallback"] == "no index":
				reached["no index"]++
			}
		})
	}
	for _, want := range []string{"cells and edges, scalar", "cells and edges, grouped", "one bucket",
		"one bucket, two sub-buckets", "no index"} {
		if reached[want] == 0 {
			t.Errorf("no corpus entry reaches %s: %v", want, reached)
		}
	}
}
