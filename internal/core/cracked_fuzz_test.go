package core

import (
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
// by an aggregate the crack pieces' cells answer (cellAsk), over a
// dictionary column g derived from id and chosen by the same draw, so it
// costs no byte. Each query runs twice in cracked mode, the second time
// against the cuts the first one left — and the cell ask against the sets
// its first run built — and must answer exactly what the reference
// evaluator exec.Execute answers, in order: rows, groups and MIN/MAX ties,
// SUM up to float association. The shapes are drawn after every WHERE
// clause, so inputs from before they existed decode to the same tables
// and clauses. testdata/fuzz/FuzzCrackedVsExact holds one input per bug
// this caught — zone pruning and cracking at 2^53, the type's maximum at
// the top of a range, and a NULL stalling the partition loop — one per
// shape, and three whose second round folds the sets the first built
// (parts-*; TestCrackedFuzzCorpusReusesSets).

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

// cellAsk is the aggregate the pieces' cells answer after an ask of the
// given shape draw: over x, scalar and grouped by g, and over k — whose
// int64 extremes and 2^53 neighbours tie in float64 — grouped by g, with
// no SUM, which those would make depend on association.
func cellAsk(shape int, where *expr.Pred) exec.Query {
	in := "x"
	if shape == 2 {
		in = "k"
	}
	q := exec.Query{Where: where, Select: []exec.SelectItem{{Col: "*", Agg: exec.AggCount},
		{Col: in, Agg: exec.AggCount}, {Col: in, Agg: exec.AggMin}, {Col: in, Agg: exec.AggMax}}}
	if in == "x" {
		q.Select = append(q.Select, exec.SelectItem{Col: in, Agg: exec.AggSum}, exec.SelectItem{Col: in, Agg: exec.AggAvg})
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

// crackedCase decodes and runs one FuzzCrackedVsExact input; seen, when
// set, gets the crack span of every cell ask's two runs.
func crackedCase(t *testing.T, data []byte, seen func(q exec.Query, round int, crack map[string]any)) {
	fr := &crackFzReader{b: data}
	opt := Options{
		Seed:         1,
		CrackOptions: crack.Options{Variant: crack.Variant(fr.draw(3)), StochasticMin: 4, SortMin: 4, Seed: 1},
		Exec:         exec.ExecOptions{Parallelism: 2, MorselSize: []int{2, 16, 1024}[fr.draw(3)]},
	}
	n := fr.draw(48)
	id, k, r := make([]int64, n), make([]int64, n), make([]int64, n)
	x := make([]float64, n)
	g := make([]string, n)
	for i := range id {
		id[i] = int64(i)
		g[i] = []string{"a", "b", "c"}[i%3]
		k[i] = crackFzInts[fr.draw(len(crackFzInts))]
		x[i] = crackFzFloats[fr.draw(len(crackFzFloats))]
		r[i] = crackFzInts[fr.draw(len(crackFzInts))]
	}
	schema := storage.Schema{
		{Name: "id", Type: storage.TInt}, {Name: "k", Type: storage.TInt},
		{Name: "r", Type: storage.TInt}, {Name: "x", Type: storage.TFloat}, {Name: "g", Type: storage.TString},
	}
	plain, err := storage.FromColumns("t", schema, []storage.Column{
		storage.NewIntColumn(id), storage.NewIntColumn(k), storage.NewIntColumn(r), storage.NewFloatColumn(x),
		storage.NewStringColumn(g),
	})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := storage.FromColumns("t", schema, []storage.Column{
		storage.NewIntColumn(id), storage.NewIntColumn(k), storage.EncodeRLE(r), storage.NewFloatColumn(x),
		storage.EncodeDict(g),
	})
	if err != nil {
		t.Fatal(err)
	}
	e := New(opt)
	if err := e.Register(enc); err != nil {
		t.Fatal(err)
	}
	wheres := make([]*expr.Pred, 1+fr.draw(3))
	for q := range wheres {
		col := []string{"k", "r", "x"}[fr.draw(3)]
		leaves := make([]*expr.Pred, 1+fr.draw(3))
		for i := range leaves {
			leaves[i] = expr.Cmp(col, crackFzOps[fr.draw(len(crackFzOps))], fr.value())
		}
		wheres[q] = leaves[0]
		if len(leaves) > 1 {
			wheres[q] = expr.And(leaves...)
		}
	}
	for _, where := range wheres {
		query := exec.Query{
			Select: []exec.SelectItem{{Col: "id"}, {Col: "k"}, {Col: "r"}, {Col: "x"}},
			Where:  where,
		}
		shape := fr.draw(3)
		switch shape {
		case 1:
			query.Select = []exec.SelectItem{{Col: "k"}, {Col: "*", Agg: exec.AggCount},
				{Col: "x", Agg: exec.AggSum}, {Col: "x", Agg: exec.AggMin}}
			query.GroupBy = []string{"k"}
		case 2:
			query.Limit = 1 + fr.draw(5)
		}
		cell := cellAsk(shape, where)
		want, err := exec.Execute(plain, query)
		if err != nil {
			t.Fatal(err)
		}
		wantCell, err := exec.Execute(plain, cell)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			got, err := e.Execute("t", query, Cracked)
			if err != nil {
				t.Fatalf("%s: %v", query, err)
			}
			if err := tablesMatch(want, got); err != nil {
				t.Fatalf("%v, morsel %d, round %d, %s: %v", opt.CrackOptions.Variant,
					opt.Exec.MorselSize, round, query, err)
			}
			got, crack := crackSpan(t, e, cell)
			if err := tablesMatch(wantCell, got); err != nil {
				t.Fatalf("%v, morsel %d, round %d, %s: %v", opt.CrackOptions.Variant,
					opt.Exec.MorselSize, round, cell, err)
			}
			if seen != nil {
				seen(cell, round, crack)
			}
		}
	}
}

// TestCrackedFuzzCorpusReusesSets requires FuzzCrackedVsExact's corpus to
// reach the piece partials: entries whose cell asks fold in their second
// round only the sets their first round built — scalar, grouped over x,
// grouped over k (whose extremes tie in float64), and behind a one-sided
// WHERE, the top bound ProbePartsFrom serves — so a change that stops sets
// being kept or found again fails on the corpus itself, not only in a
// long fuzzing run. The parts-* entries were checked in for this, and each
// must reach it.
func TestCrackedFuzzCorpusReusesSets(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzCrackedVsExact", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus (%v)", err)
	}
	reused := map[string]int{}
	entries := 0
	for _, f := range files {
		before := reused["scalar"] + reused["grouped over x"] + reused["grouped over k"]
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitN(strings.TrimSpace(string(raw)), "\n", 2)
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if lines[0] != "go test fuzz v1" || err != nil {
			t.Fatalf("%s: not a v1 corpus entry (%v)", f, err)
		}
		crackedCase(t, []byte(s), func(q exec.Query, round int, crack map[string]any) {
			if parts, _ := crack["parts"].(int64); round == 0 || parts == 0 || crack["parts_built"] != int64(0) {
				return
			}
			switch {
			case len(q.GroupBy) == 0:
				reused["scalar"]++
			default:
				reused["grouped over "+q.Select[2].Col]++
			}
			if q.Where.Kind == expr.KCmp && q.Where.Op == expr.GE {
				reused["one-sided"]++
			}
		})
		if strings.HasPrefix(filepath.Base(f), "parts-") {
			entries++
			if reused["scalar"]+reused["grouped over x"]+reused["grouped over k"] == before {
				t.Errorf("%s: no cell ask folds only built sets in its second round", f)
			}
		}
	}
	if entries < 3 {
		t.Errorf("%d parts-* corpus entries; want the 3 checked in", entries)
	}
	for _, want := range []string{"scalar", "grouped over x", "grouped over k", "one-sided"} {
		if reused[want] == 0 {
			t.Errorf("no %s cell ask folds only built sets in its second round: %v", want, reused)
		}
	}
}
