package core

import (
	"math"
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
// a projection under LIMIT — none of them with ORDER BY. Each query runs
// twice in cracked mode, the second time against the cuts the first one
// left, and must answer exactly what the reference evaluator exec.Execute
// answers, in order: rows, groups and MIN ties, SUM up to float
// association. The shapes are drawn after every WHERE clause, so inputs
// from before they existed decode to the same tables and clauses.
// testdata/fuzz/FuzzCrackedVsExact holds one input per bug this caught —
// zone pruning and cracking at 2^53, the type's maximum at the top of a
// range, and a NULL stalling the partition loop — and one per shape.

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

func FuzzCrackedVsExact(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := &crackFzReader{b: data}
		opt := Options{
			Seed:         1,
			CrackOptions: crack.Options{Variant: crack.Variant(fr.draw(3)), StochasticMin: 4, SortMin: 4, Seed: 1},
			Exec:         exec.ExecOptions{Parallelism: 2, MorselSize: []int{2, 16, 1024}[fr.draw(3)]},
		}
		n := fr.draw(48)
		id, k, r := make([]int64, n), make([]int64, n), make([]int64, n)
		x := make([]float64, n)
		for i := range id {
			id[i] = int64(i)
			k[i] = crackFzInts[fr.draw(len(crackFzInts))]
			x[i] = crackFzFloats[fr.draw(len(crackFzFloats))]
			r[i] = crackFzInts[fr.draw(len(crackFzInts))]
		}
		schema := storage.Schema{
			{Name: "id", Type: storage.TInt}, {Name: "k", Type: storage.TInt},
			{Name: "r", Type: storage.TInt}, {Name: "x", Type: storage.TFloat},
		}
		plain, err := storage.FromColumns("t", schema, []storage.Column{
			storage.NewIntColumn(id), storage.NewIntColumn(k), storage.NewIntColumn(r), storage.NewFloatColumn(x),
		})
		if err != nil {
			t.Fatal(err)
		}
		enc, err := storage.FromColumns("t", schema, []storage.Column{
			storage.NewIntColumn(id), storage.NewIntColumn(k), storage.EncodeRLE(r), storage.NewFloatColumn(x),
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
			switch fr.draw(3) {
			case 1:
				query.Select = []exec.SelectItem{{Col: "k"}, {Col: "*", Agg: exec.AggCount},
					{Col: "x", Agg: exec.AggSum}, {Col: "x", Agg: exec.AggMin}}
				query.GroupBy = []string{"k"}
			case 2:
				query.Limit = 1 + fr.draw(5)
			}
			want, err := exec.Execute(plain, query)
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
			}
		}
	})
}
