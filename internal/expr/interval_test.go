package expr

import (
	"fmt"
	"math"
	"testing"

	"dex/internal/storage"
)

// inIntervals reports whether row lies inside every interval.
func inIntervals(t *testing.T, tab *storage.Table, ivs []Interval, row int) bool {
	t.Helper()
	for _, iv := range ivs {
		c, err := tab.ColumnByName(iv.Col)
		if err != nil {
			t.Fatal(err)
		}
		v := c.Value(row)
		if iv.Float && !(v.F >= iv.FLo && v.F <= iv.FHi) || !iv.Float && !(v.I >= iv.ILo && v.I <= iv.IHi) {
			return false
		}
	}
	return true
}

// requireIntervals checks the extractor's contract on one predicate over
// every row of tab against the FilterRange oracle: each qualifying row lies
// inside the intervals, and when they are the whole predicate, exactly the
// qualifying rows do.
func requireIntervals(t *testing.T, tab *storage.Table, p *Pred) {
	t.Helper()
	sel, err := Filter(tab, p)
	if err != nil {
		t.Fatal(err)
	}
	match := make([]bool, tab.NumRows())
	for _, r := range sel {
		match[r] = true
	}
	ivs, reason := Intervals(tab.Schema(), p)
	for r := range match {
		in := inIntervals(t, tab, ivs, r)
		if match[r] && !in || reason == "" && in != match[r] {
			t.Fatalf("%s, row %d: oracle %v, in %+v %v (reason %q)", p, r, match[r], ivs, in, reason)
		}
	}
}

// TestIntervalsExhaustive: for an INT and a FLOAT column holding every
// pool value (int64 extremes, 2^53 neighbours, ints near ±2^63 that round
// up or down to a double, NaN, ±Inf), every operator against every pool
// constant of both types — FLOAT ones at ±2^63 and 2^63−1024 included,
// where an INT column's interval comes from the bisection — alone and in
// every pair on one column, either yields no interval or yields the exact
// one.
func TestIntervalsExhaustive(t *testing.T) {
	ints := storage.NewIntColumn(append([]int64{2, 3, -2, -3, 1<<53 - 1, 1<<53 + 2, -(1 << 53),
		math.MaxInt64 - 512, math.MaxInt64 - 1023, math.MaxInt64 - 1536, math.MinInt64 + 512, math.MinInt64 + 513}, fzInts...))
	floats := storage.NewFloatColumn(append([]float64{-0.0, math.MaxFloat64, 1<<53 + 2}, fzFloats...))
	var consts []storage.Value
	for _, v := range fzInts {
		consts = append(consts, storage.Int(v))
	}
	for _, v := range append([]float64{2.5, 1<<53 - 0.5, -(1<<53 - 0.5), 9.5e18, 1<<63 - 2048, 1<<63 + 2048}, fzFloats...) {
		consts = append(consts, storage.Float(v))
	}
	var leaves []*Pred
	for _, op := range kernelOps {
		for _, c := range consts {
			leaves = append(leaves, Cmp("v", op, c))
		}
	}
	for _, col := range []storage.Column{ints, floats} {
		tab, err := storage.FromColumns("t", storage.Schema{{Name: "v", Type: col.Type()}}, []storage.Column{col})
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprint(col.Type()), func(t *testing.T) {
			for _, a := range leaves {
				requireIntervals(t, tab, a)
				for _, b := range leaves {
					requireIntervals(t, tab, And(a, b))
				}
			}
		})
	}
}

// TestIntervalsShapes pins what the extractor reports per shape: the
// reason a predicate is not its intervals, nested ANDs flattening, and an
// unsatisfiable conjunction as an explicit empty interval.
func TestIntervalsShapes(t *testing.T) {
	schema := storage.Schema{{Name: "k", Type: storage.TInt}, {Name: "x", Type: storage.TFloat}, {Name: "s", Type: storage.TString}}
	k5, x5 := Cmp("k", GE, storage.Int(5)), Cmp("x", LT, storage.Float(5))
	cases := []struct {
		p      *Pred
		cols   int
		reason string
	}{
		{nil, 0, ""},
		{True(), 0, ""},
		{And(k5, And(x5, True())), 2, ""},
		{And(k5, Cmp("k", LT, storage.Int(9))), 1, ""},
		{And(k5, Or(x5, x5)), 1, "not an interval"},
		{And(Not(x5), k5), 1, "not an interval"},
		{And(k5, Cmp("k", NE, storage.Int(7))), 1, "not an interval"},
		{And(k5, Like("s", "a%")), 1, "not an interval"},
		{And(k5, Cmp("s", EQ, storage.String_("a"))), 1, "not numeric"},
		{Cmp("k", EQ, storage.String_("a")), 0, "not numeric"},
		{Cmp("nope", EQ, storage.Int(1)), 0, "not numeric"},
		{And(Cmp("k", LE, storage.Float(1<<53)), k5), 1, ""},
		{Cmp("k", GT, storage.Float(math.NaN())), 1, ""},
		{Cmp("k", LT, storage.Float(math.Inf(1))), 1, ""},
	}
	for _, c := range cases {
		ivs, reason := Intervals(schema, c.p)
		if len(ivs) != c.cols || reason != c.reason {
			t.Errorf("%s: %d intervals, reason %q; want %d, %q", c.p, len(ivs), reason, c.cols, c.reason)
		}
	}
	for _, p := range []*Pred{
		And(k5, Cmp("k", LT, storage.Int(5))),
		Cmp("k", GT, storage.Int(math.MaxInt64)),
		Cmp("k", EQ, storage.Float(2.5)),
		And(x5, Cmp("x", GT, storage.Float(5))),
		Cmp("x", GT, storage.Float(math.Inf(1))),
		Cmp("x", EQ, storage.Float(math.NaN())),
		Cmp("k", GT, storage.Float(math.NaN())),
		Cmp("k", GE, storage.Float(1<<63+4096)),
	} {
		ivs, reason := Intervals(schema, p)
		if reason != "" || len(ivs) != 1 || !ivs[0].Empty() {
			t.Errorf("%s: got %+v, %q; want one empty interval", p, ivs, reason)
		}
	}
}

// TestIntervalAbove: the exclusive bound a half-open probe takes, and none
// at the type's maximum.
func TestIntervalAbove(t *testing.T) {
	if hi, ok := (Interval{IHi: 41}).IntAbove(); !ok || hi != 42 {
		t.Errorf("IntAbove(41) = %d, %v", hi, ok)
	}
	if _, ok := (Interval{IHi: math.MaxInt64}).IntAbove(); ok {
		t.Error("IntAbove(MaxInt64) has a bound")
	}
	if hi, ok := (Interval{Float: true, FHi: 1}).FloatAbove(); !ok || hi != math.Nextafter(1, 2) {
		t.Errorf("FloatAbove(1) = %v, %v", hi, ok)
	}
	if _, ok := (Interval{Float: true, FHi: math.Inf(1)}).FloatAbove(); ok {
		t.Error("FloatAbove(+Inf) has a bound")
	}
}
