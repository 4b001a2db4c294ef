package storage

import (
	"errors"
	"math"
	"slices"
	"testing"

	"dex/internal/fault"
)

// The value index skips a morsel when its bucket run holds none of the
// morsel's rows — the job per-morsel min/max zone maps did before it. The
// tests that pinned the zone maps keep their names, as the zone_skipped
// counters do, and pin the index's morsel skipping instead.

func zmTable(t *testing.T) *Table {
	t.Helper()
	tab, err := NewTable("zm", Schema{
		{Name: "i", Type: TInt},
		{Name: "f", Type: TFloat},
		{Name: "s", Type: TString},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Three morsels of 4 at morsel size 4: i covers [0,3], [10,13], [20,23];
	// f mirrors it scaled by 1.5, with morsel 1 all-NaN.
	for m := 0; m < 3; m++ {
		for k := 0; k < 4; k++ {
			f := float64(m*10+k) * 1.5
			if m == 1 {
				f = math.NaN()
			}
			if err := tab.AppendRow(Int(int64(m*10+k)), Float(f), String_("x")); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tab
}

// intSkips reports whether x skips morsel m for the integer range [lo, hi].
func intSkips(x *ValueIndex, m int, lo, hi int64) bool {
	bl, bh := x.IntRange(lo, hi)
	return x.Count(m, bl, bh) == 0
}

// TestIndexBuildAndPrune pins which morsels of a small INT column the
// index skips. All twelve values are split points, so a range whose bounds
// are values of the column skips exactly the morsels holding none of its
// rows; a bound between two values widens the run to the bucket of the
// value below it, so a skip stays sound but may be missed.
func TestIndexBuildAndPrune(t *testing.T) {
	tab := zmTable(t)
	x, built, err := tab.ValueIndex("i", 4)
	if err != nil || x == nil || !built {
		t.Fatalf("index = %v, built %v, err %v", x, built, err)
	}
	cases := []struct {
		m      int
		lo, hi int64
		skip   bool
	}{
		{0, 0, 3, false},             // exact cover
		{0, 10, 100, true},           // entirely above morsel 0
		{1, 0, 3, true},              // entirely below morsel 1
		{1, 13, 13, false},           // touches morsel 1's max
		{1, 13, 12, true},            // an empty range skips every morsel
		{2, 24, 30, false},           // 24 shares the bucket of 23
		{2, 23, 23, false},           // touches morsel 2's max
		{2, math.MinInt64, 13, true}, // below morsel 2
		{0, 4, 9, false},             // 4..9 share the bucket of 3
	}
	for _, c := range cases {
		if got := intSkips(x, c.m, c.lo, c.hi); got != c.skip {
			t.Errorf("morsel %d, [%d,%d]: skip %v, want %v", c.m, c.lo, c.hi, got, c.skip)
		}
	}
	vals := []int64{0, 1, 2, 3, 10, 11, 12, 13, 20, 21, 22, 23}
	for lo := int64(-2); lo <= 25; lo++ {
		for hi := int64(-2); hi <= 25; hi++ {
			for m := 0; m < 3; m++ {
				none := true
				for _, v := range vals[4*m : 4*m+4] {
					none = none && (v < lo || v > hi)
				}
				exact := slices.Contains(vals, lo) && slices.Contains(vals, hi)
				if got := intSkips(x, m, lo, hi); got && !none || exact && got != none {
					t.Fatalf("morsel %d, [%d,%d]: skip %v, holds a match %v", m, lo, hi, got, !none)
				}
			}
		}
	}
}

// TestIndexFloatNaNMorsel: a morsel holding only NaN (NULL) has no row in
// any bucket, so every range skips it, the widest one included.
func TestIndexFloatNaNMorsel(t *testing.T) {
	tab := zmTable(t)
	x, _, err := tab.ValueIndex("f", 4)
	if err != nil || x == nil {
		t.Fatalf("index = %v, err %v", x, err)
	}
	count := func(m int, lo, hi float64) int {
		bl, bh := x.FloatRange(lo, hi)
		return x.Count(m, bl, bh)
	}
	if c := count(1, math.Inf(-1), math.Inf(1)); c != 0 {
		t.Errorf("all-NaN morsel: %d candidates for (-Inf, +Inf)", c)
	}
	if c := x.Count(1, 0, NumBuckets-1); c != 0 {
		t.Errorf("all-NaN morsel: %d candidates in every bucket", c)
	}
	if c := count(0, 0, 1); c == 0 {
		t.Error("morsel 0 skipped by [0,1] but holds 0..4.5")
	}
	if c := count(2, 0, 29); c != 0 {
		t.Errorf("morsel 2 (30..34.5): %d candidates for [0,29]", c)
	}
	if c := count(0, math.Inf(-1), math.Inf(1)); c != 4 {
		t.Errorf("morsel 0: %d candidates for (-Inf, +Inf), want its 4 rows", c)
	}
}

// TestZoneMapUnsupportedAndEmpty: a string column, a morsel size the index
// cannot serve and an empty column get no index and no error; an unknown
// column is an error.
func TestIndexUnsupportedAndEmpty(t *testing.T) {
	tab := zmTable(t)
	for _, c := range []struct {
		col    string
		morsel int
	}{{"s", 4}, {"i", 0}, {"f", MaxIndexMorsel + 1}} {
		if x, built, err := tab.ValueIndex(c.col, c.morsel); x != nil || built || err != nil {
			t.Errorf("%s at morsel %d: x=%v built=%v err=%v, want none", c.col, c.morsel, x, built, err)
		}
	}
	if _, _, err := tab.ValueIndex("nope", 4); err == nil {
		t.Error("missing column: want error")
	}
	empty, err := NewTable("e", Schema{{Name: "i", Type: TInt}})
	if err != nil {
		t.Fatal(err)
	}
	if x, _, err := empty.ValueIndex("i", 4); x != nil || err != nil {
		t.Errorf("empty column: x=%v err=%v, want none", x, err)
	}
}

// TestZoneMapCacheAndStaleness: a second lookup shares the cached index, a
// morsel size is its own entry, and growing the table rebuilds the index,
// which then counts the new row — a stale index would skip its morsel.
func TestIndexCacheAndStaleness(t *testing.T) {
	tab := zmTable(t)
	x1, _, err := tab.ValueIndex("i", 4)
	if err != nil {
		t.Fatal(err)
	}
	if x2, built, _ := tab.ValueIndex("i", 4); x2 != x1 || built {
		t.Error("second lookup did not hit the cache")
	}
	if x3, built, _ := tab.ValueIndex("i", 6); x3 == x1 || !built {
		t.Errorf("morsel-6 index %p built %v: want its own build", x3, built)
	}
	if err := tab.AppendRow(Int(99), Float(1), String_("y")); err != nil {
		t.Fatal(err)
	}
	x4, built, err := tab.ValueIndex("i", 4)
	if err != nil || x4 == x1 || !built {
		t.Fatalf("after AppendRow: index %p (was %p), built %v, err %v; want a rebuild", x4, x1, built, err)
	}
	if intSkips(x4, 3, 99, 99) {
		t.Error("rebuilt index skips the morsel holding the new row")
	}
}

// TestZoneMapBuildFailpoint: an armed storage/index-build fails a value
// index build and a bucket cell build with the injected error, and leaves
// the entry unbuilt — disarmed, the next request builds and serves it.
func TestIndexBuildFailpoint(t *testing.T) {
	fault.Reset()
	defer fault.Reset()
	tab := zmTable(t)
	if err := fault.Enable("storage/index-build", "error"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tab.ValueIndex("i", 4); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("armed build: err = %v, want injected", err)
	}
	fault.Disable("storage/index-build")
	if x, built, err := tab.ValueIndex("i", 4); err != nil || x == nil || !built {
		t.Fatalf("post-fault build: x=%v built=%v err=%v", x, built, err)
	}

	const n = 4096
	xs, ys := make([]float64, n), make([]int64, n)
	for i := range xs {
		xs[i], ys[i] = float64(i%97), int64(i%61)
	}
	wide, err := FromColumns("w", Schema{{Name: "x", Type: TFloat}, {Name: "y", Type: TInt}},
		[]Column{NewFloatColumn(xs), NewIntColumn(ys)})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := wide.ValueIndex("y", 256); err != nil {
		t.Fatal(err)
	}
	// The index is built: the one hit is the cells' own build.
	if err := fault.Enable("storage/index-build", "error-once"); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := wide.BucketCells("y", "", "x", 256); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("armed cell build: err = %v, want injected", err)
	}
	if c, x, built, err := wide.BucketCells("y", "", "x", 256); err != nil || c == nil || x == nil || !built {
		t.Fatalf("post-fault cell build: cells %v, index %v, built %v, err %v", c, x, built, err)
	}
}
