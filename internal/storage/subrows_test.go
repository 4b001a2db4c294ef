package storage_test

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"dex/internal/fault"
	"dex/internal/storage"
)

// scanSubs returns, per (bucket, sub-bucket), the rows of the plain numeric
// column col whose value the index's bounds put there, ascending, from a
// scan of the column: the oracle of the row lists.
func scanSubs(t *testing.T, b *storage.ValueBuckets, c storage.Column) map[[2]int][]int32 {
	t.Helper()
	want := map[[2]int][]int32{}
	for r := 0; r < c.Len(); r++ {
		if k, j, ok := subOfRow(b, c, r); ok {
			want[[2]int{k, j}] = append(want[[2]int{k, j}], int32(r))
		}
	}
	return want
}

// checkSubRows holds every (bucket, sub-bucket) row list of col's index at
// the morsel size to scanSubs, and returns how many sub-buckets were empty.
func checkSubRows(t *testing.T, tab *storage.Table, col string, morsel int) (empty int) {
	t.Helper()
	vi, _, err := tab.ValueIndex(col, morsel)
	if err != nil || vi == nil {
		t.Fatalf("%s at %d: index %v, err %v", col, morsel, vi, err)
	}
	c, _ := tab.ColumnByName(col)
	want := scanSubs(t, vi.ValueBuckets, c)
	for b := 0; b < storage.NumBuckets; b++ {
		for j := 0; j < storage.NumSubBuckets; j++ {
			rows, _, err := vi.SubRows(b, j)
			if err != nil {
				t.Fatal(err)
			}
			if w := want[[2]int{b, j}]; !slices.Equal(rows, w) || len(rows) != cap(rows) {
				t.Fatalf("%s at morsel %d, bucket %d sub-bucket %d: %d rows listed (cap %d), %d scanned",
					col, morsel, b, j, len(rows), cap(rows), len(w))
			}
			if len(rows) == 0 {
				empty++
			}
		}
	}
	return empty
}

// TestSubRowsMatchIndex holds each (bucket, sub-bucket) row list to a scan
// of its column: exactly the rows whose value IntRange and IntSub (or
// FloatRange and FloatSub) put there, ascending, in a slice of exactly
// their count. The columns are the adversarial ones — the int64 extremes,
// 2^53 neighbours, NaN, ±Inf, both zeros, 9 values (most buckets empty),
// all-equal, all-NULL — at morsel sizes from 64 to the 16-bit limit, and
// again after AppendRow grows the table and the index is rebuilt.
func TestSubRowsMatchIndex(t *testing.T) {
	tab := viTable(t, rand.New(rand.NewSource(40)), 20_001)
	cols := []string{"iw", "fw", "i9", "f9", "is", "fs", "fn"}
	empty := 0
	for _, m := range []int{64, 1000, storage.MaxIndexMorsel} {
		for _, col := range cols {
			empty += checkSubRows(t, tab, col, m)
		}
	}
	if empty == 0 {
		t.Fatal("no empty sub-bucket met")
	}
	for i := 0; i < 300; i++ {
		if err := tab.AppendRow(storage.Int(5000+int64(i)), storage.Int(10), storage.Int(7),
			storage.Float(1e6), storage.Float(math.NaN()), storage.Float(2.5), storage.Float(1)); err != nil {
			t.Fatal(err)
		}
	}
	for _, col := range cols {
		if _, built, err := tab.ValueIndex(col, 1000); !built || err != nil {
			t.Fatalf("%s after AppendRow: built %v, err %v; want a rebuild", col, built, err)
		}
		checkSubRows(t, tab, col, 1000)
	}
}

// TestMergeListsMergesAscending: MergeLists over disjoint ascending lists,
// empty ones among them, appends their rows in one ascending run after what
// dst holds — two lists head to head, more through the bitmap, whose rows
// here span several of its windows, densely or a few far apart.
func TestMergeListsMergesAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 120; trial++ {
		lists := make([][]int32, rng.Intn(17))
		var all []int
		gap := []int{1, 40, 70_000}[trial%3]
		for r := 0; r < 200_000; r += 1 + rng.Intn(gap) {
			if len(lists) > 0 && rng.Intn(3) > 0 {
				l := rng.Intn(len(lists))
				lists[l] = append(lists[l], int32(r))
				all = append(all, r)
			}
		}
		got := storage.MergeLists([]int{-1}, lists)
		if want := append([]int{-1}, all...); !slices.Equal(got, want) {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			t.Fatalf("trial %d, %d lists: %d rows merged, %d listed; first difference at %d", trial, len(lists), len(got), len(want), i)
		}
	}
}

// TestEmptyBucketHasOneSubBucket: a bucket no sampled value fell in gives
// every value it can hold one sub-bucket. Bucket 0 of a column whose least
// sampled value is its first split holds only values below every sampled
// one: a range there over positive values, lo <= 0, lies in one sub-bucket
// of it, on an INT and on a FLOAT column.
func TestEmptyBucketHasOneSubBucket(t *testing.T) {
	const n = 100 // fewer rows than buckets: the first split is the least value
	is, fs := make([]int64, n), make([]float64, n)
	for i := range is {
		is[i], fs[i] = int64(1+i), float64(1+i)/4
	}
	tab, err := storage.FromColumns("e", storage.Schema{{Name: "i", Type: storage.TInt}, {Name: "f", Type: storage.TFloat}},
		[]storage.Column{storage.NewIntColumn(is), storage.NewFloatColumn(fs)})
	if err != nil {
		t.Fatal(err)
	}
	ib, _ := tab.ValueBuckets("i")
	fb, _ := tab.ValueBuckets("f")
	for _, r := range [][2]int64{{-5, 0}, {math.MinInt64, 0}, {-1, -1}} {
		bl, bh := ib.IntRange(r[0], r[1])
		if bl != 0 || bh != 0 {
			t.Fatalf("INT [%d, %d]: bucket run [%d, %d]; want bucket 0", r[0], r[1], bl, bh)
		}
		if sl, sh := ib.IntSub(0, r[0]), ib.IntSub(0, r[1]); sl != sh {
			t.Errorf("INT [%d, %d]: sub-buckets %d and %d of bucket 0; want one", r[0], r[1], sl, sh)
		}
	}
	for _, r := range [][2]float64{{-1, 0}, {math.Inf(-1), 0.2}, {-0.5, -0.25}} {
		bl, bh := fb.FloatRange(r[0], r[1])
		if bl != 0 || bh != 0 {
			t.Fatalf("FLOAT [%v, %v]: bucket run [%d, %d]; want bucket 0", r[0], r[1], bl, bh)
		}
		if sl, sh := fb.FloatSub(0, r[0]), fb.FloatSub(0, r[1]); sl != sh {
			t.Errorf("FLOAT [%v, %v]: sub-buckets %d and %d of bucket 0; want one", r[0], r[1], sl, sh)
		}
	}
}

// TestConcurrentSubRowsBuiltOnce: concurrent first callers of one
// sub-bucket's row list share one build — exactly one reports built, and
// every caller gets the same list — and a later call builds nothing.
func TestConcurrentSubRowsBuiltOnce(t *testing.T) {
	tab := viTable(t, rand.New(rand.NewSource(42)), 50_000)
	vi, _, err := tab.ValueIndex("fw", 1024)
	if err != nil || vi == nil {
		t.Fatal(vi, err)
	}
	const callers = 16
	got, builds := make([][]int32, callers), make([]bool, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if got[i], builds[i], err = vi.SubRows(100, 3); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	n := 0
	for i := range got {
		if len(got[i]) == 0 || &got[i][0] != &got[0][0] {
			t.Fatalf("caller %d got another list (%d rows)", i, len(got[i]))
		}
		if builds[i] {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("%d builds; want 1", n)
	}
	if again, built, err := vi.SubRows(100, 3); built || err != nil || &again[0] != &got[0][0] {
		t.Fatalf("a later call: built %v, err %v; want the cached list", built, err)
	}
}

// TestSubRowsIndexBuildFaultRetried: an armed storage/index-build
// failpoint fails the first build of a row list among concurrent first
// callers, with the injected error; one other caller builds the list, and
// the rest share that build.
func TestSubRowsIndexBuildFaultRetried(t *testing.T) {
	fault.Reset()
	defer fault.Reset()
	tab := viTable(t, rand.New(rand.NewSource(43)), 50_000)
	vi, _, err := tab.ValueIndex("iw", 1024)
	if err != nil || vi == nil {
		t.Fatal(vi, err)
	}
	if err := fault.Enable("storage/index-build", "error-once"); err != nil {
		t.Fatal(err)
	}
	const callers = 8
	type result struct {
		rows  []int32
		built bool
		err   error
	}
	out := make([]result, callers)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &out[i]
			r.rows, r.built, r.err = vi.SubRows(200, 5)
		}()
	}
	wg.Wait()
	failed, builds := 0, 0
	var shared []int32
	for _, r := range out {
		switch {
		case r.err != nil:
			if !errors.Is(r.err, fault.ErrInjected) {
				t.Fatalf("caller error %v; want the injected one", r.err)
			}
			failed++
			continue
		case len(r.rows) == 0 || shared != nil && &r.rows[0] != &shared[0]:
			t.Fatalf("caller got a list of %d rows; want the one build's", len(r.rows))
		case r.built:
			builds++
		}
		shared = r.rows
	}
	if failed != 1 || builds != 1 {
		t.Fatalf("%d callers failed and %d built; want one of each", failed, builds)
	}
}
