package crack

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"dex/internal/fault"
)

// oracle returns the row ids matching [lo,hi) by brute force over the
// original column plus live inserts.
func oracle(col []int64, lo, hi int64) []int {
	var out []int
	for i, v := range col {
		if v >= lo && v < hi {
			out = append(out, i)
		}
	}
	return out
}

// sameRows reports whether a probe's rows are exactly want, in order: every
// probe returns its row ids ascending, the order oracle gives.
func sameRows(got, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// sameSet compares two row lists ignoring order (SortedIndex answers in
// value order).
func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]int(nil), a...)
	bs := append([]int(nil), b...)
	sort.Ints(as)
	sort.Ints(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func randCol(rng *rand.Rand, n, domain int) []int64 {
	col := make([]int64, n)
	for i := range col {
		col[i] = int64(rng.Intn(domain))
	}
	return col
}

func testVariantCorrect(t *testing.T, v Variant) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	col := randCol(rng, 5000, 1000)
	ix := New(col, Options{Variant: v, StochasticMin: 64, SortMin: 64, Seed: 1})
	for q := 0; q < 300; q++ {
		lo := int64(rng.Intn(1000))
		hi := lo + int64(rng.Intn(100))
		got := ix.Query(lo, hi)
		want := oracle(col, lo, hi)
		if !sameRows(got, want) {
			t.Fatalf("%v query %d [%d,%d): got %d rows, want %d", v, q, lo, hi, len(got), len(want))
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatalf("%v: %v", v, err)
	}
	if ix.NumPieces() < 10 {
		t.Errorf("%v: expected many pieces after 300 queries, got %d", v, ix.NumPieces())
	}
}

func TestStandardCorrect(t *testing.T)   { testVariantCorrect(t, Standard) }
func TestStochasticCorrect(t *testing.T) { testVariantCorrect(t, Stochastic) }
func TestHybridSortCorrect(t *testing.T) { testVariantCorrect(t, HybridSort) }

func TestQueryEdgeCases(t *testing.T) {
	col := []int64{5, 1, 9, 3, 7}
	ix := New(col, Options{})
	if got := ix.Query(4, 4); got != nil {
		t.Errorf("empty range = %v", got)
	}
	if got := ix.Query(9, 3); got != nil {
		t.Errorf("inverted range = %v", got)
	}
	if got := ix.Query(-100, 100); len(got) != 5 {
		t.Errorf("full range = %v", got)
	}
	if n := ix.Count(5, 6); n != 1 {
		t.Errorf("point count = %d", n)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateHeavyColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	col := randCol(rng, 2000, 5) // only 5 distinct values
	for _, v := range []Variant{Standard, Stochastic, HybridSort} {
		ix := New(col, Options{Variant: v, StochasticMin: 32, SortMin: 32})
		for q := 0; q < 50; q++ {
			lo := int64(rng.Intn(5))
			hi := lo + int64(rng.Intn(3))
			if !sameRows(ix.Query(lo, hi), oracle(col, lo, hi)) {
				t.Fatalf("%v: wrong result on duplicates", v)
			}
		}
		if err := ix.CheckInvariants(); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
	}
}

func TestCountMatchesQueryLen(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	col := randCol(rng, 3000, 500)
	ix := New(col, Options{Variant: Stochastic, StochasticMin: 128})
	for q := 0; q < 100; q++ {
		lo := int64(rng.Intn(500))
		hi := lo + int64(rng.Intn(50))
		if n, m := ix.Count(lo, hi), len(ix.Query(lo, hi)); n != m {
			t.Fatalf("count %d != query len %d", n, m)
		}
	}
}

// TestRowProbeReusesTheCallersVector: a row probe (ProbeInto) handed a
// vector with room answers inside it, ascending as the
// oracle lists rows, and allocates none of its own — its mark bitmap comes
// from the index's free list, also once Insert has grown the row space past
// that bitmap and after a Delete; one handed a short vector replaces it; an
// empty range truncates it.
func TestRowProbeReusesTheCallersVector(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	col := randCol(rng, 4000, 500)
	ix := New(col, Options{})
	buf := make([]int, 0, len(col))
	probe := func(rows []int, lo, hi int64) []int {
		t.Helper()
		rows, _, err := ix.ProbeInto(rows, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	for q := 0; q < 100; q++ {
		lo := int64(rng.Intn(500))
		hi := lo + int64(rng.Intn(120))
		want := oracle(col, lo, hi)
		got := probe(buf, lo, hi)
		if !sameRows(got, want) {
			t.Fatalf("probe %d [%d,%d): %d rows, oracle %d, or out of order", q, lo, hi, len(got), len(want))
		}
		if len(got) > 0 && &got[0] != &buf[:1][0] {
			t.Fatalf("probe %d left the caller's vector for a new one", q)
		}
	}
	if got := probe(make([]int, 0, 1), 0, 500); len(got) != len(col) {
		t.Fatalf("short vector: %d rows, want %d", len(got), len(col))
	}
	if got := probe(buf[:3], 9, 9); len(got) != 0 {
		t.Fatalf("empty range kept %d stale rows", len(got))
	}
	steady := func(stage string) {
		t.Helper()
		if n := testing.AllocsPerRun(20, func() { _, _, _ = ix.ProbeInto(buf, 100, 400) }); n != 0 {
			t.Fatalf("%s: a converged probe into a large enough vector allocated %v times", stage, n)
		}
	}
	steady("built")
	live := append([]int64(nil), col...)
	for i := 0; i < 200; i++ { // 200 rows past the 63 words the bitmap was sized to
		v := int64(rng.Intn(500))
		ix.Insert(v)
		live = append(live, v)
	}
	steady("after inserts")
	want := oracle(live, 100, 400)
	if got := probe(buf, 100, 400); !sameRows(got, want) {
		t.Fatal("after inserts: probe is not the oracle's rows in order")
	}
	if !ix.Delete(want[0]) {
		t.Fatalf("delete of live row %d reported false", want[0])
	}
	steady("after a delete")
	if got := probe(buf, 100, 400); !sameRows(got, want[1:]) {
		t.Fatal("after a delete: probe is not the oracle's live rows in order")
	}
}

// TestEscalateFaultLeavesIndexIntact: with an error policy armed at
// crack/escalate, a row probe and a probe with no upper bound that must
// crack fail with
// the injected error before they touch the column — its cuts and crack
// count stay as they were — while a probe whose bounds are cuts already,
// and Query and Count, which skip the failpoint, never fire it. Once the
// policy is gone, the next probe cracks and answers as the oracle does.
func TestEscalateFaultLeavesIndexIntact(t *testing.T) {
	defer fault.Reset()
	rng := rand.New(rand.NewSource(17))
	col := randCol(rng, 4000, 500)
	ix := New(col, Options{})
	ix.Query(100, 300)
	if err := fault.Enable("crack/escalate", "error"); err != nil {
		t.Fatal(err)
	}
	cuts, cracks := slices.Clone(ix.cuts), ix.Cracks()
	if _, _, err := ix.Probe(150, 250); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("a row probe that must crack: %v, want the injected error", err)
	}
	if _, _, err := ix.ProbeFrom(nil, 150); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("a probe with no upper bound that must crack: %v, want the injected error", err)
	}
	if !slices.Equal(ix.cuts, cuts) || ix.Cracks() != cracks {
		t.Fatalf("failed probes changed the index: %d cuts (%d before), %d cracks (%d before)",
			len(ix.cuts), len(cuts), ix.Cracks(), cracks)
	}
	fires := func() int64 { return fault.Stats()["crack/escalate"].Fires }
	fired := fires()
	rows, st, err := ix.Probe(100, 300)
	if err != nil || st.Lock != LockRead || !sameRows(rows, oracle(col, 100, 300)) {
		t.Fatalf("a converged row probe: %v under the %v lock, %d rows", err, st.Lock, len(rows))
	}
	if rows, _, err := ix.ProbeFrom(nil, 100); err != nil || len(rows) != len(col)-len(oracle(col, math.MinInt64, 100)) {
		t.Fatalf("a converged probe with no upper bound: %v, %d rows", err, len(rows))
	}
	if got := ix.Query(150, 250); !sameRows(got, oracle(col, 150, 250)) {
		t.Fatalf("Query under an armed failpoint: %d rows, oracle %d", len(got), len(oracle(col, 150, 250)))
	}
	if got, want := ix.Count(120, 260), len(oracle(col, 120, 260)); got != want {
		t.Fatalf("Count under an armed failpoint: %d, oracle %d", got, want)
	}
	if n := fires(); n != fired {
		t.Fatalf("a converged probe, Query or Count fired the failpoint %d times", n-fired)
	}
	fault.Reset()
	rows, st, err = ix.Probe(50, 450)
	if err != nil || st.Lock != LockWrite || !sameRows(rows, oracle(col, 50, 450)) {
		t.Fatalf("after Reset: %v under the %v lock, %d rows, oracle %d", err, st.Lock, len(rows), len(oracle(col, 50, 450)))
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertsVisibleAndMerged(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	col := randCol(rng, 1000, 200)
	live := append([]int64(nil), col...)
	ix := New(col, Options{MaxPending: 64})
	for i := 0; i < 500; i++ {
		v := int64(rng.Intn(200))
		row := ix.Insert(v)
		if row != len(live) {
			t.Fatalf("insert row id = %d, want %d", row, len(live))
		}
		live = append(live, v)
		if i%10 == 0 {
			lo := int64(rng.Intn(200))
			hi := lo + int64(rng.Intn(40))
			if !sameSet(ix.Query(lo, hi), oracle(live, lo, hi)) {
				t.Fatalf("wrong result after %d inserts", i+1)
			}
		}
	}
	if ix.Merges() == 0 {
		t.Error("expected at least one merge with MaxPending=64 and 500 inserts")
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	ix.Flush()
	if err := ix.CheckInvariants(); err != nil {
		t.Fatalf("after flush: %v", err)
	}
	if ix.Len() != len(live) {
		t.Errorf("len = %d, want %d", ix.Len(), len(live))
	}
}

func TestDeletes(t *testing.T) {
	col := []int64{10, 20, 30, 40, 50}
	ix := New(col, Options{})
	if !ix.Delete(2) {
		t.Error("delete live row")
	}
	if ix.Delete(2) {
		t.Error("double delete should report false")
	}
	if ix.Delete(99) {
		t.Error("delete of unknown row should report false")
	}
	got := ix.Query(0, 100)
	if len(got) != 4 {
		t.Errorf("after delete rows = %v", got)
	}
	for _, r := range got {
		if r == 2 {
			t.Error("deleted row still returned")
		}
	}
	if n := ix.Count(0, 100); n != 4 {
		t.Errorf("count after delete = %d", n)
	}
	if ix.Len() != 4 {
		t.Errorf("len after delete = %d", ix.Len())
	}
}

// TestDeleteOfANaNRowIsNotLive: New and Insert never index a NaN (NULL), so
// deleting its row removes nothing — Delete reports false and Len and the
// probes stay as they were.
func TestDeleteOfANaNRowIsNotLive(t *testing.T) {
	ix := New([]float64{1, math.NaN(), 3}, Options{})
	inserted := ix.Insert(math.NaN())
	for _, row := range []int{1, inserted} {
		if ix.Delete(row) {
			t.Errorf("Delete(%d) of a NaN row reported true", row)
		}
	}
	if n := ix.Len(); n != 2 {
		t.Errorf("len = %d, want 2", n)
	}
	if got := ix.Query(0, 10); !sameRows(got, []int{0, 2}) {
		t.Errorf("probe = %v, want [0 2]", got)
	}
	if n := ix.Count(0, 10); n != 2 {
		t.Errorf("count = %d, want 2", n)
	}
}

// mixedInsertDeleteQuery replays 200 random inserts, deletes and range
// queries on an index of a variant the seed picks, holding every query to
// the live rows and the index to its invariants at the end.
func mixedInsertDeleteQuery(seed int64) bool {
	rng := rand.New(rand.NewSource(seed))
	col := randCol(rng, 300, 60)
	live := map[int]int64{}
	for i, v := range col {
		live[i] = v
	}
	ix := New(col, Options{Variant: Variant(rng.Intn(3)), MaxPending: 16,
		StochasticMin: 32, SortMin: 32, Seed: seed})
	next := len(col)
	for step := 0; step < 200; step++ {
		switch rng.Intn(4) {
		case 0:
			v := int64(rng.Intn(60))
			ix.Insert(v)
			live[next] = v
			next++
		case 1:
			if len(live) > 0 {
				r := rng.Intn(next)
				_, wasLive := live[r]
				if ix.Delete(r) != wasLive {
					return false
				}
				delete(live, r)
			}
		default:
			lo := int64(rng.Intn(60))
			hi := lo + int64(rng.Intn(20))
			got := ix.Query(lo, hi)
			want := []int{}
			for r, v := range live {
				if v >= lo && v < hi {
					want = append(want, r)
				}
			}
			sort.Ints(want)
			if !sameRows(got, want) {
				return false
			}
		}
	}
	return ix.CheckInvariants() == nil
}

func TestMixedInsertDeleteQueryProperty(t *testing.T) {
	if err := quick.Check(mixedInsertDeleteQuery, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestHybridSortMergeKeepsSortedSpans pins a seed on which a hybrid-sort
// index lost two merged inserts: a merge grew a piece past the sorted span
// it ended at, the next crack partitioned that piece across the span, and
// a later crack binary-searched the scrambled span.
func TestHybridSortMergeKeepsSortedSpans(t *testing.T) {
	if !mixedInsertDeleteQuery(7670099205776847372) {
		t.Fatal("seed 7670099205776847372: a query missed live rows or the invariants broke")
	}
}

func TestConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	col := randCol(rng, 20000, 2000)
	full := NewSorted(col)
	ix := New(col, Options{Variant: Stochastic, StochasticMin: 256})
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for q := 0; q < 200; q++ {
				lo := int64(r.Intn(2000))
				hi := lo + int64(r.Intn(100))
				if got, want := ix.Count(lo, hi), full.Count(lo, hi); got != want {
					select {
					case errs <- "count mismatch under concurrency":
					default:
					}
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBaselinesAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		col := randCol(rng, 500, 100)
		fs := NewFullScan(col)
		si := NewSorted(col)
		for q := 0; q < 30; q++ {
			lo := int64(rng.Intn(100))
			hi := lo + int64(rng.Intn(30))
			if !sameSet(fs.Query(lo, hi), si.Query(lo, hi)) {
				return false
			}
			if fs.Count(lo, hi) != si.Count(lo, hi) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestConvergence demonstrates the cracking headline behaviour: per-query
// touched work shrinks as the index converges.
func TestConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	col := randCol(rng, 100000, 100000)
	ix := New(col, Options{Variant: Standard})
	for q := 0; q < 200; q++ {
		lo := int64(rng.Intn(100000))
		ix.Count(lo, lo+1000)
	}
	if p := ix.NumPieces(); p < 100 {
		t.Errorf("pieces after 200 queries = %d, want >= 100", p)
	}
	// After convergence a repeated query needs no new cracks.
	before := ix.Cracks()
	ix.Count(500, 1500)
	ix.Count(500, 1500)
	after := ix.Cracks()
	if after-before > 2 {
		t.Errorf("repeated query cracked %d times", after-before)
	}
}

func TestSequentialWorkloadStochasticSplits(t *testing.T) {
	n := 50000
	col := make([]int64, n)
	rng := rand.New(rand.NewSource(4))
	for i := range col {
		col[i] = int64(rng.Intn(n))
	}
	std := New(col, Options{Variant: Standard})
	sto := New(col, Options{Variant: Stochastic, StochasticMin: 1024, Seed: 9})
	// Sequential workload: ascending non-overlapping ranges hit only the
	// big right-hand piece under standard cracking.
	step := int64(n / 100)
	for q := int64(0); q < 50; q++ {
		std.Count(q*step, q*step+step)
		sto.Count(q*step, q*step+step)
	}
	if sto.NumPieces() <= std.NumPieces() {
		t.Errorf("stochastic pieces %d <= standard %d on sequential workload",
			sto.NumPieces(), std.NumPieces())
	}
	if err := sto.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestVariantString(t *testing.T) {
	if Standard.String() != "standard" || Stochastic.String() != "stochastic" || HybridSort.String() != "hybrid-sort" {
		t.Error("variant names")
	}
}

// TestFloatCracking exercises the generic index over float64 columns.
func TestFloatCracking(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	col := make([]float64, 3000)
	for i := range col {
		col[i] = rng.NormFloat64() * 100
	}
	ix := New(col, Options{Variant: Stochastic, StochasticMin: 128, Seed: 32})
	full := NewSorted(col)
	for q := 0; q < 100; q++ {
		lo := rng.NormFloat64() * 100
		hi := lo + rng.Float64()*50
		if got, want := ix.Count(lo, hi), full.Count(lo, hi); got != want {
			t.Fatalf("float count [%v,%v) = %d, want %d", lo, hi, got, want)
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Inserts and deletes work generically too.
	row := ix.Insert(12.5)
	if n := ix.Count(12, 13); n < 1 {
		t.Errorf("inserted float invisible, count=%d", n)
	}
	ix.Delete(row)
	ix.Flush()
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestNaNIsNeverIndexed: a float column with NULLs (NaN) and +Inf cracks
// to the answers a full scan gives under every variant — a NaN lies in no
// range, whether it was in the column or inserted — and every probe
// completes. ProbeFrom, the probe with no upper cut, reaches +Inf and the
// pending inserts.
func TestNaNIsNeverIndexed(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	col := make([]float64, 5000)
	for i := range col {
		switch col[i] = rng.Float64(); rng.Intn(20) {
		case 0, 1:
			col[i] = math.NaN()
		case 2:
			col[i] = math.Inf(1)
		}
	}
	inserts := []float64{math.NaN(), 0.5, math.Inf(1), math.NaN(), 0.25}
	live := append(append([]float64(nil), col...), inserts...)
	full := NewFullScan(live)
	for _, v := range []Variant{Standard, Stochastic, HybridSort} {
		t.Run(v.String(), func(t *testing.T) {
			ix := New(col, Options{Variant: v, StochasticMin: 64, SortMin: 64, MaxPending: 1 << 10, Seed: 1})
			for _, x := range inserts {
				ix.Insert(x)
			}
			for q := 0; q < 200; q++ {
				a, b := rng.Float64(), rng.Float64()
				lo, hi := min(a, b), max(a, b)
				if got, want := ix.Query(lo, hi), full.Query(lo, hi); !sameRows(got, want) {
					t.Fatalf("query %d [%v,%v): %d rows, full scan %d", q, lo, hi, len(got), len(want))
				}
				got, _, err := ix.ProbeFrom(nil, lo)
				if err != nil {
					t.Fatal(err)
				}
				var want []int
				for r, x := range live {
					if x >= lo {
						want = append(want, r)
					}
				}
				if !sameRows(got, want) {
					t.Fatalf("probe %d [%v, +Inf]: %d rows, full scan %d", q, lo, len(got), len(want))
				}
			}
			if err := ix.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			indexed := 0
			for _, x := range live {
				if !math.IsNaN(x) {
					indexed++
				}
			}
			if n := ix.Len(); n != indexed {
				t.Fatalf("len %d, want the %d non-NaN values", n, indexed)
			}
		})
	}
}

// TestStringCracking cracks a TEXT column lexicographically.
func TestStringCracking(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	col := make([]string, 1000)
	for i := range col {
		col[i] = string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(26)))
	}
	ix := New(col, Options{})
	full := NewSorted(col)
	for q := 0; q < 40; q++ {
		lo := string(rune('a' + rng.Intn(26)))
		hi := string(rune('a'+rng.Intn(26))) + "zz"
		if got, want := ix.Count(lo, hi), full.Count(lo, hi); got != want {
			t.Fatalf("string count [%q,%q) = %d, want %d", lo, hi, got, want)
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestProbesCrackAlike: under every variant, with pending inserts, merges
// and deletes interleaved, every way into the index cracks alike: twins
// fed the same steps through ProbeInto, through Query and through Count
// keep the same cuts, crack count and piece count, and answer the same
// rows or counts. A step with no upper bound, which Query and Count cannot
// ask, reaches every twin as ProbeFrom, and must answer the rows a scan of
// the live values finds.
func TestProbesCrackAlike(t *testing.T) {
	for _, opt := range concurrentVariants {
		t.Run(opt.Variant.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			col := make([]int64, 4000)
			for i := range col {
				col[i] = rng.Int63n(1000)
			}
			opt.MaxPending = 64
			rows, query, count := New(col, opt), New(col, opt), New(col, opt)
			twins := []*Index[int64]{rows, query, count}
			live := slices.Clone(col)
			dead := map[int]bool{}
			var buf []int
			for step := 0; step < 300; step++ {
				switch rng.Intn(8) {
				case 0:
					v := rng.Int63n(1000)
					for _, ix := range twins {
						ix.Insert(v)
					}
					live = append(live, v)
				case 1:
					r := rng.Intn(len(col))
					for _, ix := range twins {
						ix.Delete(r)
					}
					dead[r] = true
				}
				lo := rng.Int63n(1000)
				hi := lo + rng.Int63n(300)
				var st ProbeStats
				var err error
				if step%10 == 9 {
					for i, ix := range twins {
						got, s, err := ix.ProbeFrom(buf, lo)
						if err != nil {
							t.Fatal(err)
						}
						var want []int
						for r, v := range live {
							if v >= lo && !dead[r] {
								want = append(want, r)
							}
						}
						if !slices.Equal(got, want) {
							t.Fatalf("step %d twin %d [%d, top]: %d rows, scan %d", step, i, lo, len(got), len(want))
						}
						if i == 0 {
							st, buf = s, got
						}
					}
				} else {
					buf, st, err = rows.ProbeInto(buf, lo, hi)
					if err != nil {
						t.Fatal(err)
					}
					if got := query.Query(lo, hi); !slices.Equal(got, buf) {
						t.Fatalf("step %d [%d, %d): Query %d rows, ProbeInto %d", step, lo, hi, len(got), len(buf))
					}
					if got := count.Count(lo, hi); got != len(buf) {
						t.Fatalf("step %d [%d, %d): Count %d, ProbeInto %d rows", step, lo, hi, got, len(buf))
					}
				}
				for i, ix := range twins {
					if st.Pieces != ix.NumPieces() || st.Cracks != ix.Cracks() {
						t.Fatalf("step %d: ProbeInto at %d pieces, %d cracks; twin %d at %d, %d",
							step, st.Pieces, st.Cracks, i, ix.NumPieces(), ix.Cracks())
					}
				}
			}
			for i, ix := range twins {
				if err := ix.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(rows.cuts, ix.cuts) {
					t.Fatalf("twin %d left other cuts than ProbeInto", i)
				}
			}
		})
	}
}

// TestNewAtIsNewOverTheGatheredValues: an index over a subset of a
// column's rows answers with positions in that subset exactly what an
// index over the gathered values answers, NaN left out of both.
func TestNewAtIsNewOverTheGatheredValues(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	col := make([]float64, 3000)
	for i := range col {
		if col[i] = rng.Float64(); rng.Intn(30) == 0 {
			col[i] = math.NaN()
		}
	}
	var rows []int
	var gathered []float64
	for r := range col {
		if rng.Intn(3) == 0 {
			rows, gathered = append(rows, r), append(gathered, col[r])
		}
	}
	at, want := NewAt(col, rows, Options{}), New(gathered, Options{})
	for q := 0; q < 100; q++ {
		a, b := rng.Float64(), rng.Float64()
		lo, hi := min(a, b), max(a, b)
		if got, w := at.Query(lo, hi), want.Query(lo, hi); !slices.Equal(got, w) {
			t.Fatalf("query %d [%v, %v): %v, want %v", q, lo, hi, got, w)
		}
	}
	if at.Len() != want.Len() {
		t.Fatalf("Len %d, want %d", at.Len(), want.Len())
	}
}
