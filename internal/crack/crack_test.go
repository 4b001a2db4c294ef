package crack

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
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
		if !sameSet(got, want) {
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
			if !sameSet(ix.Query(lo, hi), oracle(col, lo, hi)) {
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

// TestProbeAppendReusesTheCallersVector: a probe handed a vector with room
// answers inside it, in the order Probe gives, and allocates none of its
// own; one handed a short vector replaces it; an empty range truncates it.
func TestProbeAppendReusesTheCallersVector(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	col := randCol(rng, 4000, 500)
	ix, twin := New(col, Options{}), New(col, Options{})
	buf := make([]int, 0, len(col))
	for q := 0; q < 100; q++ {
		lo := int64(rng.Intn(500))
		hi := lo + int64(rng.Intn(120))
		want, _, _ := twin.Probe(lo, hi)
		got, _, err := ix.ProbeAppend(buf, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("probe %d [%d,%d): %d rows, Probe gives %d", q, lo, hi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("probe %d [%d,%d): row %d is %d, Probe gives %d", q, lo, hi, i, got[i], want[i])
			}
		}
		if len(got) > 0 && &got[0] != &buf[:1][0] {
			t.Fatalf("probe %d left the caller's vector for a new one", q)
		}
	}
	if got, _, _ := ix.ProbeAppend(make([]int, 0, 1), 0, 500); len(got) != len(col) {
		t.Fatalf("short vector: %d rows, want %d", len(got), len(col))
	}
	if got, _, _ := ix.ProbeAppend(buf[:3], 9, 9); len(got) != 0 {
		t.Fatalf("empty range kept %d stale rows", len(got))
	}
	if n := testing.AllocsPerRun(20, func() { buf, _, _ = ix.ProbeAppend(buf, 100, 400) }); n != 0 {
		t.Fatalf("a converged probe into a large enough vector allocated %v times", n)
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

func TestMixedInsertDeleteQueryProperty(t *testing.T) {
	f := func(seed int64) bool {
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
				if !sameSet(got, want) {
					return false
				}
			}
		}
		return ix.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
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
				if got, want := ix.Query(lo, hi), full.Query(lo, hi); !sameSet(got, want) {
					t.Fatalf("query %d [%v,%v): %d rows, full scan %d", q, lo, hi, len(got), len(want))
				}
				got, _, err := ix.ProbeFrom(nil, lo)
				if err != nil {
					t.Fatal(err)
				}
				want := full.Query(lo, math.Inf(1))
				for r, x := range live {
					if math.IsInf(x, 1) {
						want = append(want, r)
					}
				}
				if !sameSet(got, want) {
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
