package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"dex/internal/expr"
	"dex/internal/storage"
)

// TestCompileAggKernelShapes pins the compile contract: which query shapes
// bind to the typed path and the stable fallback reason for each shape
// that does not. Compilation never errors — invalid queries fall back so
// the generic operators report their canonical errors.
func TestCompileAggKernelShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tbl := randParityTable(rng, 50, 0)
	enc := encodeParityTable(t, tbl)
	wide := func() *storage.Table {
		ss := make([]string, maxDictGroups+1)
		for i := range ss {
			ss[i] = fmt.Sprintf("g%05d", i)
		}
		w, err := storage.FromColumns("w", storage.Schema{{Name: "s", Type: storage.TString}},
			[]storage.Column{storage.EncodeDict(ss)})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}()

	cases := []struct {
		name   string
		tbl    *storage.Table
		q      Query
		reason string // "" = must compile
	}{
		{"scalar over int+float", tbl, Query{Select: []SelectItem{
			{Col: "*", Agg: AggCount}, {Col: "k", Agg: AggSum}, {Col: "x", Agg: AggMin}}}, ""},
		{"count over string", tbl, Query{Select: []SelectItem{{Col: "s", Agg: AggCount}}}, ""},
		{"min over string", tbl, Query{Select: []SelectItem{{Col: "s", Agg: AggMin}}}, "string agg input"},
		{"int group", tbl, Query{Select: []SelectItem{{Col: "d"}, {Col: "x", Agg: AggAvg}},
			GroupBy: []string{"d"}}, ""},
		{"dict group", enc, Query{Select: []SelectItem{{Col: "s"}, {Col: "x", Agg: AggSum}},
			GroupBy: []string{"s"}}, ""},
		{"rle group", enc, Query{Select: []SelectItem{{Col: "d"}, {Col: "k", Agg: AggMax}},
			GroupBy: []string{"d"}}, ""},
		{"plain string group", tbl, Query{Select: []SelectItem{{Col: "s"}, {Col: "x", Agg: AggSum}},
			GroupBy: []string{"s"}}, "group column type"},
		{"float group", tbl, Query{Select: []SelectItem{{Col: "x"}, {Col: "k", Agg: AggSum}},
			GroupBy: []string{"x"}}, "group column type"},
		{"multi group", tbl, Query{Select: []SelectItem{{Col: "d"}, {Col: "s"}, {Col: "x", Agg: AggSum}},
			GroupBy: []string{"d", "s"}}, "multi-column group"},
		{"wide dict group", wide, Query{Select: []SelectItem{{Col: "s"}, {Col: "*", Agg: AggCount}},
			GroupBy: []string{"s"}}, "dict cardinality"},
		{"invalid mixed select", tbl, Query{Select: []SelectItem{{Col: "k"}, {Col: "x", Agg: AggSum}}}, "invalid query"},
		{"unknown column", tbl, Query{Select: []SelectItem{{Col: "nope", Agg: AggSum}}}, "invalid query"},
	}
	for _, tc := range cases {
		ak, reason := compileAggKernel(tc.tbl, tc.q)
		if tc.reason == "" {
			if ak == nil {
				t.Errorf("%s: expected compile, fell back: %s", tc.name, reason)
			}
			continue
		}
		if ak != nil {
			t.Errorf("%s: expected fallback %q, compiled", tc.name, tc.reason)
		} else if reason != tc.reason {
			t.Errorf("%s: fallback reason = %q, want %q", tc.name, reason, tc.reason)
		}
	}
}

// TestAggKernelInt64Extremes pins the min/max tie-breaking semantics the
// generic oracle gets from Value.Compare: int64 values straddling 2^53
// compare in the float64 domain, so the first seen among float-equal
// values must win on the typed path too.
func TestAggKernelInt64Extremes(t *testing.T) {
	mk := func(v []int64) *storage.Table {
		tbl, err := storage.FromColumns("t", storage.Schema{{Name: "k", Type: storage.TInt}},
			[]storage.Column{&storage.IntColumn{V: v}})
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	q := Query{Select: []SelectItem{
		{Col: "k", Agg: AggMin}, {Col: "k", Agg: AggMax}, {Col: "k", Agg: AggSum}}}
	for _, v := range [][]int64{
		{1<<53 + 1, 1 << 53},
		{1 << 53, 1<<53 + 1},
		{math.MaxInt64, math.MaxInt64 - 1, math.MinInt64},
		{-(1<<53 + 1), -(1 << 53), 0},
	} {
		tbl := mk(v)
		want, err := Execute(tbl, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ExecuteOpts(tbl, q, ExecOptions{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		requireSameTable(t, fmt.Sprintf("extremes %v", v), want, got)
	}
}

// TestAggSkipsGlobalSelection is the allocation-counting proof of the
// per-morsel handoff: an aggregate over a wide-open predicate must not
// materialize the global selection vector. A projection behind the same
// predicate has to build the merged []int — megabytes at this row count —
// and is the control that shows the measurement sees it; the aggregate's
// whole footprint stays under a small constant, because its only
// per-morsel buffer is pooled and returned.
func TestAggSkipsGlobalSelection(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation count skipped under -race: sync.Pool drops a share of returned buffers on purpose")
	}
	const rows = 500_000
	rng := rand.New(rand.NewSource(61))
	tbl := randParityTable(rng, rows, 0)
	where := expr.Cmp("k", expr.GE, storage.Int(-500)) // matches every row
	agg := Query{Select: []SelectItem{{Col: "x", Agg: AggSum}, {Col: "*", Agg: AggCount}}, Where: where}
	proj := Query{Select: []SelectItem{{Col: "k"}}, Where: where}
	// Inline on both sides: no goroutine or scheduling allocations in the
	// measurement, just the pipeline's own buffers.
	opt := ExecOptions{Parallelism: 1}
	allocPerRun := func(q Query) uint64 {
		if _, err := ExecuteOpts(tbl, q, opt); err != nil { // warm pools and caches
			t.Fatal(err)
		}
		const reps = 5
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < reps; i++ {
			if _, err := ExecuteOpts(tbl, q, opt); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / reps
	}
	folded, merged := allocPerRun(agg), allocPerRun(proj)
	t.Logf("rows=%d aggregate=%dB projection=%dB", rows, folded, merged)
	const selBytes = rows * 8 // the merged []int the aggregate must not build
	if merged < selBytes/2 {
		t.Fatalf("projection allocated %dB; expected the %dB global selection vector — measurement broken", merged, selBytes)
	}
	if folded > selBytes/16 {
		t.Fatalf("aggregate allocated %dB per query; global selection (%dB) apparently materialized", folded, selBytes)
	}
}

// TestAggKernelCounters: every aggregate query moves exactly one of the
// hit/fallback counters — hit when the typed sink answered, fallback when
// the generic one did — and a projection moves neither.
func TestAggKernelCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	tbl := randParityTable(rng, 100, 0)
	var hits, falls atomic.Int64
	opt := ExecOptions{AggKernelHits: &hits, AggKernelFallbacks: &falls}
	agg := Query{Select: []SelectItem{{Col: "x", Agg: AggSum}}}
	if _, err := ExecuteOpts(tbl, agg, opt); err != nil {
		t.Fatal(err)
	}
	multi := Query{Select: []SelectItem{{Col: "d"}, {Col: "s"}, {Col: "*", Agg: AggCount}},
		GroupBy: []string{"d", "s"}}
	if _, err := ExecuteOpts(tbl, multi, opt); err != nil {
		t.Fatal(err)
	}
	proj := Query{Select: []SelectItem{{Col: "k"}}}
	if _, err := ExecuteOpts(tbl, proj, opt); err != nil {
		t.Fatal(err)
	}
	if hits.Load() != 1 || falls.Load() != 1 {
		t.Fatalf("hits=%d fallbacks=%d, want 1/1", hits.Load(), falls.Load())
	}
}

// bitTables builds plain and encoded twins over {gi INT, gs TEXT, gr INT,
// x FLOAT, k INT, m INT}: gi stays a plain int key in both, gs is
// dict-coded and gr and m run-coded in the encoded twin. x is NULL (NaN) on
// every row of gi 0, gs "nan" and gr 3 — an all-NULL group under each key —
// and on a tenth of the rest; x holds ±0 and k int64 neighbours past 2^53,
// which tie under Value.Compare; k reaches 2^59 and m 2^54, past float64's
// exact integers, so a SUM that met its rows in another order would differ
// in the last bits.
func bitTables(t *testing.T, gi []int64) (plain, enc *storage.Table) {
	t.Helper()
	rng := rand.New(rand.NewSource(101))
	labels := []string{"nan", "oak", "elm", "ash", "", "yew"}
	n := len(gi)
	gs := make([]string, n)
	gr := make([]int64, n)
	xs := make([]float64, n)
	ks := make([]int64, n)
	ms := make([]int64, n)
	for i := 0; i < n; i++ {
		gs[i] = labels[(i*i+i/3)%len(labels)]
		gr[i] = int64(i / 9 % 4)
		switch {
		case gi[i] == 0 || gs[i] == "nan" || gr[i] == 3 || rng.Intn(10) == 0:
			xs[i] = math.NaN()
		case rng.Intn(8) == 0:
			xs[i] = math.Copysign(0, float64(rng.Intn(2)*2-1))
		default:
			xs[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(18)))
		}
		switch rng.Intn(6) {
		case 0:
			ks[i] = 1<<53 + rng.Int63n(2)
		case 1:
			ks[i] = -(1<<53 + rng.Int63n(2))
		default:
			ks[i] = rng.Int63n(1<<60) - 1<<59
		}
		ms[i] = int64(i/5) * (1<<50 + 7)
	}
	schema := storage.Schema{
		{Name: "gi", Type: storage.TInt}, {Name: "gs", Type: storage.TString},
		{Name: "gr", Type: storage.TInt}, {Name: "x", Type: storage.TFloat},
		{Name: "k", Type: storage.TInt}, {Name: "m", Type: storage.TInt},
	}
	mk := func(cols ...storage.Column) *storage.Table {
		tbl, err := storage.FromColumns("t", schema, cols)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	gic, x, k := storage.NewIntColumn(gi), storage.NewFloatColumn(xs), storage.NewIntColumn(ks)
	plain = mk(gic, storage.NewStringColumn(gs), storage.NewIntColumn(gr), x, k, storage.NewIntColumn(ms))
	enc = mk(gic, storage.EncodeDict(gs), storage.EncodeRLE(gr), x, k, storage.EncodeRLE(ms))
	return plain, enc
}

// TestTypedGroupMatchesExecuteBitForBit: on one worker the slot pass hands
// every slot its rows in the order the sequential evaluator meets them, so
// the typed group sink equals Execute exactly — every SUM and AVG to the
// bit, every MIN/MAX tie to the same one of the tied values, NULL-only
// groups and COUNT over a FLOAT included. Crossed: dict, int and run-coded
// keys × the dense range, a kernel-filtered selection, an empty one and
// ExecuteSel's out-of-order selection × morsels of one row, of sixteen
// (the last holding one row) and of the whole input.
func TestTypedGroupMatchesExecuteBitForBit(t *testing.T) {
	const n = 97
	gi := make([]int64, n)
	for i := range gi {
		gi[i] = int64((i*i + 3*i) % 11)
	}
	plain, enc := bitTables(t, gi)
	// New int keys in the first rows of a morsel after its earlier rows have
	// taken their slots: key 4 at row 2, key 9 at row 5.
	edgePlain, edgeEnc := bitTables(t, []int64{7, 7, 4, 7, 4, 9})

	rng := rand.New(rand.NewSource(103))
	sel := make([]int, 2*n)
	for i := range sel {
		sel[i] = rng.Intn(n)
	}
	itemsOf := func(key string) []SelectItem {
		items := []SelectItem{{Col: key}, {Col: "*", Agg: AggCount}}
		for _, col := range []string{"x", "k", "m"} {
			for _, fn := range []AggFunc{AggCount, AggSum, AggAvg, AggMin, AggMax} {
				items = append(items, SelectItem{Col: col, Agg: fn})
			}
		}
		return items
	}
	wheres := []struct {
		name  string
		where *expr.Pred
	}{
		{"dense", nil},
		{"filtered", expr.Cmp("k", expr.GE, storage.Int(0))},
		{"empty selection", expr.Cmp("k", expr.EQ, storage.Int(12345))}, // inside every zone, matched by no row
	}
	for _, tc := range []struct{ plain, enc *storage.Table }{{plain, enc}, {edgePlain, edgeEnc}} {
		for _, key := range []string{"gi", "gs", "gr"} {
			for _, w := range wheres {
				q := Query{Select: itemsOf(key), GroupBy: []string{key}, Where: w.where}
				if ak, reason := compileAggKernel(tc.enc, q); ak == nil {
					t.Fatalf("key %s: typed sink fell back: %s", key, reason)
				}
				oracle, err := Execute(tc.plain, q)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range []int{1, 16, 4096} {
					got, err := ExecuteOpts(tc.enc, q, ExecOptions{Parallelism: 1, MorselSize: m})
					if err != nil {
						t.Fatal(err)
					}
					requireIdentical(t, fmt.Sprintf("rows=%d key=%s %s morsel=%d", tc.plain.NumRows(), key, w.name, m), oracle, got)
				}
			}
			if tc.plain != plain {
				continue
			}
			q := Query{Select: itemsOf(key), GroupBy: []string{key}}
			for _, s := range [][]int{sel, {}} {
				oracle, err := Execute(plain.Gather(s), q)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range []int{1, 16, 4096} {
					got, err := ExecuteSel(context.Background(), enc, s, q, ExecOptions{Parallelism: 1, MorselSize: m})
					if err != nil {
						t.Fatal(err)
					}
					requireIdentical(t, fmt.Sprintf("ExecuteSel key=%s sel=%d morsel=%d", key, len(s), m), oracle, got)
				}
			}
		}
	}
}

// TestGroupMinMaxTiesBreakOnPosition: MIN/MAX inputs that tie under
// Value.Compare yet differ — int64s that meet in the float64 domain past
// 2^53, -0 and +0 — resolve to the value at the earliest input position,
// as in the sequential evaluator, whichever worker held it. The sinks are
// fed by hand so the later morsel sits in worker 0, which merges first.
func TestGroupMinMaxTiesBreakOnPosition(t *testing.T) {
	const big = 1 << 53
	schema := storage.Schema{
		{Name: "g", Type: storage.TInt}, {Name: "s", Type: storage.TString},
		{Name: "k", Type: storage.TInt}, {Name: "x", Type: storage.TFloat},
	}
	g := []int64{1, 1, 1, 1}
	s := []string{"a", "a", "a", "a"}
	k := storage.NewIntColumn([]int64{-big, big, big + 1, -(big + 1)})
	negZero := math.Copysign(0, -1)
	x := storage.NewFloatColumn([]float64{negZero, 0, 0, negZero})
	plain, err := storage.FromColumns("t", schema, []storage.Column{storage.NewIntColumn(g), storage.NewStringColumn(s), k, x})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := storage.FromColumns("t", schema, []storage.Column{storage.EncodeRLE(g), storage.EncodeDict(s), k, x})
	if err != nil {
		t.Fatal(err)
	}
	query := func(key string) Query {
		return Query{GroupBy: []string{key}, Select: []SelectItem{{Col: key},
			{Col: "k", Agg: AggMin}, {Col: "k", Agg: AggMax}, {Col: "x", Agg: AggMin}, {Col: "x", Agg: AggMax}}}
	}
	const m, morsels = 2, 2
	// feed hands morsel i to worker morsels-1-i; dense sinks may take a nil
	// selection for the whole morsel.
	feed := func(sk sink, dense bool) (*storage.Table, error) {
		for i := morsels - 1; i >= 0; i-- {
			lo, hi := i*m, (i+1)*m
			var rows []int
			if !dense {
				rows = []int{lo, lo + 1}
			}
			sk.consume(morsels-1-i, lo, hi, rows)
		}
		return sk.finish()
	}
	check := func(t *testing.T, q Query, got *storage.Table, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := Execute(plain, q)
		if err != nil {
			t.Fatal(err)
		}
		if mn, mx := oracle.Column(1).Value(0).I, oracle.Column(2).Value(0).I; mn != -big || mx != big {
			t.Fatalf("oracle MIN(k), MAX(k) = %d, %d; want the first of each tie", mn, mx)
		}
		requireIdentical(t, q.String(), oracle, got)
	}
	for _, tc := range []struct {
		name string
		tbl  *storage.Table
		key  string
	}{{"typed int key", plain, "g"}, {"typed run-coded key", enc, "g"}, {"typed dict key", enc, "s"}} {
		for _, dense := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s dense=%v", tc.name, dense), func(t *testing.T) {
				q := query(tc.key)
				ak, reason := compileAggKernel(tc.tbl, q)
				if ak == nil {
					t.Fatalf("fell back: %s", reason)
				}
				got, err := feed(newTypedSink(ak, tc.tbl, q, false, m, morsels, morsels), dense)
				check(t, q, got, err)
			})
		}
	}
	t.Run("generic string key", func(t *testing.T) {
		q := query("s")
		gs, err := newGenericSink(plain, q, m, morsels, morsels)
		if err != nil {
			t.Fatal(err)
		}
		got, err := feed(gs, false)
		check(t, q, got, err)
	})
}

// TestGroupSinkRecyclesSlotVector: the typed group sink's slot vectors come
// from a pool, so a filtered dict GROUP BY allocates the same few kilobytes
// whether its million rows arrive in 64 morsels or in 1024 — not a slot
// vector per morsel, per worker or per qualifying row.
func TestGroupSinkRecyclesSlotVector(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation count skipped under -race: sync.Pool drops a share of returned buffers on purpose")
	}
	// One P: a goroutine that changes Ps misses the pool's per-P cache, and
	// that miss is scheduling noise, not what is measured here.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 1 << 20
	rng := rand.New(rand.NewSource(107))
	labels := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	ss := make([]string, n)
	xs := make([]float64, n)
	for i := range ss {
		ss[i] = labels[rng.Intn(len(labels))]
		xs[i] = rng.Float64()
	}
	tbl, err := storage.FromColumns("t", storage.Schema{{Name: "s", Type: storage.TString}, {Name: "x", Type: storage.TFloat}},
		[]storage.Column{storage.EncodeDict(ss), storage.NewFloatColumn(xs)})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Select: []SelectItem{{Col: "s"}, {Col: "x", Agg: AggSum}, {Col: "*", Agg: AggCount}},
		GroupBy: []string{"s"}, Where: expr.Cmp("x", expr.LT, storage.Float(0.5))}
	allocPerQuery := func(m int) uint64 {
		opt := ExecOptions{Parallelism: 1, MorselSize: m}
		if _, err := ExecuteOpts(tbl, q, opt); err != nil { // warm the pools
			t.Fatal(err)
		}
		const reps = 20
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < reps; i++ {
			if _, err := ExecuteOpts(tbl, q, opt); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / reps
	}
	few, many := allocPerQuery(16384), allocPerQuery(1024)
	t.Logf("bytes per query: %d at 64 morsels, %d at 1024", few, many)
	// One slot vector of the big morsel is 64 KB; the query's own output and
	// plan take a few.
	if few > 32<<10 {
		t.Fatalf("%d B per query at 64 morsels: a slot vector is being allocated", few)
	}
	// The 960 extra morsels may not cost even one 1024-row slot vector (4 KB)
	// between them.
	if many > few+4<<10 {
		t.Fatalf("%d B per query at 1024 morsels against %d at 64: allocation grows with the morsel count", many, few)
	}
}
