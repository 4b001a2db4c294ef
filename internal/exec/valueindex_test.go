package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dex/internal/expr"
	"dex/internal/storage"
	"dex/internal/trace"
)

// indexPaths is what one traced query's scan span says about the value
// index: morsels that refined candidates, morsels it left to the scan,
// morsels it skipped, and whether bucket cells answered the range's
// interior (1 if so); all zero when the query used no index.
type indexPaths struct{ cand, scan, skip, cells int64 }

func (a *indexPaths) add(b indexPaths) {
	a.cand, a.scan, a.skip, a.cells = a.cand+b.cand, a.scan+b.scan, a.skip+b.skip, a.cells+b.cells
}

func scanIndexPaths(root *trace.SpanJSON) indexPaths {
	for _, c := range root.Children {
		if c.Name != "scan" || c.Attrs["index"] == nil {
			continue
		}
		n := func(k string) int64 { v, _ := c.Attrs[k].(int64); return v }
		served := n("index_morsels")
		p := indexPaths{
			cand: served - n("index_skipped"),
			scan: n("morsels") - n("zone_skipped") - served,
			skip: n("index_skipped"),
		}
		if n("bucket_cells") > 0 {
			p.cells = 1
		}
		return p
	}
	return indexPaths{}
}

// tracedExec runs q traced and returns the answer and the root span.
func tracedExec(tbl *storage.Table, q Query, opt ExecOptions) (*storage.Table, *trace.SpanJSON, error) {
	ctx, sp := trace.Start(context.Background(), "q")
	res, err := ExecuteCtx(ctx, tbl, q, opt)
	sp.End()
	return res, sp.JSON(), err
}

// indexTable has a normal FLOAT column with NULLs, a wide INT column with
// the int64 extremes, a dictionary-coded and a small INT group key, and a
// run-coded clustered column — the leaves a narrow range meets beside the
// indexed one.
func indexTable(rng *rand.Rand, n int) *storage.Table {
	x, k, g, r := make([]float64, n), make([]int64, n), make([]int64, n), make([]int64, n)
	s := make([]string, n)
	run := int64(0)
	for i := 0; i < n; i++ {
		x[i] = rng.NormFloat64() * 100
		if rng.Intn(100) == 0 {
			x[i] = math.NaN()
		}
		k[i] = rng.Int63n(100_000) - 50_000
		if rng.Intn(500) == 0 {
			k[i] = []int64{math.MinInt64, math.MaxInt64}[rng.Intn(2)]
		}
		g[i] = rng.Int63n(9)
		s[i] = []string{"red", "green", "blue", "amber"}[rng.Intn(4)]
		if rng.Intn(50) == 0 {
			run = rng.Int63n(20)
		}
		r[i] = run
	}
	tab, err := storage.FromColumns("t", storage.Schema{
		{Name: "x", Type: storage.TFloat}, {Name: "k", Type: storage.TInt}, {Name: "g", Type: storage.TInt},
		{Name: "s", Type: storage.TString}, {Name: "r", Type: storage.TInt},
	}, []storage.Column{
		storage.NewFloatColumn(x), storage.NewIntColumn(k), storage.NewIntColumn(g),
		storage.EncodeDict(s), storage.EncodeRLE(r),
	})
	if err != nil {
		panic(err)
	}
	return tab
}

// narrowQueries returns every query shape the pipeline has — scalar and
// grouped aggregates, projections, top-k — behind ranges on x and on k
// selecting about 0.1 to 30 % of the rows, alone and conjoined with the
// other column's range, an NE, a dictionary leaf and a run-coded range.
func narrowQueries(tab *storage.Table) []Query {
	quantiles := func(col string) func(q float64) storage.Value {
		c, _ := tab.ColumnByName(col)
		var vs []storage.Value
		for i := 0; i < c.Len(); i++ {
			if v := c.Value(i); !(v.Typ == storage.TFloat && math.IsNaN(v.F)) {
				vs = append(vs, v)
			}
		}
		sort.Slice(vs, func(i, j int) bool { return vs[i].Compare(vs[j]) < 0 })
		return func(q float64) storage.Value { return vs[int(q*float64(len(vs)-1))] }
	}
	xq, kq := quantiles("x"), quantiles("k")
	var wheres []*expr.Pred
	for _, w := range []float64{0.001, 0.01, 0.05, 0.15, 0.3} {
		xr := expr.Between("x", xq(0.4), xq(0.4+w))
		kr := expr.Between("k", kq(0.6-w), kq(0.6))
		wheres = append(wheres, xr, kr,
			expr.And(xr, expr.Between("k", kq(0.1), kq(0.9))),
			expr.And(kr, expr.Cmp("g", expr.NE, storage.Int(3))),
			expr.And(xr, expr.Cmp("s", expr.EQ, storage.String_("red"))),
			expr.And(kr, expr.Between("r", storage.Int(2), storage.Int(12))))
	}
	wheres = append(wheres, expr.Cmp("x", expr.EQ, xq(0.5)), expr.Cmp("k", expr.LT, kq(0.002)))
	shapes := []Query{
		{Select: []SelectItem{{Col: "*", Agg: AggCount}, {Col: "x", Agg: AggSum}, {Col: "x", Agg: AggAvg},
			{Col: "k", Agg: AggMin}, {Col: "x", Agg: AggMax}, {Col: "k", Agg: AggSum}}},
		{Select: []SelectItem{{Col: "s"}, {Col: "x", Agg: AggSum}, {Col: "*", Agg: AggCount}, {Col: "x", Agg: AggMin}},
			GroupBy: []string{"s"}},
		{Select: []SelectItem{{Col: "g"}, {Col: "x", Agg: AggAvg}, {Col: "k", Agg: AggMax}}, GroupBy: []string{"g"}},
		{Select: []SelectItem{{Col: "k"}, {Col: "x"}, {Col: "s"}}},
		{Select: []SelectItem{{Col: "x"}, {Col: "k"}}, OrderBy: []OrderKey{{Col: "x", Desc: true}}, Limit: 7},
		{Select: []SelectItem{{Col: "r"}, {Col: "k"}}, Limit: 25},
	}
	var out []Query
	for _, w := range wheres {
		for _, q := range shapes {
			q.Where = w
			out = append(out, q)
		}
	}
	return out
}

// TestIndexPathMatchesScanBitForBit runs every narrow query with the value
// index on and off (disableIndex) and requires the same answer bit for bit:
// the index hands each morsel's sink the rows the scan would, in the same
// order, so even float SUMs keep their association. The one exception is
// a grouped float SUM/AVG at four workers, whose per-worker partials merge
// in scheduling order with or without the index; it is held to the parity
// tolerance instead. All three index paths must come up. The bucket cells
// stay off: they answer a range's interior without its rows, which only
// TestBucketCellsMatchScan holds to the scan.
func TestIndexPathMatchesScanBitForBit(t *testing.T) {
	disableBucketCells = true
	defer func() { disableIndex, disableBucketCells = false, false }()
	tab := indexTable(rand.New(rand.NewSource(41)), 40_000)
	var paths indexPaths
	for _, q := range narrowQueries(tab) {
		for _, opt := range []ExecOptions{
			{Parallelism: 1}, {Parallelism: 1, MorselSize: 64},
			{Parallelism: 4, MorselSize: 1024}, {Parallelism: 4, MorselSize: 64},
		} {
			label := fmt.Sprintf("P%d m%d: %s", opt.Parallelism, opt.MorselSize, q)
			disableIndex = true
			off, offErr := ExecuteOpts(tab, q, opt)
			disableIndex = false
			on, js, onErr := tracedExec(tab, q, opt)
			if offErr != nil || onErr != nil {
				t.Fatalf("%s: off=%v on=%v", label, offErr, onErr)
			}
			if len(q.GroupBy) > 0 && opt.Parallelism > 1 {
				requireSameTable(t, label, off, on)
			} else {
				requireIdentical(t, label, off, on)
			}
			paths.add(scanIndexPaths(js))
		}
	}
	if paths.cand == 0 || paths.scan == 0 || paths.skip == 0 {
		t.Fatalf("index paths taken: %+v; want candidates, scans and skips", paths)
	}
}

// TestIndexScanAccounting checks what a query on the candidate path
// reports: the scan span names the index and its candidates, Scanned counts
// the refined candidates rather than the morsels' rows, and IndexMorsels
// counts the morsels the index served. The bucket cells stay off; their
// twin is TestBucketCellsScanAccounting.
func TestIndexScanAccounting(t *testing.T) {
	disableBucketCells = true
	defer func() { disableBucketCells = false }()
	tab := indexTable(rand.New(rand.NewSource(42)), 20_000)
	q := Query{Select: []SelectItem{{Col: "*", Agg: AggCount}}, Where: expr.Between("k", storage.Int(0), storage.Int(500))}
	var scanned, served atomic.Int64
	res, js, err := tracedExec(tab, q, ExecOptions{Parallelism: 1, MorselSize: 1024, Scanned: &scanned, IndexMorsels: &served})
	if err != nil {
		t.Fatal(err)
	}
	var scan *trace.SpanJSON
	for _, c := range js.Children {
		if c.Name == "scan" {
			scan = c
		}
	}
	if scan == nil || scan.Attrs["index"] != "k" {
		t.Fatalf("scan span %+v: want index k", scan)
	}
	cands, _ := scan.Attrs["index_candidates"].(int64)
	count := res.Column(0).Value(0).I
	// Scanned is the filter's visits, the candidates, plus the sink's, the
	// matches.
	if cands < count || cands >= int64(tab.NumRows())/2 || scanned.Load() != cands+count {
		t.Fatalf("candidates %d, matches %d, scanned %d: want count <= candidates << rows, scanned = candidates + matches",
			cands, count, scanned.Load())
	}
	if morsels := int64(storage.NumChunks(tab.NumRows(), 1024)); served.Load() != morsels {
		t.Fatalf("index served %d morsels of %d", served.Load(), morsels)
	}
}

// TestIndexBuiltOnceUnderConcurrentQueries sends a fresh table's first
// queries from many goroutines at once: one of them builds the index, under
// its "index" span, and all of them answer alike. The bucket cells stay
// off; their twin is TestBucketCellsBuiltOnceUnderConcurrentQueries.
func TestIndexBuiltOnceUnderConcurrentQueries(t *testing.T) {
	disableBucketCells = true
	defer func() { disableBucketCells = false }()
	tab := indexTable(rand.New(rand.NewSource(43)), 50_000)
	q := Query{Select: []SelectItem{{Col: "x", Agg: AggSum}, {Col: "*", Agg: AggCount}},
		Where: expr.Between("x", storage.Float(10), storage.Float(12))}
	want, err := Execute(tab, q)
	if err != nil {
		t.Fatal(err)
	}
	const clients = 12
	var wg sync.WaitGroup
	var mu sync.Mutex
	builds, indexed := 0, 0
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, js, err := tracedExec(tab, q, ExecOptions{Parallelism: 2, MorselSize: 2048})
			if err != nil {
				t.Error(err)
				return
			}
			requireSameTable(t, "concurrent", want, got)
			mu.Lock()
			defer mu.Unlock()
			for _, c := range js.Children {
				if c.Name == "index" && c.Attrs["col"] == "x" {
					indexed++
					if c.Attrs["built"] == true {
						builds++
					}
				}
			}
		}()
	}
	wg.Wait()
	if indexed != clients || builds != 1 {
		t.Fatalf("%d of %d queries used the index, %d built it; want all, and one", indexed, clients, builds)
	}
}

// TestFuzzCorporaReachIndexPaths replays the checked-in corpora of the two
// pipeline fuzzers under their arms, traced, and requires that together
// they take every value-index path — candidates, scan and skip — so the
// differential fuzzers certify the index, not only the scan. The
// aggregation fuzzer's corpus must also reach the bucket cells, scalar and
// grouped, and fold every bucket of a column for a query with no WHERE.
func TestFuzzCorporaReachIndexPaths(t *testing.T) {
	for _, fz := range []struct {
		name   string
		decode func(t *testing.T, data []byte) (plain, enc *storage.Table, q Query, sel []int)
		cells  bool
	}{
		{"FuzzAggKernelVsGeneric", func(t *testing.T, data []byte) (*storage.Table, *storage.Table, Query, []int) {
			plain, enc, q := aggCase(t, data)
			return plain, enc, q, nil
		}, true},
		{"FuzzRowsVsOracle", rowCase, false},
	} {
		files, err := filepath.Glob(filepath.Join("testdata", "fuzz", fz.name, "*"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no corpus (%v)", fz.name, err)
		}
		var paths indexPaths
		var cells [2]int64 // scalar, grouped
		var whole [2]int64 // the same, with no WHERE
		for _, f := range files {
			data := readCorpusEntry(t, f)
			plain, enc, q, sel := fz.decode(t, data)
			if sel != nil {
				continue // selection input: no WHERE, no index
			}
			for _, arm := range fuzzArms {
				tbl := plain
				if arm.enc {
					tbl = enc
				}
				if _, js, err := tracedExec(tbl, q, arm.opt); err == nil {
					p := scanIndexPaths(js)
					paths.add(p)
					cells[min(len(q.GroupBy), 1)] += p.cells
					if q.Where == nil {
						whole[min(len(q.GroupBy), 1)] += p.cells
					}
				}
			}
		}
		if paths.cand == 0 || paths.scan == 0 || paths.skip == 0 {
			t.Errorf("%s corpus index paths: %+v; want candidates, scans and skips", fz.name, paths)
		}
		if fz.cells && (cells[0] == 0 || cells[1] == 0) {
			t.Errorf("%s corpus bucket-cell queries: %d scalar, %d grouped; want both", fz.name, cells[0], cells[1])
		}
		if fz.cells && (whole[0] == 0 || whole[1] == 0) {
			t.Errorf("%s corpus queries with no WHERE that fold every bucket: %d scalar, %d grouped; want both", fz.name, whole[0], whole[1])
		}
	}
}

// readCorpusEntry decodes one "go test fuzz v1" file holding a []byte.
func readCorpusEntry(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(strings.TrimSpace(string(raw)), "\n", 2)
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a v1 corpus entry", path)
	}
	lit := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
	s, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}
