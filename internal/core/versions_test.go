package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"dex/internal/exec"
	"dex/internal/storage"
)

// versionTable is an n-row table "t": x a random INT in [base, base+n) to
// crack on, y a small INT to sum. Two calls with different n and base give
// two versions of one table whose answers to the same query differ.
func versionTable(t testing.TB, n int, base int64, seed int64) *storage.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	xs := make([]int64, n)
	ys := make([]int64, n)
	for i := range xs {
		xs[i] = base + rng.Int63n(int64(n))
		ys[i] = rng.Int63n(100)
	}
	tbl, err := storage.FromColumns("t", storage.Schema{{Name: "x", Type: storage.TInt}, {Name: "y", Type: storage.TInt}},
		[]storage.Column{storage.NewIntColumn(xs), storage.NewIntColumn(ys)})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestTableRegistry: a name holds one table. Register and AttachCSV fail on
// a taken name — in-memory or in situ — and a query, profile or row count
// of an unknown name fails with ErrNoSuchTable; Replace alone overwrites.
func TestTableRegistry(t *testing.T) {
	e := New(Options{})
	a := versionTable(t, 50, 0, 1)
	if err := e.Register(a); err != nil {
		t.Fatal(err)
	}
	if err := e.Register(a); !errors.Is(err, ErrTableExists) {
		t.Errorf("duplicate Register: err = %v, want ErrTableExists", err)
	}
	path := filepath.Join(t.TempDir(), "t.csv")
	if err := storage.WriteCSVFile(a, path); err != nil {
		t.Fatal(err)
	}
	if err := e.AttachCSV("t", path, a.Schema()); !errors.Is(err, ErrTableExists) {
		t.Errorf("AttachCSV over a registered name: err = %v, want ErrTableExists", err)
	}
	if err := e.AttachCSV("raw", path, a.Schema()); err != nil {
		t.Fatal(err)
	}
	if err := e.AttachCSV("raw", path, a.Schema()); !errors.Is(err, ErrTableExists) {
		t.Errorf("duplicate AttachCSV: err = %v, want ErrTableExists", err)
	}
	raw, err := storage.FromColumns("raw", a.Schema(), []storage.Column{a.Column(0), a.Column(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register(raw); !errors.Is(err, ErrTableExists) {
		t.Errorf("Register over an attached name: err = %v, want ErrTableExists", err)
	}
	if got := e.Tables(); !slices.Equal(got, []string{"raw (in-situ)", "t"}) {
		t.Errorf("tables = %v, want [raw (in-situ) t]", got)
	}
	res, err := e.SQL("SELECT count(*) FROM raw", Exact)
	if err != nil || res.Row(0)[0].I != 50 {
		t.Fatalf("attached table count(*) = %v, %v; want 50 rows from the file", res, err)
	}

	if _, err := e.SQL("SELECT count(*) FROM nope", Exact); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("query of an unknown table: err = %v", err)
	}
	if _, err := e.Profile("nope"); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("profile of an unknown table: err = %v", err)
	}
	if _, ok := e.TableRows("nope"); ok {
		t.Error("TableRows of an unknown table: ok = true")
	}
	if _, ok := e.TableRows("raw"); ok {
		t.Error("TableRows of an in-situ table: ok = true, want in-memory tables only")
	}

	e.Replace(versionTable(t, 80, 0, 2))
	if rows, ok := e.TableRows("t"); !ok || rows != 80 {
		t.Errorf("after Replace: TableRows = %d, %v; want 80", rows, ok)
	}
	if got := e.Tables(); !slices.Equal(got, []string{"raw (in-situ)", "t"}) {
		t.Errorf("tables after Replace = %v", got)
	}
}

// TestTablesSorted: Tables lists names in sorted order whatever the order
// of registration, in-situ names among them.
func TestTablesSorted(t *testing.T) {
	e := New(Options{})
	path := filepath.Join(t.TempDir(), "m.csv")
	if err := storage.WriteCSVFile(versionTable(t, 5, 0, 1), path); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"d", "b", "m", "a", "c"} {
		var err error
		if name == "m" {
			err = e.AttachCSV(name, path, versionTable(t, 1, 0, 1).Schema())
		} else {
			err = e.Register(seqTable(t, name, 3))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	e.Replace(seqTable(t, "b", 4))
	want := []string{"a", "b", "c", "d", "m (in-situ)"}
	for i := 0; i < 3; i++ {
		if got := e.Tables(); !slices.Equal(got, want) {
			t.Fatalf("tables = %v, want %v", got, want)
		}
	}
}

// TestConcurrentRegistry registers, replaces, resolves and lists tables
// from many goroutines; under -race it watches the table map's lock.
func TestConcurrentRegistry(t *testing.T) {
	e := New(Options{})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("t%d", i)
		first, second := seqTable(t, name, 10), seqTable(t, name, 20)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := e.Register(first); err != nil {
				t.Error(err)
			}
			e.Replace(second)
			if rows, ok := e.TableRows(name); !ok || rows != 20 {
				t.Errorf("%s: rows = %d, %v", name, rows, ok)
			}
			e.Tables()
		}()
	}
	wg.Wait()
	if got := len(e.Tables()); got != 16 {
		t.Errorf("%d tables, want 16", got)
	}
}

// TestConcurrentCrackedAcrossReplace races cracked queries — the row path
// (a projection) and the aggregate path (sum, count) — and approx queries
// against Replace flipping table t between two versions. A cracked query
// runs on the version it resolved, so every answer is exact for one of the
// two, and once the flipping stops, cracked answers equal exact ones on the
// last version and approx samples it. A crack index or sample keyed by the
// table name, built by a query that Replace overtook, would serve the old
// rows to every later query: wrong answers, or an index out of range.
func TestConcurrentCrackedAcrossReplace(t *testing.T) {
	versions := [2]*storage.Table{versionTable(t, 20_000, 0, 1), versionTable(t, 2_000, 1_000_000, 2)}
	e := New(Options{Seed: 3, Exec: exec.ExecOptions{Parallelism: 4, MorselSize: 256}})
	if err := e.Register(versions[0]); err != nil {
		t.Fatal(err)
	}
	// Each range reaches both versions' domains with a different answer.
	queries := []string{
		"SELECT x, y FROM t WHERE x >= %d AND x < %d",
		"SELECT sum(y) FROM t WHERE x >= %d AND x < %d",
		"SELECT count(*) FROM t WHERE x >= %d AND x < %d",
	}
	ranges := [][2]int64{{100, 400}, {1_000_100, 1_000_700}, {5_000, 1_000_300}, {0, 1_002_000}}
	sqlOf := func(q int, r [2]int64) string { return fmt.Sprintf(queries[q], r[0], r[1]) }
	// want[v][sql] is the exact answer on version v.
	var want [2]map[string]string
	for v, tbl := range versions {
		want[v] = map[string]string{}
		for q := range queries {
			for _, r := range ranges {
				sql := sqlOf(q, r)
				res, err := exec.Execute(tbl, mustParse(t, sql))
				if err != nil {
					t.Fatal(err)
				}
				want[v][sql] = res.Format(-1)
			}
		}
	}
	check := func(sql string, got *storage.Table, versionsOK ...int) error {
		for _, v := range versionsOK {
			if got.Format(-1) == want[v][sql] {
				return nil
			}
		}
		return fmt.Errorf("cracked %s: %d rows, not the exact answer of version %v", sql, got.NumRows(), versionsOK)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	const sessions = 4 // three cracked, one approx
	errs := make(chan error, sessions)
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for !stop.Load() {
				if g == sessions-1 {
					if _, err := e.SQL("SELECT avg(x) FROM t", Approx); err != nil {
						errs <- err
						return
					}
					continue
				}
				sql := sqlOf(g, ranges[rng.Intn(len(ranges))])
				res, err := e.SQL(sql, Cracked)
				if err == nil {
					err = check(sql, res, 0, 1)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	last := 0
	for i := 1; i <= 40; i++ {
		last = i % 2
		e.Replace(versions[last])
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	for q := range queries {
		for _, r := range ranges {
			sql := sqlOf(q, r)
			for round := 0; round < 2; round++ { // round 1 reuses the cuts
				res, err := e.SQL(sql, Cracked)
				if err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
				if err := check(sql, res, last); err != nil {
					t.Error(err)
				}
			}
		}
	}
	res, err := e.SQL("SELECT avg(x) FROM t", Approx)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := exec.Execute(versions[last], mustParse(t, "SELECT avg(x) FROM t"))
	if err != nil {
		t.Fatal(err)
	}
	if got, w := res.Row(0)[0].F, exact.Row(0)[0].F; math.Abs(got-w) > 0.1*w {
		t.Errorf("approx avg(x) = %v after the flips, exact on the last version %v: sampled another version", got, w)
	}
}

// TestOldVersionKeepsItsDerivedState: a query that resolved t's version
// before Replace finishes on it — cracked, approx and online alike — and
// builds its crack indexes, samples and shuffle into that version. The new
// version's state stays empty, and its own queries answer from its rows.
func TestOldVersionKeepsItsDerivedState(t *testing.T) {
	ctx := context.Background()
	oldT, newT := versionTable(t, 1000, 0, 4), versionTable(t, 100, 0, 5)
	e := New(Options{Seed: 6, Exec: exec.ExecOptions{Parallelism: 2, MorselSize: 64}})
	e.relCI = 1e-12
	if err := e.Register(oldT); err != nil {
		t.Fatal(err)
	}
	old := current(t, e, "t")
	e.Replace(newT)
	fresh := current(t, e, "t")
	if fresh == old {
		t.Fatal("Replace kept the old version")
	}

	cracked := []string{
		"SELECT x, y FROM t WHERE x >= 40 AND x < 90",
		"SELECT sum(y) FROM t WHERE x >= 40 AND x < 90",
		"SELECT count(*) FROM t WHERE x >= 10",
	}
	run := func(v *version, sql string, mode Mode) *storage.Table {
		t.Helper()
		res, err := e.execute(ctx, v, mustParse(t, sql), mode)
		if err != nil {
			t.Fatalf("%s (%v): %v", sql, mode, err)
		}
		return res
	}
	exactOn := func(tbl *storage.Table, sql string) *storage.Table {
		t.Helper()
		res, err := exec.Execute(tbl, mustParse(t, sql))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, sql := range cracked {
		ask := func() {
			if got, want := run(old, sql, Cracked).Format(-1), exactOn(oldT, sql).Format(-1); got != want {
				t.Errorf("old version %s:\n%s\nwant\n%s", sql, got, want)
			}
		}
		warmUp(ask)
		ask()
	}
	run(old, "SELECT avg(x) FROM t", Approx)
	if got, want := run(old, "SELECT max(x) FROM t", Online).Row(0)[0].F, exactOn(oldT, "SELECT max(x) FROM t").Row(0)[0].AsFloat(); got != want {
		t.Errorf("old version online max(x) = %v, want %v", got, want)
	}

	e.mu.Lock()
	xOnly := len(old.cracks) > 0
	for k := range old.cracks {
		xOnly = xOnly && k.col == "x"
	}
	oldState := [3]bool{xOnly, old.samples != nil, len(old.shuffle) == oldT.NumRows()}
	freshState := [3]bool{len(fresh.cracks)+len(fresh.touches) == 0, fresh.samples == nil, fresh.shuffle == nil}
	e.mu.Unlock()
	if oldState != [3]bool{true, true, true} {
		t.Errorf("old version's state (crackers of x alone, samples, a %d-row shuffle) = %v", oldT.NumRows(), oldState)
	}
	if freshState != [3]bool{true, true, true} {
		t.Fatalf("the old version's queries built state on the new version (no cracker or touch, no samples, no shuffle) = %v", freshState)
	}
	if _, _, ok := e.CrackStats("t", "x"); ok {
		t.Error("CrackStats reports the old version's index on the new one")
	}

	for _, sql := range cracked {
		for round := 0; round < 2; round++ {
			res, err := e.SQL(sql, Cracked)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := res.Format(-1), exactOn(newT, sql).Format(-1); got != want {
				t.Errorf("new version %s:\n%s\nwant\n%s", sql, got, want)
			}
		}
	}
	res, err := e.SQL("SELECT max(x) FROM t", Online)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Row(0)[0].F, exactOn(newT, "SELECT max(x) FROM t").Row(0)[0].AsFloat(); got != want {
		t.Errorf("new version online max(x) = %v, want %v", got, want)
	}
	// 100 rows are fewer than the smallest sample wants: the sample is the
	// whole table, so the estimate is the exact count.
	res, err = e.SQL("SELECT count(*) FROM t", Approx)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Row(0)[0].F; got != float64(newT.NumRows()) {
		t.Errorf("new version approx count(*) = %v, want %d", got, newT.NumRows())
	}
	if _, _, ok := e.CrackStats("t", "x"); !ok {
		t.Error("the new version's cracked queries built no index")
	}
}
