package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"dex/internal/exec"
	"dex/internal/storage"
	"dex/internal/workload"
)

// mkParEngine builds an engine over the same sales table as mkEngine but
// with explicit execution options, so parallel and sequential engines see
// identical data.
func mkParEngine(t *testing.T, rows int, opt exec.ExecOptions) *Engine {
	t.Helper()
	e := New(Options{Seed: 1, Exec: opt})
	rng := rand.New(rand.NewSource(2))
	sales, err := workload.Sales(rng, rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register(sales); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestCrackedParallelParity: cracked-mode queries run their post-probe
// stage through the configured parallel pipeline, and the answers must
// match a one-worker engine bit for bit, float SUM/AVG included. A
// small morsel size makes even the probed selections large enough to
// actually fan out. (The name keeps the CrackedParallel prefix CI's
// concurrent-probe job selects on.)
func TestCrackedParallelParity(t *testing.T) {
	const rows = 30_000
	seq := mkParEngine(t, rows, exec.ExecOptions{Parallelism: 1})
	par := mkParEngine(t, rows, exec.ExecOptions{Parallelism: 8, MorselSize: 512})
	queries := []string{
		"SELECT count(*) FROM sales WHERE qty >= 3 AND qty < 7",
		"SELECT region, sum(amount) FROM sales WHERE qty >= 2 AND qty < 8 GROUP BY region ORDER BY region",
		"SELECT sum(amount), avg(amount), min(amount), max(amount) FROM sales WHERE amount >= 60 AND amount < 120",
		"SELECT amount, qty FROM sales WHERE amount >= 100 ORDER BY amount DESC LIMIT 20",
		"SELECT product, count(*) FROM sales WHERE qty > 4 GROUP BY product ORDER BY product",
	}
	for _, q := range queries {
		// Twice per engine: the second probe hits the converged read path.
		for i := 0; i < 2; i++ {
			want, err := seq.SQL(q, Cracked)
			if err != nil {
				t.Fatalf("%s (seq): %v", q, err)
			}
			got, err := par.SQL(q, Cracked)
			if err != nil {
				t.Fatalf("%s (par): %v", q, err)
			}
			if err := tablesIdentical(want, got); err != nil {
				t.Errorf("%s: %v", q, err)
			}
		}
	}
}

// TestCrackedParallelHistoryIndependent: a cracked answer does not depend
// on how far the index has cracked. A projection and a group-by are asked
// through their edge buckets' crackers, a dozen probes at bounds inside
// their range, each asked until it cracks, reorganize the column, and the
// same two queries must come back bit for bit identical, at one worker and
// at four.
func TestCrackedParallelHistoryIndependent(t *testing.T) {
	plain := crackedParityTable(t, rand.New(rand.NewSource(23)), 20_000)
	queries := []string{
		"SELECT k, label, amount FROM t WHERE amount >= 50 AND amount < 150",
		"SELECT label, count(*), sum(k), min(amount), max(bucket) FROM t WHERE amount >= 50 AND amount < 150 GROUP BY label",
	}
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			e := New(Options{Seed: 1, Exec: exec.ExecOptions{Parallelism: par, MorselSize: 256}})
			if err := e.Register(plain); err != nil {
				t.Fatal(err)
			}
			ask := func() []*storage.Table {
				out := make([]*storage.Table, len(queries))
				for i, q := range queries {
					res, err := e.SQL(q, Cracked)
					if err != nil {
						t.Fatalf("%s: %v", q, err)
					}
					out[i] = res
				}
				return out
			}
			warmUp(func() { ask() })
			before := ask()
			_, cracks, _ := e.CrackStats("t", "amount")
			rng := rand.New(rand.NewSource(5))
			for i := 0; i < 12; i++ {
				lo := 50 + rng.Float64()*90
				sql := fmt.Sprintf("SELECT count(*) FROM t WHERE amount >= %.4f AND amount < %.4f", lo, lo+rng.Float64()*10)
				probe := func() {
					if _, err := e.SQL(sql, Cracked); err != nil {
						t.Fatal(err)
					}
				}
				warmUp(probe)
				probe()
			}
			if _, after, _ := e.CrackStats("t", "amount"); after < cracks+12 {
				t.Fatalf("cracks %d -> %d: the probes did not reorganize the column", cracks, after)
			}
			for i, got := range ask() {
				if err := tablesIdentical(before[i], got); err != nil {
					t.Errorf("%s: %v", queries[i], err)
				}
			}
		})
	}
}

// tablesIdentical compares two result tables cell by cell, floats by their
// bits.
func tablesIdentical(a, b *storage.Table) error {
	if a.NumRows() != b.NumRows() || a.NumCols() != b.NumCols() {
		return fmt.Errorf("dims %dx%d vs %dx%d", a.NumRows(), a.NumCols(), b.NumRows(), b.NumCols())
	}
	for r := 0; r < a.NumRows(); r++ {
		av, bv := a.Row(r), b.Row(r)
		for c := range av {
			x, y := av[c], bv[c]
			same := x == y
			if x.Typ == storage.TFloat && y.Typ == storage.TFloat {
				same = math.Float64bits(x.F) == math.Float64bits(y.F)
			}
			if !same {
				return fmt.Errorf("row %d col %d: %v vs %v", r, c, x, y)
			}
		}
	}
	return nil
}

// TestConcurrentCrackedProbesMatchOracle hammers one engine with
// concurrent cracked-mode queries — the workload the removed engine-wide
// crack lock used to serialize — and checks every answer against exact
// answers computed up front. Run with -race: correctness here plus the
// detector is the evidence that per-index locking is sound end to end
// (engine map access, index probe, parallel post-probe pipeline).
func TestConcurrentCrackedProbesMatchOracle(t *testing.T) {
	const (
		rows       = 20_000
		goroutines = 8
		perG       = 15
	)
	e := mkParEngine(t, rows, exec.ExecOptions{Parallelism: 4, MorselSize: 1024})

	// Mixed int and float predicates: two distinct cracker indexes, so
	// concurrent probes exercise both same-index and cross-index paths.
	type oq struct {
		sql  string
		want int64
	}
	var qs []oq
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 12; i++ {
		lo := 1 + rng.Intn(7)
		hi := lo + 1 + rng.Intn(9-lo)
		qs = append(qs, oq{sql: fmt.Sprintf("SELECT count(*) FROM sales WHERE qty >= %d AND qty < %d", lo, hi)})
	}
	for i := 0; i < 12; i++ {
		lo := 40 + rng.Float64()*80
		hi := lo + 1 + rng.Float64()*40
		qs = append(qs, oq{sql: fmt.Sprintf("SELECT count(*) FROM sales WHERE amount >= %.3f AND amount < %.3f", lo, hi)})
	}
	for i := range qs {
		res, err := e.SQL(qs[i].sql, Exact)
		if err != nil {
			t.Fatal(err)
		}
		qs[i].want = res.Row(0)[0].I
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			grng := rand.New(rand.NewSource(500 + int64(g)))
			for i := 0; i < perG; i++ {
				q := qs[grng.Intn(len(qs))]
				res, err := e.SQL(q.sql, Cracked)
				if err != nil {
					errs <- fmt.Errorf("%s: %v", q.sql, err)
					return
				}
				if got := res.Row(0)[0].I; got != q.want {
					errs <- fmt.Errorf("%s: got %d, want %d", q.sql, got, q.want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Both indexes must exist and have cracked.
	for _, col := range []string{"qty", "amount"} {
		if pieces, cracks, ok := e.CrackStats("sales", col); !ok || pieces < 2 || cracks < 1 {
			t.Errorf("crack stats for %s = %d,%d,%v", col, pieces, cracks, ok)
		}
	}
}

// TestConcurrentCrackedRowSetsMatchOracle compares full row sets, not just
// counts: concurrent cracked projections must return exactly the rows the
// exact scan returns, in the same order.
func TestConcurrentCrackedRowSetsMatchOracle(t *testing.T) {
	const goroutines = 6
	e := mkParEngine(t, 8_000, exec.ExecOptions{Parallelism: 4, MorselSize: 1024})
	queries := []string{
		"SELECT qty FROM sales WHERE qty >= 2 AND qty < 5",
		"SELECT qty FROM sales WHERE qty >= 4 AND qty < 9",
		"SELECT amount FROM sales WHERE amount >= 80 AND amount < 110",
	}
	type key struct{ q string }
	oracle := map[key][]string{}
	for _, q := range queries {
		res, err := e.SQL(q, Exact)
		if err != nil {
			t.Fatal(err)
		}
		var vals []string
		for r := 0; r < res.NumRows(); r++ {
			vals = append(vals, res.Row(r)[0].String())
		}
		oracle[key{q}] = vals
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				q := queries[(g+i)%len(queries)]
				res, err := e.SQL(q, Cracked)
				if err != nil {
					errs <- err
					return
				}
				var vals []string
				for r := 0; r < res.NumRows(); r++ {
					vals = append(vals, res.Row(r)[0].String())
				}
				want := oracle[key{q}]
				if len(vals) != len(want) {
					errs <- fmt.Errorf("%s: %d rows, want %d", q, len(vals), len(want))
					return
				}
				for j := range vals {
					if vals[j] != want[j] {
						errs <- fmt.Errorf("%s: value %d = %s, want %s", q, j, vals[j], want[j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
