package bench

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"dex/internal/exec"
	"dex/internal/expr"
	"dex/internal/storage"
)

// guardQuery is one shape of the never-slower guards.
type guardQuery struct {
	name string
	tbl  *storage.Table
	q    exec.Query
}

// requireNeverSlower guards the pipeline the way TestParallelScanNeverSlower
// guards the morsel scheduler: on one worker it must never fall below 0.9x
// the reference evaluator exec.Execute (pipeline time at most oracle/0.9).
// Best-of-reps timing plus a small absolute slack absorbs scheduler jitter;
// the headline speedups are E33's and E34's to report, the guards only pin
// "the typed path is never a regression against the boxed one".
func requireNeverSlower(t *testing.T, rows int, queries []guardQuery) {
	t.Helper()
	bestOf := func(reps int, fn func() error) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < reps; i++ {
			start := time.Now()
			if err := fn(); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	for _, qq := range queries {
		oracle := func() error { _, err := exec.Execute(qq.tbl, qq.q); return err }
		pipeline := func() error {
			_, err := exec.ExecuteOpts(qq.tbl, qq.q, exec.ExecOptions{Parallelism: 1})
			return err
		}
		// Warm both so first-touch allocation biases neither.
		bestOf(1, oracle)
		bestOf(1, pipeline)
		base := bestOf(5, oracle)
		got := bestOf(5, pipeline)
		const slack = 2 * time.Millisecond
		limit := base + base/9 + slack // base/0.9, plus jitter allowance
		t.Logf("%s: rows=%d GOMAXPROCS=%d oracle=%v pipeline=%v limit=%v",
			qq.name, rows, runtime.GOMAXPROCS(0), base, got, limit)
		if got > limit {
			t.Errorf("%s: pipeline %v exceeds 0.9x-floor limit %v (oracle %v)", qq.name, got, limit, base)
		}
	}
}

// TestKernelScanNeverSlower holds the typed-kernel filtered scan to the
// floor at the mid selectivity where a branchy selection loop would be at
// its worst. The second leaf (onScan) keeps the queries off the bucket
// cells, which would otherwise answer a one-range aggregate without the
// scan.
func TestKernelScanNeverSlower(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-row timing guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing guard skipped under -race: instrumentation swamps the scan loop")
	}
	const rows = 1_000_000
	tab, err := kernelBenchTable(rand.New(rand.NewSource(33)), rows)
	if err != nil {
		t.Fatal(err)
	}
	sum := []exec.SelectItem{{Col: "amount", Agg: exec.AggSum}}
	requireNeverSlower(t, rows, []guardQuery{
		{"cmp-10pct", tab, exec.Query{Select: sum, Where: onScan(expr.Cmp("v", expr.LT, storage.Float(10)))}},
		{"between-10pct", tab, exec.Query{Select: sum, Where: onScan(expr.Between("v", storage.Float(50), storage.Float(60)))}},
	})
}

// TestAggKernelNeverSlower holds the typed sinks to the floor on the three
// accumulator shapes — dense scalar, filtered scalar, dict group-by — so a
// regression in any accumulator loop or in the per-morsel handoff trips it.
// The filtered scalar keeps its selected-row loop through a second leaf
// (onScan), and the dense scalar and the group-by keep their dense loops
// through a second input (onDense); sum-cells-50pct is the one-range shape
// the bucket cells answer, and sum-cells-dense the shape with no WHERE,
// which folds every cell.
func TestAggKernelNeverSlower(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-row timing guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing guard skipped under -race: instrumentation swamps the accumulation loop")
	}
	const rows = 1_000_000
	tab, err := kernelBenchTable(rand.New(rand.NewSource(34)), rows)
	if err != nil {
		t.Fatal(err)
	}
	encTab, _, err := storage.EncodeTable(tab, storage.EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sum := []exec.SelectItem{{Col: "amount", Agg: exec.AggSum}}
	requireNeverSlower(t, rows, []guardQuery{
		{"sum-dense", tab, exec.Query{Select: onDense(sum)}},
		{"sum-10pct", tab, exec.Query{Select: sum, Where: onScan(expr.Cmp("v", expr.LT, storage.Float(10)))}},
		{"sum-cells-50pct", tab, exec.Query{Select: sum, Where: expr.Cmp("v", expr.LT, storage.Float(50))}},
		{"sum-cells-dense", tab, exec.Query{Select: sum}},
		{"group-dict", encTab, exec.Query{
			Select:  onDense([]exec.SelectItem{{Col: "cat"}, {Col: "amount", Agg: exec.AggSum}}),
			GroupBy: []string{"cat"},
		}},
	})
}
