package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"dex/internal/expr"
	"dex/internal/fault"
	"dex/internal/storage"
)

// TestExecuteCtxParity checks ExecuteCtx with a live (but never fired)
// context and a scan counter produces exactly the background-context
// output, and that the counter moves.
func TestExecuteCtxParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tbl := randParityTable(rng, 5000, 0.1)
	queries := []Query{
		{Select: []SelectItem{{Col: "k"}, {Col: "x"}},
			Where: expr.Cmp("x", expr.GT, storage.Float(0))},
		{Select: []SelectItem{
			{Col: "x", Agg: AggSum}, {Col: "x", Agg: AggAvg}, {Col: "*", Agg: AggCount}},
			Where: expr.Cmp("k", expr.GE, storage.Int(0))},
		{Select: []SelectItem{{Col: "s"}, {Col: "x", Agg: AggSum}, {Col: "k", Agg: AggMax}},
			GroupBy: []string{"s"}},
	}
	for _, workers := range []int{1, 4} {
		for qi, q := range queries {
			want, err := ExecuteOpts(tbl, q, ExecOptions{Parallelism: workers, MorselSize: 256})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			var c Counters
			got, err := ExecuteCtx(ctx, tbl, q, ExecOptions{Parallelism: workers, MorselSize: 256, Counters: &c})
			cancel()
			if err != nil {
				t.Fatal(err)
			}
			requireSameTable(t, fmt.Sprintf("workers=%d query %d", workers, qi), want, got)
			if c.Scanned.Load() == 0 {
				t.Errorf("workers=%d query %d: scan counter never advanced", workers, qi)
			}
		}
	}
}

// TestExecuteCtxCancelled checks a cancelled context aborts execution with
// ctx.Err() and stops the scan counter well short of the full input. A
// per-morsel scan delay keeps the query in flight long enough for the
// canceller to land at any GOMAXPROCS; without it the pipeline can finish
// all 256 morsels before the watcher goroutine is scheduled once.
func TestExecuteCtxCancelled(t *testing.T) {
	fault.Reset()
	defer fault.Reset()
	if err := fault.Enable("exec/scan", "latency(1ms)"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	tbl := randParityTable(rng, 1<<18, 0)
	q := Query{
		Select:  []SelectItem{{Col: "s"}, {Col: "x", Agg: AggSum}},
		Where:   expr.Cmp("k", expr.GT, storage.Int(-1000)),
		GroupBy: []string{"s"},
	}
	ctx, cancel := context.WithCancel(context.Background())
	var c Counters
	// Cancel as soon as the scan makes first progress: the query must stop
	// long before visiting all rows of both operator stages.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for c.Scanned.Load() == 0 {
			runtime.Gosched()
		}
		cancel()
	}()
	_, err := ExecuteCtx(ctx, tbl, q, ExecOptions{Parallelism: 2, MorselSize: 1024, Counters: &c})
	<-done
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	total := int64(2 * tbl.NumRows()) // filter pass + group-by pass
	if got := c.Scanned.Load(); got >= total {
		t.Fatalf("scanned %d rows, want early stop below %d", got, total)
	}
}

// TestExecuteCtxDeadline checks an expired deadline surfaces as
// context.DeadlineExceeded before any work happens.
func TestExecuteCtxDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tbl := randParityTable(rng, 1000, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := Query{Select: []SelectItem{{Col: "x", Agg: AggSum}},
		Where: expr.Cmp("x", expr.GT, storage.Float(0))}
	var c Counters
	_, err := ExecuteCtx(ctx, tbl, q, ExecOptions{Parallelism: 1, MorselSize: 64, Counters: &c})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c.Scanned.Load() != 0 {
		t.Fatalf("scanned %d rows under a dead context", c.Scanned.Load())
	}
}
