package exec

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"dex/internal/expr"
	"dex/internal/storage"
	"dex/internal/workload"
)

// TestTracingOffOverheadBounded guards the tracing layer's promise: with
// tracing off (no span in the context — every production query that did
// not ask for a trace), the E26 parallel scan path must run within 2% of
// the same path with the trace hooks compiled out entirely (disableTrace
// short-circuits the one FromContext lookup and the nil-span calls).
// Interleaved best-of-reps timing with a small absolute slack.
func TestTracingOffOverheadBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-row timing guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing guard skipped under -race: instrumentation distorts per-call costs")
	}
	const rows = 1_000_000
	rng := rand.New(rand.NewSource(26))
	sales, err := workload.Sales(rng, rows)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{
		Select: []SelectItem{{Col: "product"}, {Col: "amount"}},
		Where:  expr.Cmp("amount", expr.GT, storage.Float(120)),
	}
	opt := ExecOptions{Parallelism: 4}
	ctx := context.Background()

	run := func(off bool) time.Duration {
		disableTrace = off
		start := time.Now()
		if _, err := ExecuteCtx(ctx, sales, q, opt); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}

	defer func() { disableTrace = false }()
	// Warm both configurations so first-touch allocation biases neither.
	run(true)
	run(false)
	// Alternate the two configurations and keep each one's best: a noisy
	// stretch of the host (other packages' tests share the cores) then
	// lands on both sides instead of on whichever was measured second.
	base, hooked := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for i := 0; i < 15; i++ {
		if d := run(true); d < base {
			base = d
		}
		if d := run(false); d < hooked {
			hooked = d
		}
	}

	const slack = 2 * time.Millisecond
	limit := base + base/50 + slack // 1.02x plus absolute jitter allowance
	t.Logf("rows=%d GOMAXPROCS=%d no-hooks=%v tracing-off=%v limit=%v",
		rows, runtime.GOMAXPROCS(0), base, hooked, limit)
	if hooked > limit {
		t.Errorf("tracing-off scan %v exceeds 1.02x the hook-free baseline %v (limit %v)", hooked, base, limit)
	}
}
