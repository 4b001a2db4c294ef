package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"dex/internal/workload"
)

func degradeEngine(t *testing.T, degrade bool) *Engine {
	t.Helper()
	eng := New(Options{Seed: 1, Degrade: degrade})
	sales, err := workload.Sales(rand.New(rand.NewSource(7)), 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Register(sales); err != nil {
		t.Fatal(err)
	}
	return eng
}

// expiredCtx returns a context whose deadline has already passed — the
// cheapest way to make any exact execution report DeadlineExceeded.
func expiredCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	t.Cleanup(cancel)
	return ctx
}

// TestDegradedAnswerReplacesDeadlineError is the degradation contract: an
// exact aggregate query over its deadline comes back as a sampled
// approximation tagged Degraded, and the estimate is close to the truth.
func TestDegradedAnswerReplacesDeadlineError(t *testing.T) {
	eng := degradeEngine(t, true)
	sess := eng.NewSession()
	const sql = "SELECT sum(amount) FROM sales WHERE amount >= 50 AND amount < 200"

	exactT, err := sess.Query(sql, Exact)
	if err != nil {
		t.Fatal(err)
	}
	exact := exactT.Column(0).Value(0).AsFloat()

	ans, err := sess.AnswerContext(expiredCtx(t), sql, Exact)
	if err != nil {
		t.Fatalf("degradable query returned error: %v", err)
	}
	if !ans.Degraded || ans.Mode != Approx {
		t.Fatalf("answer not degraded: degraded=%v mode=%v", ans.Degraded, ans.Mode)
	}
	// Degraded results use the approximate wire shape: estimate, ci95,
	// sample_n.
	names := ans.Table.Schema().Names()
	if len(names) != 3 || names[1] != "ci95" || names[2] != "sample_n" {
		t.Fatalf("degraded schema = %v", names)
	}
	est := ans.Table.Column(0).Value(0).AsFloat()
	ci := ans.Table.Column(1).Value(0).AsFloat()
	if math.Abs(est-exact) > math.Max(4*ci, 0.25*math.Abs(exact)) {
		t.Fatalf("degraded estimate %.1f too far from exact %.1f (ci95 %.1f)", est, exact, ci)
	}
	// The degraded answer still lands in the session history.
	if sess.Len() != 2 {
		t.Fatalf("history length = %d, want 2", sess.Len())
	}
}

// TestDegradeRefusals: shapes the approximate path cannot serve, disabled
// degradation, and client cancellation all keep their original error.
func TestDegradeRefusals(t *testing.T) {
	eng := degradeEngine(t, true)
	sess := eng.NewSession()

	// Two aggregates: not an approximable shape.
	_, err := sess.AnswerContext(expiredCtx(t), "SELECT sum(amount), count(*) FROM sales", Exact)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("non-approximable shape: err = %v, want DeadlineExceeded", err)
	}

	// Online mode is already approximate; it never degrades.
	_, err = sess.AnswerContext(expiredCtx(t), "SELECT sum(amount) FROM sales", Online)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("online mode: err = %v, want DeadlineExceeded", err)
	}

	// Client cancellation (no deadline) must not burn a degraded answer.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = sess.AnswerContext(cancelled, "SELECT sum(amount) FROM sales", Exact)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: err = %v, want Canceled", err)
	}

	// Degradation off: the deadline error stands.
	off := degradeEngine(t, false)
	_, err = off.NewSession().AnswerContext(expiredCtx(t), "SELECT sum(amount) FROM sales", Exact)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("degrade off: err = %v, want DeadlineExceeded", err)
	}
}

// expiresAfter is a context whose deadline fires after a fixed number of
// Err checks, so a test can place the deadline between two online batches
// without sleeping.
type expiresAfter struct {
	context.Context
	checks int
	err    error
}

func (c *expiresAfter) Err() error {
	if c.checks--; c.checks < 0 {
		return c.err
	}
	return nil
}

// TestOnlineAnswersAtTheDeadline is online mode's deadline contract: a
// deadline that fires mid-run returns the current estimates and CIs as a
// normal online answer, where a client cancellation at the same point
// still returns its error.
func TestOnlineAnswersAtTheDeadline(t *testing.T) {
	eng := New(Options{Seed: 1, OnlineBatch: 256, OnlineRelCI: 1e-9})
	sales, err := workload.Sales(rand.New(rand.NewSource(7)), 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Register(sales); err != nil {
		t.Fatal(err)
	}
	q := mustParse(t, "SELECT region, avg(amount) FROM sales GROUP BY region")
	// One check on entry, then one per batch: the context expires before
	// the fourth batch of a run that would otherwise scan the whole table.
	ctx := &expiresAfter{Context: context.Background(), checks: 4, err: context.DeadlineExceeded}
	res, err := eng.ExecuteContext(ctx, "sales", q, Online)
	if err != nil {
		t.Fatalf("online query over its deadline: %v, want the estimates so far", err)
	}
	if res.NumRows() != 4 {
		t.Fatalf("online groups at the deadline = %d", res.NumRows())
	}
	for r := 0; r < res.NumRows(); r++ {
		row := res.Row(r)
		est, ci, n := row[1].F, row[2].F, row[3].I
		if math.IsNaN(est) || math.IsInf(ci, 0) || ci <= 0 || n <= 0 || n >= 20_000 {
			t.Fatalf("row %v: want a finite positive ci95 over a partial sample", row)
		}
	}
	ctx = &expiresAfter{Context: context.Background(), checks: 4, err: context.Canceled}
	if _, err := eng.ExecuteContext(ctx, "sales", q, Online); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled online query: err = %v, want Canceled", err)
	}
}
