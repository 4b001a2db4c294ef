// Package onlineagg implements online aggregation in the style of the
// CONTROL project [24,25]: the engine processes the table in random order
// and continuously reports running estimates with shrinking confidence
// intervals, so an exploring user can watch an answer converge and stop as
// soon as it is good enough — long before the full scan would finish.
package onlineagg

import (
	"context"
	"errors"
	"math"

	"dex/internal/aqp"
	"dex/internal/expr"
	"dex/internal/storage"
)

// Package-level sentinel errors.
var (
	ErrDone     = errors.New("onlineagg: all rows processed")
	ErrBadBatch = errors.New("onlineagg: batch must be positive")
)

// Runner incrementally evaluates one aggregate query over the table's rows,
// or a stratum of them (NewEdges), in the order of a keyed permutation
// (perm). Each Step maps a batch's window of the order into a scratch
// vector, which the compiled predicate kernel refines in place — or
// Pred.Matches, row by row, where the kernel does not compile — and hands
// the survivors to aqp's estimator in one AddRows call; the estimates of
// the processed prefix are available at any time.
type Runner struct {
	t        *storage.Table
	kern     *expr.Kernel
	where    *expr.Pred // decided row by row only when kern is nil
	fallback string     // why the kernel did not compile
	est      *aqp.Estimator
	rows     []int // the stratum's candidates; nil for a walk of the table
	order    perm  // the walk's order, of the table's rows or of rows' positions
	pos      int   // rows consumed
	matched  int   // rows that satisfied the predicate
	sel      []int // scratch a window of the order is mapped into
	exact    int   // rows of the exact stratum
}

// New prepares a runner over every row of t, in the order of the
// permutation seed keys: a fixed seed replays the same order, and two
// seeds give two orders.
func New(t *storage.Table, q aqp.Query, seed int64) (*Runner, error) {
	return newRunner(t, q, nil, t.NumRows(), seed)
}

// NewEdges prepares a runner over one stratum of t's rows, the candidate
// row ids rows, which the runner owns: estimates scale the rows read to
// len(rows) and add the exact stratum, the cells AddCell folds. A first
// batch that takes every candidate reads them in the given order, where
// they lie, and its answer is exact.
func NewEdges(t *storage.Table, q aqp.Query, rows []int, seed int64) (*Runner, error) {
	return newRunner(t, q, rows, len(rows), seed)
}

func newRunner(t *storage.Table, q aqp.Query, rows []int, n int, seed int64) (*Runner, error) {
	est, err := aqp.NewEstimator(t, q)
	if err != nil {
		return nil, err
	}
	r := &Runner{t: t, est: est, rows: rows, order: newPerm(n, seed)}
	if q.Where != nil {
		if r.kern, r.fallback = expr.CompileKernel(t, q.Where); r.kern == nil {
			r.where = q.Where
		}
	}
	return r, nil
}

// AddCell folds one bucket cell into the exact stratum: every row of c
// must satisfy the predicate (aqp.Estimator.AddCell).
func (r *Runner) AddCell(c *storage.Cell) {
	r.est.AddCell(c)
	r.exact += c.Rows
}

// UseScratch lends the runner buf's storage for the vector each batch is
// filtered in, replaced if too small, until its last Step or Run returns.
func (r *Runner) UseScratch(buf []int) { r.sel = buf[:0] }

// KernelFallback returns why the WHERE is decided row by row instead of
// by the compiled predicate kernel, or "" when the kernel runs (or there is
// no WHERE).
func (r *Runner) KernelFallback() string { return r.fallback }

// Processed returns how many rows have been consumed.
func (r *Runner) Processed() int { return r.pos }

// Matched returns how many consumed rows satisfied the predicate.
func (r *Runner) Matched() int { return r.matched }

// Progress returns the fraction of the table consumed, in [0,1].
func (r *Runner) Progress() float64 {
	if r.order.n == 0 {
		return 1
	}
	return float64(r.pos) / float64(r.order.n)
}

// Done reports whether the scan has consumed every row.
func (r *Runner) Done() bool { return r.pos >= r.order.n }

// Step consumes up to batch more rows and returns the updated estimates.
// After the final row the estimates are exact (CIs collapse to 0) and
// further calls return ErrDone.
func (r *Runner) Step(batch int) ([]aqp.GroupEstimate, error) {
	if batch <= 0 {
		return nil, ErrBadBatch
	}
	if r.Done() {
		return nil, ErrDone
	}
	r.advance(batch)
	return r.Estimates(), nil
}

// advance consumes the next min(batch, rows left) rows of the walk: a
// window of the order, or a whole stratum read in one batch, where it lies.
func (r *Runner) advance(batch int) {
	n := r.order.n
	m := min(batch, n-r.pos)
	win := r.rows
	if m < n || win == nil {
		if cap(r.sel) < m {
			r.sel = make([]int, 0, m)
		}
		win = r.sel[:m]
		r.order.fill(win, r.pos)
		if r.rows != nil {
			for i, j := range win {
				win[i] = r.rows[j]
			}
		}
	}
	r.feed(win)
	r.pos += m
}

// feed adds the rows of one window, the runner's own, that satisfy the
// predicate, filtering them where they lie.
func (r *Runner) feed(rows []int) {
	if r.kern != nil {
		rows = r.kern.Refine(rows)
	} else if r.where != nil {
		k := 0
		for _, row := range rows {
			if r.where.Matches(r.t, row) {
				rows[k] = row
				k++
			}
		}
		rows = rows[:k]
	}
	r.est.AddRows(rows, nil)
	r.matched += len(rows)
}

// Estimates returns the current running estimates: the m processed rows are
// m draws, each standing for N/m rows of the table. When the scan is
// complete they are the population and all intervals are zero.
func (r *Runner) Estimates() []aqp.GroupEstimate { return r.est.Estimates(r.draws()) }

// draws returns the (k, scale, n) the processed prefix renders with: m of
// the walk's N rows, read without replacement.
func (r *Runner) draws() (k, scale, n float64) {
	if r.Done() {
		return 0, 1, 0
	}
	m, pop := float64(r.pos), float64(r.order.n)
	return m, pop / m, pop
}

// Snapshot is one point on the convergence curve RunUntil produces.
type Snapshot struct {
	Processed int
	Groups    []aqp.GroupEstimate
	// MaxRelCI is the worst relative interval across groups at this point.
	MaxRelCI float64
}

// RunUntil steps the runner in batches until every group's relative CI is
// at or below target (or the scan completes), returning the full
// convergence trajectory. A target <= 0 runs to completion, and so does a
// query no row has qualified for yet, in the exact stratum or among the
// rows processed: a scalar estimate of nothing reads 0 ± 0, which is not
// a converged one.
func (r *Runner) RunUntil(target float64, batch int) ([]Snapshot, error) {
	return r.RunUntilCtx(context.Background(), target, batch)
}

// RunUntilCtx is RunUntil under a context, checked between batches: online
// aggregation is the engine's longest-running mode, and a cancelled request
// must stop the scan at the next batch boundary rather than running to its
// CI target. The snapshots accumulated so far are returned with ctx.Err().
//
// A deadline is not a cancellation: the point of online aggregation is to
// have an answer whenever the user stops waiting. Once at least one batch
// is in, an expired deadline is a stopping rule like the CI target — the
// run ends normally and Estimates holds the answer at the deadline, its
// confidence intervals as wide as the processed fraction makes them.
func (r *Runner) RunUntilCtx(ctx context.Context, target float64, batch int) ([]Snapshot, error) {
	var snaps []Snapshot
	_, err := r.run(ctx, target, batch, 0, func(worst float64) {
		snaps = append(snaps, Snapshot{Processed: r.pos, Groups: r.Estimates(), MaxRelCI: worst})
	})
	return snaps, err
}

// Run is RunUntilCtx without the trajectory: the same batches, stopping
// rule and deadline rule, and a row cap — a limit > 0 stops the run once
// limit rows are read, its last batch cut to fit — reporting only how many
// batches ran. Its stop check renders no estimate slice, so a batch
// allocates nothing.
func (r *Runner) Run(ctx context.Context, target float64, batch, limit int) (int, error) {
	return r.run(ctx, target, batch, limit, nil)
}

// run is RunUntilCtx and Run; snap, when not nil, sees each batch's worst
// relative interval.
func (r *Runner) run(ctx context.Context, target float64, batch, limit int, snap func(worst float64)) (int, error) {
	if batch <= 0 {
		return 0, ErrBadBatch
	}
	if limit <= 0 || limit > r.order.n {
		limit = r.order.n
	}
	batches := 0
	for r.pos < limit {
		if err := ctx.Err(); err != nil {
			if batches > 0 && errors.Is(err, context.DeadlineExceeded) {
				return batches, nil
			}
			return batches, err
		}
		r.advance(min(batch, limit-r.pos))
		batches++
		worst := r.worstRelCI()
		if snap != nil {
			snap(worst)
		}
		if target > 0 && worst <= target && r.matched+r.exact > 0 && r.pos > 1 {
			break
		}
	}
	return batches, nil
}

// worstRelCI returns the worst relative interval over the groups, skipping
// a group whose estimate is zero with an unbounded interval. Groups are
// rendered one at a time, unordered: the maximum does not depend on order.
func (r *Runner) worstRelCI() float64 {
	k, scale, n := r.draws()
	worst := 0.0
	for id := range r.est.Len() {
		g := r.est.Estimate(id, k, scale, n)
		rel := g.RelCI()
		if math.IsInf(rel, 1) && g.Est == 0 {
			continue
		}
		if rel > worst {
			worst = rel
		}
	}
	return worst
}
