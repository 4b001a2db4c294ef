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
	"math/rand"

	"dex/internal/aqp"
	"dex/internal/expr"
	"dex/internal/storage"
)

// Package-level sentinel errors.
var (
	ErrDone     = errors.New("onlineagg: all rows processed")
	ErrBadBatch = errors.New("onlineagg: batch must be positive")
)

// Runner incrementally evaluates one aggregate query over a shuffle of the
// table's rows. Each Step consumes a batch of rows in O(batch) and the
// current estimates are available at any time; the estimator itself is
// aqp's, fed the processed prefix.
//
// A batch is a window of the shuffle (two slices where it wraps past the
// end). With a WHERE, the window is copied into a scratch vector and the
// compiled predicate kernel refines it in place, keeping shuffle order; a
// predicate the kernel cannot compile is decided row by row with
// Pred.Matches, which agrees with the kernel wherever both apply. The
// survivors go to the estimator in one AddRows call.
type Runner struct {
	t        *storage.Table
	kern     *expr.Kernel
	where    *expr.Pred // decided row by row only when kern is nil
	fallback string     // why the kernel did not compile
	est      *aqp.Estimator
	shuffle  []int // a permutation of the row ids; read-only, may be shared
	start    int   // position in shuffle of the first row consumed
	pos      int   // rows consumed
	matched  int   // rows that satisfied the predicate
	sel      []int // scratch a window is filtered in
}

// New prepares a runner over its own permutation, seeded deterministically.
func New(t *storage.Table, q aqp.Query, seed int64) (*Runner, error) {
	return NewShuffled(t, q, rand.New(rand.NewSource(seed)).Perm(t.NumRows()), 0)
}

// NewShuffled prepares a runner that walks shuffle — a uniformly random
// permutation of t's row ids, which the runner only reads — from position
// start, wrapping around. A window of a random permutation is a uniform
// sample wherever it starts, so many runners can share one shuffle and
// still see different prefixes by starting at different positions.
func NewShuffled(t *storage.Table, q aqp.Query, shuffle []int, start int) (*Runner, error) {
	est, err := aqp.NewEstimator(t, q)
	if err != nil {
		return nil, err
	}
	r := &Runner{t: t, est: est, shuffle: shuffle, start: start}
	if q.Where != nil {
		if r.kern, r.fallback = expr.CompileKernel(t, q.Where); r.kern == nil {
			r.where = q.Where
		}
	}
	return r, nil
}

// UseScratch lends the runner buf's storage for the vector each batch is
// filtered in, so a caller running many queries can recycle one vector
// across them; a buf too small for a batch is replaced. buf is the
// runner's until its last Step or Run returns.
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
	if len(r.shuffle) == 0 {
		return 1
	}
	return float64(r.pos) / float64(len(r.shuffle))
}

// Done reports whether the scan has consumed every row.
func (r *Runner) Done() bool { return r.pos >= len(r.shuffle) }

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

// advance consumes the next min(batch, rows left) positions of the shuffle.
func (r *Runner) advance(batch int) {
	n := len(r.shuffle)
	m := min(batch, n-r.pos)
	a := r.start + r.pos
	if a >= n {
		a -= n
	}
	if b := a + m; b <= n {
		r.feed(r.shuffle[a:b], m)
	} else {
		r.feed(r.shuffle[a:], m)
		r.feed(r.shuffle[:b-n], m)
	}
	r.pos += m
}

// feed adds the rows of one window that satisfy the predicate, in shuffle
// order; batch sizes the scratch vector they are filtered in.
func (r *Runner) feed(rows []int, batch int) {
	if r.kern != nil || r.where != nil {
		if cap(r.sel) < len(rows) {
			r.sel = make([]int, 0, batch)
		}
		sel := append(r.sel[:0], rows...)
		if r.kern != nil {
			sel = r.kern.Refine(sel)
		} else {
			k := 0
			for _, row := range sel {
				if r.where.Matches(r.t, row) {
					sel[k] = row
					k++
				}
			}
			sel = sel[:k]
		}
		rows = sel
	}
	r.est.AddRows(rows, nil)
	r.matched += len(rows)
}

// Estimates returns the current running estimates: the m processed rows are
// m draws, each standing for N/m rows of the table. When the scan is
// complete they are the population and all intervals are zero.
func (r *Runner) Estimates() []aqp.GroupEstimate { return r.est.Estimates(r.draws()) }

// draws returns the (k, scale) the processed prefix renders with.
func (r *Runner) draws() (k, scale float64) {
	if r.Done() {
		return 0, 1
	}
	m := float64(r.pos)
	return m, float64(len(r.shuffle)) / m
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
// query no processed row has qualified for yet: no estimate is not a
// converged one.
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
	_, err := r.run(ctx, target, batch, func(worst float64) {
		snaps = append(snaps, Snapshot{Processed: r.pos, Groups: r.Estimates(), MaxRelCI: worst})
	})
	return snaps, err
}

// Run is RunUntilCtx without the trajectory: the same batches, stopping
// rule and deadline rule, reporting only how many batches ran. Its stop
// check renders no estimate slice, so a batch allocates nothing.
func (r *Runner) Run(ctx context.Context, target float64, batch int) (int, error) {
	return r.run(ctx, target, batch, nil)
}

// run is RunUntilCtx and Run; snap, when not nil, sees each batch's worst
// relative interval.
func (r *Runner) run(ctx context.Context, target float64, batch int, snap func(worst float64)) (int, error) {
	if batch <= 0 {
		return 0, ErrBadBatch
	}
	batches := 0
	for !r.Done() {
		if err := ctx.Err(); err != nil {
			if batches > 0 && errors.Is(err, context.DeadlineExceeded) {
				return batches, nil
			}
			return batches, err
		}
		r.advance(batch)
		batches++
		worst := r.worstRelCI()
		if snap != nil {
			snap(worst)
		}
		if target > 0 && worst <= target && r.est.Len() > 0 && r.pos > 1 {
			break
		}
	}
	return batches, nil
}

// worstRelCI returns the worst relative interval over the groups, skipping
// a group whose estimate is zero with an unbounded interval. Groups are
// rendered one at a time, unordered: the maximum does not depend on order.
func (r *Runner) worstRelCI() float64 {
	k, scale := r.draws()
	worst := 0.0
	for id := range r.est.Len() {
		g := r.est.Estimate(id, k, scale)
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
