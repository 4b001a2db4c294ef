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
type Runner struct {
	t       *storage.Table
	where   *expr.Pred
	est     *aqp.Estimator
	shuffle []int // a permutation of the row ids; read-only, may be shared
	start   int   // position in shuffle of the first row consumed
	pos     int   // rows consumed
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
	return &Runner{t: t, where: q.Where, est: est, shuffle: shuffle, start: start}, nil
}

// Processed returns how many rows have been consumed.
func (r *Runner) Processed() int { return r.pos }

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
	n := len(r.shuffle)
	end := r.pos + batch
	if end > n {
		end = n
	}
	for ; r.pos < end; r.pos++ {
		at := r.start + r.pos
		if at >= n {
			at -= n
		}
		row := r.shuffle[at]
		if r.where == nil || r.where.Matches(r.t, row) {
			r.est.Add(r.est.Group(row), row, 1)
		}
	}
	return r.Estimates(), nil
}

// Estimates returns the current running estimates: the m processed rows are
// m draws, each standing for N/m rows of the table. When the scan is
// complete they are the population and all intervals are zero.
func (r *Runner) Estimates() []aqp.GroupEstimate {
	if r.Done() {
		return r.est.Estimates(0, 1)
	}
	m := float64(r.pos)
	return r.est.Estimates(m, float64(len(r.shuffle))/m)
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
	if batch <= 0 {
		return nil, ErrBadBatch
	}
	var snaps []Snapshot
	for !r.Done() {
		if err := ctx.Err(); err != nil {
			if len(snaps) > 0 && errors.Is(err, context.DeadlineExceeded) {
				return snaps, nil
			}
			return snaps, err
		}
		ge, err := r.Step(batch)
		if err != nil {
			return snaps, err
		}
		worst := 0.0
		for _, g := range ge {
			rel := g.RelCI()
			if math.IsInf(rel, 1) && g.Est == 0 {
				continue
			}
			if rel > worst {
				worst = rel
			}
		}
		snaps = append(snaps, Snapshot{Processed: r.pos, Groups: ge, MaxRelCI: worst})
		if target > 0 && worst <= target && len(ge) > 0 && r.pos > 1 {
			break
		}
	}
	return snaps, nil
}
