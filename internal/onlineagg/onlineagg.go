// Package onlineagg implements online aggregation in the style of the
// CONTROL project [24,25]: the engine processes the table in random order
// and continuously reports running estimates with shrinking confidence
// intervals, so an exploring user can watch an answer converge and stop as
// soon as it is good enough — long before the full scan would finish.
package onlineagg

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"dex/internal/aqp"
	"dex/internal/exec"
	"dex/internal/metrics"
	"dex/internal/storage"
)

// Package-level sentinel errors.
var (
	ErrDone     = errors.New("onlineagg: all rows processed")
	ErrBadBatch = errors.New("onlineagg: batch must be positive")
)

// Runner incrementally evaluates one aggregate query over a random
// permutation of the table. Each Step consumes a batch of rows in O(batch)
// and the current estimates are available at any time.
type Runner struct {
	t     *storage.Table
	q     aqp.Query
	perm  []int
	pos   int
	mcol  storage.Column
	gcol  storage.Column
	accs  map[string]*groupAcc
	order []string
}

type groupAcc struct {
	group  storage.Value
	sumY   float64 // sum over processed rows of z_i (zero outside group/pred)
	sumY2  float64
	stream metrics.Stream // measure values inside group (for AVG)
	min    float64
	max    float64
	n      int
}

// New prepares a runner; the permutation is seeded deterministically.
func New(t *storage.Table, q aqp.Query, seed int64) (*Runner, error) {
	if q.Agg == exec.AggNone {
		return nil, fmt.Errorf("onlineagg: missing aggregate")
	}
	r := &Runner{t: t, q: q, accs: map[string]*groupAcc{}}
	if q.Agg != exec.AggCount {
		c, err := t.ColumnByName(q.Col)
		if err != nil {
			return nil, err
		}
		if c.Type() == storage.TString && (q.Agg == exec.AggSum || q.Agg == exec.AggAvg) {
			return nil, fmt.Errorf("onlineagg: %s over TEXT column %q", q.Agg, q.Col)
		}
		r.mcol = c
	}
	if q.GroupBy != "" {
		c, err := t.ColumnByName(q.GroupBy)
		if err != nil {
			return nil, err
		}
		r.gcol = c
	}
	if q.Where != nil {
		if err := q.Where.Validate(t.Schema()); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	r.perm = rng.Perm(t.NumRows())
	return r, nil
}

// Processed returns how many rows have been consumed.
func (r *Runner) Processed() int { return r.pos }

// Progress returns the fraction of the table consumed, in [0,1].
func (r *Runner) Progress() float64 {
	if len(r.perm) == 0 {
		return 1
	}
	return float64(r.pos) / float64(len(r.perm))
}

// Done reports whether the scan has consumed every row.
func (r *Runner) Done() bool { return r.pos >= len(r.perm) }

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
	end := r.pos + batch
	if end > len(r.perm) {
		end = len(r.perm)
	}
	for ; r.pos < end; r.pos++ {
		row := r.perm[r.pos]
		if r.q.Where != nil && !r.q.Where.Matches(r.t, row) {
			continue
		}
		key := ""
		var gv storage.Value
		if r.gcol != nil {
			gv = r.gcol.Value(row)
			key = gv.String()
		}
		a, ok := r.accs[key]
		if !ok {
			a = &groupAcc{group: gv, min: math.Inf(1), max: math.Inf(-1)}
			r.accs[key] = a
			r.order = append(r.order, key)
			sort.Strings(r.order)
		}
		x := 0.0
		if r.mcol != nil {
			x = r.mcol.Value(row).AsFloat()
		}
		z := 1.0
		if r.q.Agg == exec.AggSum {
			z = x
		}
		a.sumY += z
		a.sumY2 += z * z
		a.n++
		a.stream.Add(x)
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	return r.Estimates(), nil
}

// Estimates returns the current running estimates. SUM and COUNT scale the
// processed prefix up to the full table (N/m factor) with CLT intervals
// over the per-row draws; AVG reports the running group mean with its own
// interval. When the scan is complete all intervals are zero.
func (r *Runner) Estimates() []aqp.GroupEstimate {
	N := float64(len(r.perm))
	m := float64(r.pos)
	done := r.Done()
	out := make([]aqp.GroupEstimate, 0, len(r.order))
	for _, key := range r.order {
		a := r.accs[key]
		ge := aqp.GroupEstimate{Group: a.group, N: a.n}
		switch r.q.Agg {
		case aqpCount, aqpSum:
			scale := 1.0
			if m > 0 {
				scale = N / m
			}
			ge.Est = scale * a.sumY
			if !done && m > 1 {
				// Variance of per-row draws t_i = N*z_i, zeros included.
				s2 := (N*N*a.sumY2 - (N*a.sumY)*(N*a.sumY)/m) / (m - 1)
				ge.CI = metrics.Z95 * math.Sqrt(math.Max(s2, 0)/m)
			}
		case aqpAvg:
			ge.Est = a.stream.Mean()
			if !done {
				ge.CI = a.stream.MeanCI(metrics.Z95)
			}
		case aqpMin:
			ge.Est = a.min
			if !done {
				ge.CI = math.Inf(1)
			}
		case aqpMax:
			ge.Est = a.max
			if !done {
				ge.CI = math.Inf(1)
			}
		}
		out = append(out, ge)
	}
	return out
}

// Aliases keep the switch above terse.
const (
	aqpCount = exec.AggCount
	aqpSum   = exec.AggSum
	aqpAvg   = exec.AggAvg
	aqpMin   = exec.AggMin
	aqpMax   = exec.AggMax
)

// Snapshot is one point on the convergence curve RunUntil produces.
type Snapshot struct {
	Processed int
	Groups    []aqp.GroupEstimate
	// MaxRelCI is the worst relative interval across groups at this point.
	MaxRelCI float64
}

// RunUntil steps the runner in batches until every group's relative CI is
// at or below target (or the scan completes), returning the full
// convergence trajectory. A target <= 0 runs to completion.
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
		if target > 0 && worst <= target && r.pos > 1 {
			break
		}
	}
	return snaps, nil
}
