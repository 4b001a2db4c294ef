package onlineagg

import (
	"fmt"
	"math/rand"

	"dex/internal/aqp"
	"dex/internal/expr"
	"dex/internal/storage"
)

// StridedRunner is the index-striding variant of online aggregation from
// the CONTROL project [24,25]: instead of one global random permutation —
// under which a rare group receives samples at its population rate and
// converges slowly — rows are consumed round-robin across the groups, so
// every group's estimate tightens at the same pace. Group totals are known
// from the striding pass, so SUM/COUNT estimates are scaled per group.
type StridedRunner struct {
	est    *aqp.Estimator
	groups []strideGroup // by the estimator's group id
	cursor int           // round-robin position, cycling the groups in key order
	done   int           // rows consumed
	total  int
}

type strideGroup struct {
	rows []int // shuffled member rows
	next int
}

// NewStrided prepares a strided runner. The query must have a GROUP BY
// column; predicates are applied during the bucketing pass (rows failing
// the predicate are excluded up front, which the striding pass can afford
// since it reads the grouping column anyway).
func NewStrided(t *storage.Table, q aqp.Query, seed int64) (*StridedRunner, error) {
	if q.GroupBy == "" {
		return nil, fmt.Errorf("onlineagg: striding requires GROUP BY")
	}
	est, err := aqp.NewEstimator(t, q)
	if err != nil {
		return nil, err
	}
	sel, err := expr.Filter(t, q.Where)
	if err != nil {
		return nil, err
	}
	r := &StridedRunner{est: est, total: len(sel)}
	for i, id := range est.GroupIDs(sel) {
		if id == len(r.groups) {
			r.groups = append(r.groups, strideGroup{})
		}
		r.groups[id].rows = append(r.groups[id].rows, sel[i])
	}
	rng := rand.New(rand.NewSource(seed))
	for _, id := range est.Order() {
		rows := r.groups[id].rows
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	}
	return r, nil
}

// Processed returns how many rows have been consumed.
func (r *StridedRunner) Processed() int { return r.done }

// Done reports whether every group is exhausted.
func (r *StridedRunner) Done() bool { return r.done >= r.total }

// Step consumes up to batch rows round-robin across the groups and returns
// the updated estimates. The round-robin only counts each group's share;
// each group's rows then go to the estimator as one slice, in the order
// the round-robin would have taken them.
func (r *StridedRunner) Step(batch int) ([]aqp.GroupEstimate, error) {
	if batch <= 0 {
		return nil, ErrBadBatch
	}
	if r.Done() {
		return nil, ErrDone
	}
	order := r.est.Order()
	take := make([]int, len(r.groups))
	for consumed := 0; consumed < batch && r.done < r.total; {
		id := order[r.cursor%len(order)]
		r.cursor++
		if r.groups[id].next+take[id] >= len(r.groups[id].rows) {
			continue // exhausted group; round-robin skips it
		}
		take[id]++
		r.done++
		consumed++
	}
	for id, m := range take {
		g := &r.groups[id]
		r.est.AddRows(g.rows[g.next:g.next+m], nil)
		g.next += m
	}
	return r.Estimates(), nil
}

// Estimates returns the per-group running estimates. Each group is its own
// stratum: its m_g consumed rows are m_g draws from its N_g members (known
// from bucketing), so est = (N_g/m_g)·sum_g and striding's distorted prefix
// proportions cannot bias the answers. An exhausted group is exact.
func (r *StridedRunner) Estimates() []aqp.GroupEstimate {
	return r.est.EstimatesBy(func(id int) (k, scale, n float64) {
		g := r.groups[id]
		if g.next == 0 || g.next == len(g.rows) {
			return 0, 1, 0
		}
		return float64(g.next), float64(len(g.rows)) / float64(g.next), float64(len(g.rows))
	})
}
