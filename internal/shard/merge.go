package shard

import (
	"fmt"
	"math"
	"sort"

	"dex/internal/exec"
	"dex/internal/storage"
)

// Plan is one query's distribution plan: the rewritten query pushed to
// every shard, plus how the gather side folds the partials back. Exact
// partials fold through exec's own aggregate algebra (exec.Split); only the
// approximate modes' estimate tables merge here, by the CI rules below.
type Plan struct {
	// Push is the query each shard executes against its partition.
	Push exec.Query
	// exact folds exact partials; nil for an estimates plan.
	exact *exec.Partials
	// nGroup is 1 when estimate tables lead with a group column, else 0.
	nGroup int
	// estAgg is the single aggregate of an estimates query.
	estAgg exec.AggFunc
}

// PlanQuery builds the distribution plan for a star-expanded query.
// estimates selects the approx/online shape (the pushed query runs in
// the same approximate mode on each shard and returns estimate tables);
// otherwise the plan is exec.Split's.
func PlanQuery(q exec.Query, estimates bool) (*Plan, error) {
	if len(q.Select) == 0 {
		return nil, exec.ErrEmptySelect
	}
	if !estimates {
		sp, err := exec.Split(q)
		if err != nil {
			return nil, err
		}
		return &Plan{Push: sp.Push, exact: sp}, nil
	}
	// The worker validates the single-aggregate shape; the merge side only
	// needs to know which aggregate combines the estimates.
	p := &Plan{Push: q}
	for _, s := range q.Select {
		if s.Agg != exec.AggNone {
			if p.estAgg != exec.AggNone {
				return nil, fmt.Errorf("shard: approximate queries merge exactly one aggregate")
			}
			p.estAgg = s.Agg
		}
	}
	if p.estAgg == exec.AggNone {
		return nil, fmt.Errorf("shard: approximate query needs an aggregate")
	}
	if len(q.GroupBy) > 0 {
		p.nGroup = 1
	}
	return p, nil
}

// Merge combines the per-shard partial tables into the final result.
// parts holds the surviving shards' outputs (possibly fewer than the fleet
// under degradation); at least one is required. Merged groups come out in
// ascending key order under storage.Value.Order (see exec.Partials.Merge).
func (p *Plan) Merge(parts []*storage.Table) (*storage.Table, error) {
	// Zero-column partials are empty shards that could not run a sampling
	// estimator; they contribute nothing.
	kept := parts[:0:0]
	for _, t := range parts {
		if t.NumCols() > 0 {
			kept = append(kept, t)
		}
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("shard: no partial results to merge")
	}
	if p.exact != nil {
		return p.exact.Merge(kept)
	}
	return p.mergeEstimates(kept)
}

// estEntry is one merged estimate group.
type estEntry struct {
	group storage.Value
	// est/ci accumulate per the aggregate's combination rule; n sums the
	// sample sizes; wsum accumulates sample-weighted means for AVG.
	est, ci, wsum, wci2 float64
	n                   int64
	has                 bool
}

// mergeEstimates merges approx/online estimate tables. Combination
// rules, per aggregate:
//
//   - COUNT, SUM: estimates add; shard samples are independent, so the
//     95% CIs combine in quadrature (sqrt of the summed squares).
//   - AVG: the fleet mean weights shard means by sample size (hash and
//     equi-depth range placement make sample size proportional to shard
//     population); the CI is the same weighted quadrature.
//   - MIN, MAX: the extreme of the shard estimates, with the widest
//     shard CI kept — conservative, and faithful to the single-node
//     estimator's ±Inf convention for sample extremes.
func (p *Plan) mergeEstimates(parts []*storage.Table) (*storage.Table, error) {
	first := parts[0]
	wantCols := p.nGroup + 3 // [group], estimate, ci95, sample_n
	if first.NumCols() != wantCols {
		return nil, fmt.Errorf("shard: estimate partial has %d columns, want %d", first.NumCols(), wantCols)
	}
	groups := map[string]*estEntry{}
	var order []string
	for _, t := range parts {
		if t.NumCols() != wantCols {
			return nil, fmt.Errorf("shard: estimate partial schema mismatch")
		}
		for r := 0; r < t.NumRows(); r++ {
			k := ""
			var gv storage.Value
			if p.nGroup == 1 {
				gv = t.Column(0).Value(r)
				k = gv.String()
			}
			e, ok := groups[k]
			if !ok {
				e = &estEntry{group: gv}
				groups[k] = e
				order = append(order, k)
			}
			est := t.Column(p.nGroup + 0).Value(r).AsFloat()
			ci := t.Column(p.nGroup + 1).Value(r).AsFloat()
			n := t.Column(p.nGroup + 2).Value(r).AsInt()
			if math.IsNaN(est) {
				continue // empty shard sample: no contribution
			}
			switch p.estAgg {
			case exec.AggCount, exec.AggSum:
				e.est += est
				e.ci = math.Sqrt(e.ci*e.ci + ci*ci)
			case exec.AggAvg:
				w := float64(n)
				e.wsum += w * est
				e.wci2 += w * w * ci * ci
			case exec.AggMin:
				if !e.has || est < e.est {
					e.est = est
				}
				e.ci = math.Max(e.ci, ci)
			case exec.AggMax:
				if !e.has || est > e.est {
					e.est = est
				}
				e.ci = math.Max(e.ci, ci)
			}
			e.n += n
			e.has = true
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		return groups[order[a]].group.Order(groups[order[b]].group) < 0
	})
	out, err := storage.NewTable(first.Name(), first.Schema())
	if err != nil {
		return nil, err
	}
	for _, k := range order {
		e := groups[k]
		est, ci := e.est, e.ci
		if p.estAgg == exec.AggAvg {
			if e.n == 0 {
				est, ci = math.NaN(), math.NaN()
			} else {
				est = e.wsum / float64(e.n)
				ci = math.Sqrt(e.wci2) / float64(e.n)
			}
		}
		row := []storage.Value{}
		if p.nGroup == 1 {
			row = append(row, e.group)
		}
		row = append(row, storage.Float(est), storage.Float(ci), storage.Int(e.n))
		if err := out.AppendRow(row...); err != nil {
			return nil, err
		}
	}
	return out, nil
}
