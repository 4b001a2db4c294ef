// Partitioned execution: a query splits into the query every partition
// runs and the fold that turns the partitions' outputs back into its
// answer. The fold is the algebra the pipeline merges its workers'
// partials with — aggState.merge over keyAppender-keyed groups, rendered by
// buildGroupEntries and buildScalarOutput, then finish — so one node and a
// fleet of them share a single definition of NULL skipping, AVG as
// SUM/COUNT, MIN/MAX typing and tie-breaks, and the types of an empty
// answer.
package exec

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"dex/internal/storage"
)

// Partials is a query split for partitioned execution: Push runs against
// every partition, Merge folds the partitions' outputs into the answer.
type Partials struct {
	// Push is the query each partition executes.
	Push Query
	q    Query
	// src[i] is the pushed column carrying select item i's partial — its
	// group key for a plain column — and cnt[i] an AVG item's COUNT
	// partial, -1 for the rest. Both are nil for a row query.
	src, cnt []int
}

// Split plans q's partitioned execution. A row query is pushed whole —
// the ORDER BY/LIMIT tail too, a per-partition top-k — and Merge stacks
// the rows and re-applies the tail. An aggregate or grouped query pushes
//
//	[GROUP BY columns as g0, g1, …] ++ [one partial per aggregate item]
//
// under aliases that cannot collide with the query's own output names: p<i>
// for item i, or p<i>s and p<i>c, its SUM and NULL-skipping COUNT, for an
// AVG, which does not merge. HAVING, ORDER BY and LIMIT stay behind: they
// apply to the merged groups only. A GROUP BY without aggregates pushes its
// keys alone, and Merge folds them into one row per key.
//
// LIMIT without ORDER BY on a row query is honored, but which rows
// satisfy it depends on how the table is partitioned.
func Split(q Query) (*Partials, error) {
	if len(q.Select) == 0 {
		return nil, ErrEmptySelect
	}
	p := &Partials{Push: q, q: q}
	if !q.HasAggregates() && len(q.GroupBy) == 0 {
		return p, nil
	}
	push := Query{Where: q.Where, GroupBy: q.GroupBy}
	for gi, g := range q.GroupBy {
		push.Select = append(push.Select, SelectItem{Col: g, As: fmt.Sprintf("g%d", gi)})
	}
	p.src, p.cnt = make([]int, len(q.Select)), make([]int, len(q.Select))
	for i, item := range q.Select {
		p.src[i], p.cnt[i] = len(push.Select), -1
		switch item.Agg {
		case AggNone:
			if p.src[i] = slices.Index(q.GroupBy, item.Col); p.src[i] < 0 {
				return nil, fmt.Errorf("column %q: %w", item.Col, ErrMixedSelect)
			}
		case AggAvg:
			p.cnt[i] = p.src[i] + 1
			push.Select = append(push.Select,
				SelectItem{Col: item.Col, Agg: AggSum, As: fmt.Sprintf("p%ds", i)},
				SelectItem{Col: item.Col, Agg: AggCount, As: fmt.Sprintf("p%dc", i)})
		default:
			push.Select = append(push.Select, SelectItem{Col: item.Col, Agg: item.Agg, As: fmt.Sprintf("p%d", i)})
		}
	}
	p.Push = push
	return p, nil
}

// Merge folds the partitions' outputs of Push, in partition order, into
// the answer to the original query, HAVING, ORDER BY and LIMIT applied.
//
// Merged groups come out in ascending key order under Value.Order, not in
// a single node's first-seen order, which no partitioning reproduces; keys
// that differ yet order level (-0 and 0, int64s past 2^53) keep the order
// the partitions first show them in. An explicit ORDER BY answers the same
// on both paths.
func (p *Partials) Merge(parts []*storage.Table) (*storage.Table, error) {
	if len(parts) == 0 {
		return nil, errors.New("exec: no partials to merge")
	}
	for _, t := range parts {
		if t.NumCols() != len(p.Push.Select) {
			return nil, fmt.Errorf("exec: partial has %d columns, want %d", t.NumCols(), len(p.Push.Select))
		}
	}
	var out *storage.Table
	var err error
	switch {
	case p.src == nil:
		out, err = concat(parts)
	case len(p.q.GroupBy) == 0:
		states := newAggStates(p.q)
		for pi, t := range parts {
			for r := 0; r < t.NumRows(); r++ {
				p.fold(states, t, r, pi)
			}
		}
		out, err = buildScalarOutput(parts[0].Name(), p.q, states)
	default:
		out, err = p.mergeGroups(parts)
	}
	if err != nil {
		return nil, err
	}
	return finish(out, p.q)
}

// fold merges row r of part pi into states, rebuilding each partial cell
// as the state that produced it. A SUM partial arrives rounded to a float64
// and is deposited as one value, so the merge does not depend on the order
// of the parts. A MIN/MAX partial sits at position pi, so a tie goes to the
// earlier part: in partition order, that is the value a scan of the whole
// input meets first.
func (p *Partials) fold(states []*aggState, t *storage.Table, r, pi int) {
	for i, st := range states {
		if st == nil {
			continue
		}
		v := t.Column(p.src[i]).Value(r)
		part := aggState{fn: st.fn}
		switch st.fn {
		case AggCount:
			part.count = v.AsInt()
		case AggSum, AggAvg:
			// A part's SUM is NaN only when it met both infinities.
			if x := v.AsFloat(); x == x {
				part.sum.Add(x)
			} else {
				part.sum.Add(math.Inf(1))
				part.sum.Add(math.Inf(-1))
			}
			if st.fn == AggAvg {
				part.count = t.Column(p.cnt[i]).Value(r).AsInt()
			}
		default: // MIN, MAX: a NULL partial met no value
			part.has = v.Typ != storage.TFloat || !math.IsNaN(v.F)
			part.ext, part.at = v, pi
		}
		st.merge(&part)
	}
}

// mergeGroups folds grouped partials: a group is the rows of every part
// that share a key.
func (p *Partials) mergeGroups(parts []*storage.Table) (*storage.Table, error) {
	nk := len(p.q.GroupBy)
	groups := map[string]*groupEntry{}
	var entries []*groupEntry
	appenders := make([]func(b []byte, row int) []byte, nk)
	var keyBuf []byte
	for pi, t := range parts {
		// A partial's group columns are plain (buildGroupEntries builds
		// them), so these key by value, never by a part's own dict codes.
		for g := range appenders {
			appenders[g] = keyAppender(t.Column(g))
		}
		for r := 0; r < t.NumRows(); r++ {
			keyBuf = keyBuf[:0]
			for _, ap := range appenders {
				keyBuf = append(ap(keyBuf, r), 0)
			}
			e, ok := groups[string(keyBuf)]
			if !ok {
				e = &groupEntry{key: make([]storage.Value, nk), states: newAggStates(p.q), first: len(entries)}
				for g := range e.key {
					e.key[g] = t.Column(g).Value(r)
				}
				groups[string(keyBuf)] = e
				entries = append(entries, e)
			}
			p.fold(e.states, t, r, pi)
		}
	}
	slices.SortFunc(entries, func(a, b *groupEntry) int {
		for i := range a.key {
			if c := a.key[i].Order(b.key[i]); c != 0 {
				return c
			}
		}
		return cmp.Compare(a.first, b.first)
	})
	// The output is typed by what the partials carry: each group column,
	// and each MIN/MAX input, under its own name.
	var in storage.Schema
	for i, item := range p.q.Select {
		if item.Agg == AggNone || item.Agg == AggMin || item.Agg == AggMax {
			in = append(in, storage.Field{Name: item.Col, Type: parts[0].Schema()[p.src[i]].Type})
		}
	}
	return buildGroupEntries(parts[0].Name(), in, p.q, entries)
}

// concat stacks row partials in part order.
func concat(parts []*storage.Table) (*storage.Table, error) {
	schema := parts[0].Schema()
	cols := make([]storage.Column, len(schema))
	for c, f := range schema {
		cols[c] = storage.NewColumn(f.Type)
		for _, t := range parts {
			src := t.Column(c)
			for r := 0; r < src.Len(); r++ {
				if err := cols[c].Append(src.Value(r)); err != nil {
					return nil, err
				}
			}
		}
	}
	return storage.FromColumns(parts[0].Name(), schema, cols)
}
