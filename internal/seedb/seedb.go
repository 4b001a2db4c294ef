// Package seedb implements deviation-based visualization recommendation in
// the style of SeeDB [49] (with VizDeck-style ranking [40] as the consumer):
// given a target subset of the data (the user's current selection) and a
// reference (everything else), every candidate view — a (dimension,
// measure, aggregate) triple — is scored by how much the target's grouped
// distribution deviates from the reference's, and the top-k most deviating
// views are recommended.
//
// Three execution strategies reproduce SeeDB's optimization ladder:
// Exhaustive runs two scans per view; SharedScan computes every view's
// aggregates for both subsets in one pass; Pruned adds phased execution
// with confidence-interval pruning that discards hopeless views early.
package seedb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"dex/internal/exec"
	"dex/internal/expr"
	"dex/internal/metrics"
	"dex/internal/par"
	"dex/internal/storage"
)

// Package-level sentinel errors.
var (
	ErrNoViews = errors.New("seedb: no candidate views")
	ErrBadK    = errors.New("seedb: k out of range")
)

// View is one candidate visualization.
type View struct {
	Dim     string
	Measure string
	Agg     exec.AggFunc
}

// String renders the view as "agg(measure) by dim".
func (v View) String() string {
	return fmt.Sprintf("%s(%s) by %s", v.Agg, v.Measure, v.Dim)
}

// Scored is a view with its deviation utility (EMD between the normalized
// target and reference distributions; higher = more interesting).
type Scored struct {
	View    View
	Utility float64
}

// Stats reports the physical work a strategy performed.
type Stats struct {
	RowsScanned int64 // rows read per scan pass (a shared pass counts each row once)
	ViewUpdates int64 // per-(row,view) accumulator updates — the CPU work
	ViewsPruned int
	Phases      int
}

// Strategy selects the execution plan.
type Strategy uint8

// Execution strategies.
const (
	Exhaustive Strategy = iota
	SharedScan
	Pruned
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Exhaustive:
		return "exhaustive"
	case SharedScan:
		return "shared-scan"
	case Pruned:
		return "pruned"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// Candidates enumerates the view space: every dimension × measure ×
// aggregate combination.
func Candidates(dims, measures []string, aggs []exec.AggFunc) []View {
	var out []View
	for _, d := range dims {
		for _, m := range measures {
			for _, a := range aggs {
				out = append(out, View{Dim: d, Measure: m, Agg: a})
			}
		}
	}
	return out
}

// Options configures Recommend.
type Options struct {
	K        int
	Strategy Strategy
	// Phases is the number of data batches for the Pruned strategy
	// (default 10).
	Phases int
	// Delta is the pruning confidence parameter (default 0.05).
	Delta float64
	// Parallelism fans candidate-view evaluation over a worker pool:
	// 0 means GOMAXPROCS, 1 forces sequential execution. Exhaustive
	// parallelizes across views (one scan each), SharedScan across morsels
	// with per-worker accumulators. Pruned stays sequential: its phases are
	// a serial dependence chain (each prune decision needs the previous
	// phase's bounds).
	Parallelism int
}

// Recommend scores every candidate view of the table, where the target
// subset is the rows matching targetPred and the reference is the rest,
// and returns the top-k by utility plus work stats.
func Recommend(t *storage.Table, targetPred *expr.Pred, views []View, opt Options) ([]Scored, Stats, error) {
	if len(views) == 0 {
		return nil, Stats{}, ErrNoViews
	}
	if opt.K <= 0 || opt.K > len(views) {
		return nil, Stats{}, fmt.Errorf("k=%d views=%d: %w", opt.K, len(views), ErrBadK)
	}
	if opt.Phases <= 0 {
		opt.Phases = 10
	}
	if opt.Delta <= 0 {
		opt.Delta = 0.05
	}
	inTarget, err := targetMask(t, targetPred)
	if err != nil {
		return nil, Stats{}, err
	}
	switch opt.Strategy {
	case Exhaustive:
		return runExhaustive(t, inTarget, views, opt)
	case SharedScan:
		return runShared(t, inTarget, views, opt)
	case Pruned:
		return runPruned(t, inTarget, views, opt)
	default:
		return nil, Stats{}, fmt.Errorf("seedb: unknown strategy %v", opt.Strategy)
	}
}

func targetMask(t *storage.Table, p *expr.Pred) ([]bool, error) {
	sel, err := expr.Filter(t, p)
	if err != nil {
		return nil, err
	}
	mask := make([]bool, t.NumRows())
	for _, r := range sel {
		mask[r] = true
	}
	return mask, nil
}

// viewAcc accumulates one view's grouped aggregates for target + reference.
type viewAcc struct {
	view View
	tgt  map[string]*agg
	ref  map[string]*agg
}

type agg struct {
	sum   float64
	count float64
	min   float64
	max   float64
}

func newViewAcc(v View) *viewAcc {
	return &viewAcc{view: v, tgt: map[string]*agg{}, ref: map[string]*agg{}}
}

// merge folds another accumulator for the same view into va (the combine
// step of per-worker shared scans).
func (va *viewAcc) merge(o *viewAcc) {
	mergeMap := func(dst, src map[string]*agg) {
		for g, b := range src {
			a, ok := dst[g]
			if !ok {
				dst[g] = b
				continue
			}
			a.sum += b.sum
			a.count += b.count
			if b.min < a.min {
				a.min = b.min
			}
			if b.max > a.max {
				a.max = b.max
			}
		}
	}
	mergeMap(va.tgt, o.tgt)
	mergeMap(va.ref, o.ref)
}

func (va *viewAcc) add(group string, x float64, target bool) {
	m := va.ref
	if target {
		m = va.tgt
	}
	a, ok := m[group]
	if !ok {
		a = &agg{min: math.Inf(1), max: math.Inf(-1)}
		m[group] = a
	}
	a.sum += x
	a.count++
	if x < a.min {
		a.min = x
	}
	if x > a.max {
		a.max = x
	}
}

// utility computes the EMD between the normalized target and reference
// distributions over the union of groups.
func (va *viewAcc) utility() float64 {
	groups := map[string]bool{}
	for g := range va.tgt {
		groups[g] = true
	}
	for g := range va.ref {
		groups[g] = true
	}
	keys := make([]string, 0, len(groups))
	for g := range groups {
		keys = append(keys, g)
	}
	sort.Strings(keys)
	val := func(a *agg) float64 {
		if a == nil || a.count == 0 {
			return 0
		}
		switch va.view.Agg {
		case exec.AggCount:
			return a.count
		case exec.AggSum:
			return a.sum
		case exec.AggAvg:
			return a.sum / a.count
		case exec.AggMin:
			return a.min
		case exec.AggMax:
			return a.max
		default:
			return 0
		}
	}
	p := make([]float64, len(keys))
	q := make([]float64, len(keys))
	for i, g := range keys {
		p[i] = math.Abs(val(va.tgt[g]))
		q[i] = math.Abs(val(va.ref[g]))
	}
	return metrics.EMD1D(p, q)
}

// colPair is one view's resolved dimension and measure columns.
type colPair struct {
	dim storage.Column
	mea storage.Column
}

// resolvePairs resolves and type-checks the columns of every accumulator's
// view once, so scan workers share them without re-resolving per morsel.
func resolvePairs(t *storage.Table, accs []*viewAcc) ([]colPair, error) {
	pairs := make([]colPair, len(accs))
	for i, va := range accs {
		dc, err := t.ColumnByName(va.view.Dim)
		if err != nil {
			return nil, err
		}
		mc, err := t.ColumnByName(va.view.Measure)
		if err != nil {
			return nil, err
		}
		if mc.Type() == storage.TString && va.view.Agg != exec.AggCount {
			return nil, fmt.Errorf("seedb: measure %q is TEXT", va.view.Measure)
		}
		pairs[i] = colPair{dim: dc, mea: mc}
	}
	return pairs, nil
}

// scanRange feeds rows [lo,hi) into the accumulators through pre-resolved
// column pairs.
func scanRange(pairs []colPair, inTarget []bool, accs []*viewAcc, lo, hi int, stats *Stats) {
	for r := lo; r < hi; r++ {
		stats.RowsScanned++
		for i, va := range accs {
			stats.ViewUpdates++
			g := pairs[i].dim.Value(r).String()
			x := 0.0
			if va.view.Agg != exec.AggCount {
				x = pairs[i].mea.Value(r).AsFloat()
			}
			va.add(g, x, inTarget[r])
		}
	}
}

// scanViews resolves the accumulators' columns and feeds rows [lo,hi) in.
func scanViews(t *storage.Table, inTarget []bool, accs []*viewAcc, lo, hi int, stats *Stats) error {
	pairs, err := resolvePairs(t, accs)
	if err != nil {
		return err
	}
	scanRange(pairs, inTarget, accs, lo, hi, stats)
	return nil
}

// add accumulates another run's work counters into s.
func (s *Stats) add(o Stats) {
	s.RowsScanned += o.RowsScanned
	s.ViewUpdates += o.ViewUpdates
	s.ViewsPruned += o.ViewsPruned
	s.Phases += o.Phases
}

func topK(accs []*viewAcc, k int) []Scored {
	scored := make([]Scored, len(accs))
	for i, va := range accs {
		scored[i] = Scored{View: va.view, Utility: va.utility()}
	}
	sort.SliceStable(scored, func(a, b int) bool { return scored[a].Utility > scored[b].Utility })
	if k > len(scored) {
		k = len(scored)
	}
	return scored[:k]
}

func runExhaustive(t *storage.Table, inTarget []bool, views []View, opt Options) ([]Scored, Stats, error) {
	stats := Stats{}
	accs := make([]*viewAcc, len(views))
	for i, v := range views {
		accs[i] = newViewAcc(v)
	}
	// Resolve (and type-check) every view's columns before fanning out so a
	// bad view fails the whole call deterministically.
	pairs, err := resolvePairs(t, accs)
	if err != nil {
		return nil, stats, err
	}
	// One separate full pass per view — the naive plan's cost. Views are
	// independent, so they fan out across the pool one task per view.
	pool := par.NewPool(par.Options{Parallelism: opt.Parallelism})
	perView := make([]Stats, len(views))
	if err := pool.Do(context.TODO(), len(views), func(i int) error {
		scanRange(pairs[i:i+1], inTarget, accs[i:i+1], 0, t.NumRows(), &perView[i])
		return nil
	}); err != nil {
		return nil, stats, err
	}
	for _, s := range perView {
		stats.add(s)
	}
	return topK(accs, opt.K), stats, nil
}

func runShared(t *storage.Table, inTarget []bool, views []View, opt Options) ([]Scored, Stats, error) {
	stats := Stats{}
	accs := make([]*viewAcc, len(views))
	for i, v := range views {
		accs[i] = newViewAcc(v)
	}
	pairs, err := resolvePairs(t, accs)
	if err != nil {
		return nil, stats, err
	}
	n := t.NumRows()
	pool := par.NewPool(par.Options{Parallelism: opt.Parallelism})
	// One shared pass split over morsels: each worker owns a full set of
	// thread-local accumulators, merged per view afterwards.
	w := pool.WorkersFor(n)
	locals := make([][]*viewAcc, w)
	perWorker := make([]Stats, w)
	for wi := range locals {
		locals[wi] = make([]*viewAcc, len(views))
		for i, v := range views {
			locals[wi][i] = newViewAcc(v)
		}
	}
	if err := pool.ForEach(context.TODO(), n, func(worker, lo, hi int) error {
		scanRange(pairs, inTarget, locals[worker], lo, hi, &perWorker[worker])
		return nil
	}); err != nil {
		return nil, stats, err
	}
	for wi := range locals {
		stats.add(perWorker[wi])
		for i := range accs {
			accs[i].merge(locals[wi][i])
		}
	}
	return topK(accs, opt.K), stats, nil
}

func runPruned(t *storage.Table, inTarget []bool, views []View, opt Options) ([]Scored, Stats, error) {
	stats := Stats{}
	live := make([]*viewAcc, len(views))
	for i, v := range views {
		live[i] = newViewAcc(v)
	}
	n := t.NumRows()
	batch := (n + opt.Phases - 1) / opt.Phases
	if batch == 0 {
		batch = n
	}
	// Empirical confidence intervals: each phase yields a fresh running
	// utility estimate per view; the spread of those estimates across
	// phases bounds how much the final utility can still move. (SeeDB uses
	// worst-case Hoeffding bounds; the empirical variant prunes the same
	// views much earlier on stable utilities.)
	trajectories := map[*viewAcc]*metrics.Stream{}
	for _, va := range live {
		trajectories[va] = &metrics.Stream{}
	}
	for lo := 0; lo < n; lo += batch {
		hi := lo + batch
		if hi > n {
			hi = n
		}
		if err := scanViews(t, inTarget, live, lo, hi, &stats); err != nil {
			return nil, stats, err
		}
		stats.Phases++
		if hi >= n || len(live) <= opt.K {
			continue
		}
		type bounded struct {
			va        *viewAcc
			lower, up float64
		}
		bs := make([]bounded, len(live))
		canPrune := true
		for i, va := range live {
			u := va.utility()
			tr := trajectories[va]
			tr.Add(u)
			if tr.N() < 2 {
				canPrune = false
			}
			eps := metrics.Z95*tr.StdErr() + math.Sqrt(math.Log(2/opt.Delta))/float64(n/batch+1)/10
			bs[i] = bounded{va: va, lower: u - eps, up: u + eps}
		}
		if !canPrune {
			continue
		}
		sort.Slice(bs, func(a, b int) bool { return bs[a].lower > bs[b].lower })
		kthLower := bs[opt.K-1].lower
		var kept []*viewAcc
		for _, b := range bs {
			if b.up >= kthLower {
				kept = append(kept, b.va)
			} else {
				stats.ViewsPruned++
			}
		}
		live = kept
	}
	return topK(live, opt.K), stats, nil
}
