package aqp

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"dex/internal/sample"
	"dex/internal/storage"
)

// Stored is one pre-built sample in the catalog: a materialized view of the
// sampled rows plus aligned expansion weights.
type Stored struct {
	Name     string
	StratCol string // "" for uniform samples
	View     *storage.Table
	Weights  []float64
}

// Rows returns the sample size.
func (s *Stored) Rows() int { return s.View.NumRows() }

// Catalog is a BlinkDB-style collection of samples over one base table:
// a ladder of uniform samples at increasing fractions, plus optional
// stratified samples keyed by their stratification column.
type Catalog struct {
	base    *storage.Table
	uniform []*Stored // sorted by ascending size
	strat   map[string]*Stored
}

// NewCatalog builds uniform samples of the base table at each fraction.
func NewCatalog(base *storage.Table, rng *rand.Rand, fracs ...float64) (*Catalog, error) {
	c := &Catalog{base: base, strat: map[string]*Stored{}}
	sort.Float64s(fracs)
	for _, f := range fracs {
		s, err := sample.UniformFrac(rng, base.NumRows(), f)
		if err != nil {
			return nil, err
		}
		c.uniform = append(c.uniform, &Stored{
			Name:    fmt.Sprintf("uniform-%.4g", f),
			View:    base.Gather(s.Rows),
			Weights: s.Weights,
		})
	}
	return c, nil
}

// AddStratified builds a stratified sample capped at perStratum rows per
// distinct value of col, so rare groups stay answerable.
func (c *Catalog) AddStratified(rng *rand.Rand, col string, perStratum int) error {
	gc, err := c.base.ColumnByName(col)
	if err != nil {
		return err
	}
	labels := make([]string, gc.Len())
	for i := range labels {
		labels[i] = gc.Value(i).String()
	}
	s, err := sample.Stratified(rng, labels, perStratum)
	if err != nil {
		return err
	}
	c.strat[col] = &Stored{
		Name:     fmt.Sprintf("strat-%s-%d", col, perStratum),
		StratCol: col,
		View:     c.base.Gather(s.Rows),
		Weights:  s.Weights,
	}
	return nil
}

// Bound expresses the user's accuracy/latency contract: answer within
// RelErr relative error (0 = don't care) reading at most MaxRows sample
// rows (0 = don't care). At least one must be set for Approx to do
// anything other than pick the smallest sample.
type Bound struct {
	RelErr  float64
	MaxRows int
}

// Result bundles an approximate answer with the sample that produced it.
type Result struct {
	Groups   []GroupEstimate
	Used     *Stored
	RowsRead int
	// MaxRelCI is the worst relative confidence interval across groups.
	MaxRelCI float64
}

// Approx answers the query within the bound. Candidate samples are tried
// smallest-first (a stratified sample on the GROUP BY column, when present,
// is preferred at equal cost); the first one whose worst-group relative CI
// meets the error bound wins — the error-latency profile walk of BlinkDB.
// If only MaxRows is set, the largest sample within budget is used. If no
// candidate satisfies the bound, ErrNoSample is returned alongside the best
// attempt so callers can degrade gracefully.
func (c *Catalog) Approx(q Query, b Bound) (*Result, error) {
	cands := c.candidates(q, b)
	if len(cands) == 0 {
		return nil, fmt.Errorf("rows budget %d: %w", b.MaxRows, ErrNoSample)
	}
	if b.RelErr <= 0 {
		// Pure latency bound: biggest affordable sample.
		s := cands[len(cands)-1]
		ge, err := OnView(s.View, s.Weights, q)
		if err != nil {
			return nil, err
		}
		return &Result{Groups: ge, Used: s, RowsRead: s.Rows(), MaxRelCI: maxRelCI(ge)}, nil
	}
	var best *Result
	for _, s := range cands {
		ge, err := OnView(s.View, s.Weights, q)
		if err != nil {
			return nil, err
		}
		rowsRead := s.Rows()
		if best != nil {
			rowsRead += best.RowsRead
		}
		r := &Result{Groups: ge, Used: s, RowsRead: rowsRead, MaxRelCI: maxRelCI(ge)}
		if best == nil || r.MaxRelCI < best.MaxRelCI {
			best = r
		}
		if r.MaxRelCI <= b.RelErr {
			return r, nil
		}
	}
	return best, fmt.Errorf("best rel CI %.4f > target %.4f: %w", best.MaxRelCI, b.RelErr, ErrNoSample)
}

// candidates orders usable samples by ascending size, respecting MaxRows
// and preferring a stratified sample matching the GROUP BY column.
func (c *Catalog) candidates(q Query, b Bound) []*Stored {
	var out []*Stored
	if q.GroupBy != "" {
		if s, ok := c.strat[q.GroupBy]; ok && (b.MaxRows == 0 || s.Rows() <= b.MaxRows) {
			out = append(out, s)
		}
	}
	for _, s := range c.uniform {
		if b.MaxRows == 0 || s.Rows() <= b.MaxRows {
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Rows() < out[j].Rows() })
	return out
}

func maxRelCI(ge []GroupEstimate) float64 {
	worst := 0.0
	for _, g := range ge {
		if r := g.RelCI(); r > worst {
			worst = r
		}
	}
	if math.IsNaN(worst) {
		return math.Inf(1)
	}
	return worst
}
