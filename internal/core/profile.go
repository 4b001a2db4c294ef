package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"dex/internal/metrics"
	"dex/internal/recommend"
	"dex/internal/storage"
	"dex/internal/synopsis"
)

// ValueCount is one frequent value of a categorical column.
type ValueCount struct {
	Value string
	Count int
}

// ColumnProfile summarizes one column for a first exploratory look.
type ColumnProfile struct {
	Name     string
	Type     storage.Type
	Distinct int
	// Numeric summaries (zero for TEXT columns).
	Min, Max, Mean, StdDev float64
	// Hist is an equi-depth histogram for numeric columns (nil for TEXT).
	Hist *synopsis.Histogram
	// Top holds the most frequent values for TEXT columns (nil otherwise).
	Top []ValueCount
}

// TableProfile is the engine's data-profiling answer: per-column summaries
// plus suggested segmentations (which categorical column best explains each
// numeric measure — the query-advisor idea of [57]).
type TableProfile struct {
	Table   string
	Rows    int
	Columns []ColumnProfile
	// Segmentations maps each numeric column to the ranked categorical
	// dimensions that explain it.
	Segmentations map[string][]recommend.Segmentation
}

// Profile computes a TableProfile for a registered (or in-situ) table.
// The histogram bucket count adapts to the data size (16–64).
func (e *Engine) Profile(table string) (*TableProfile, error) {
	v, err := e.lookup(table)
	if err != nil {
		return nil, err
	}
	// Materialize every column (for in-situ tables this is the full parse —
	// profiling is an explicit whole-table operation).
	t, err := v.table(context.Background(), allColumnsQuery(v.schema()))
	if err != nil {
		return nil, err
	}
	p := &TableProfile{Table: table, Rows: t.NumRows(), Segmentations: map[string][]recommend.Segmentation{}}
	buckets := 16
	if t.NumRows() > 10_000 {
		buckets = 64
	}
	var dims, measures []string
	for i, f := range t.Schema() {
		c := t.Column(i)
		cp := ColumnProfile{Name: f.Name, Type: f.Type}
		if f.Type == storage.TString {
			counts := map[string]int{}
			for r := 0; r < c.Len(); r++ {
				counts[c.Value(r).S]++
			}
			cp.Distinct = len(counts)
			for v, n := range counts {
				cp.Top = append(cp.Top, ValueCount{Value: v, Count: n})
			}
			sort.Slice(cp.Top, func(a, b int) bool {
				if cp.Top[a].Count != cp.Top[b].Count {
					return cp.Top[a].Count > cp.Top[b].Count
				}
				return cp.Top[a].Value < cp.Top[b].Value
			})
			if len(cp.Top) > 5 {
				cp.Top = cp.Top[:5]
			}
			// Low-cardinality text columns are segmentation candidates.
			if cp.Distinct > 1 && cp.Distinct <= 64 {
				dims = append(dims, f.Name)
			}
		} else {
			xs := storage.Floats(c)
			var st metrics.Stream
			seen := map[float64]bool{}
			for _, x := range xs {
				st.Add(x)
				seen[x] = true
			}
			cp.Distinct = len(seen)
			cp.Min, cp.Max = st.Min(), st.Max()
			cp.Mean, cp.StdDev = st.Mean(), st.StdDev()
			if len(xs) > 0 {
				h, herr := synopsis.NewEquiDepth(xs, buckets)
				if herr == nil {
					cp.Hist = h
				}
			}
			measures = append(measures, f.Name)
		}
		p.Columns = append(p.Columns, cp)
	}
	if len(dims) > 0 {
		for _, m := range measures {
			segs, serr := recommend.SuggestSegmentation(t, m, dims)
			if serr == nil {
				p.Segmentations[m] = segs
			}
		}
	}
	return p, nil
}

// Format renders the profile for a terminal.
func (p *TableProfile) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "table %s: %d rows, %d columns\n", p.Table, p.Rows, len(p.Columns))
	for _, c := range p.Columns {
		fmt.Fprintf(&b, "  %-12s %-6s distinct=%d", c.Name, c.Type, c.Distinct)
		if c.Type == storage.TString {
			var tops []string
			for _, tv := range c.Top {
				tops = append(tops, fmt.Sprintf("%s(%d)", tv.Value, tv.Count))
			}
			fmt.Fprintf(&b, "  top: %s", strings.Join(tops, " "))
		} else {
			fmt.Fprintf(&b, "  min=%.4g max=%.4g mean=%.4g sd=%.4g", c.Min, c.Max, c.Mean, c.StdDev)
		}
		b.WriteByte('\n')
	}
	if len(p.Segmentations) > 0 {
		b.WriteString("suggested segmentations (R² of measure by dimension):\n")
		keys := make([]string, 0, len(p.Segmentations))
		for k := range p.Segmentations {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, m := range keys {
			segs := p.Segmentations[m]
			if len(segs) == 0 {
				continue
			}
			fmt.Fprintf(&b, "  %s: ", m)
			var parts []string
			for _, s := range segs {
				parts = append(parts, fmt.Sprintf("%s=%.3f", s.Dim, s.R2))
			}
			b.WriteString(strings.Join(parts, ", "))
			b.WriteByte('\n')
		}
	}
	return b.String()
}
