// Zone-map scan skipping: the parallel filtered scan consults per-morsel
// min/max summaries (storage.ZoneMap) and skips whole morsels whose value
// range cannot intersect the predicate. Range predicates dominate
// exploration workloads, so on data with any physical value locality —
// time-ordered ticks, clustered fact tables — skipping compounds with
// morsel parallelism and adaptive indexing.
//
// Pruning is strictly conservative: the per-column intervals come from
// expr.Intervals, which derives them only from the comparison leaves of the
// top-level conjunction, exactly as the filter evaluates them — the
// predicate kernel scans the very same ranges — and other conjuncts can
// only narrow the result further. An INT column compared with a FLOAT
// constant of any size, NaN included, gets an exact interval too. OR, NOT,
// LIKE, NE and string comparisons contribute no interval and prune
// nothing.
package exec

import (
	"dex/internal/expr"
	"dex/internal/storage"
)

// zonePruner is one column's zone map plus the predicate's interval over
// it, in the column's native type so integer bounds never round through
// float64.
type zonePruner struct {
	zm *storage.ZoneMap
	iv expr.Interval
}

// skip reports whether morsel m cannot contain a qualifying row. An empty
// interval — an unsatisfiable conjunction — skips every morsel.
func (zp zonePruner) skip(m int) bool {
	switch {
	case zp.iv.Empty():
		return true
	case zp.iv.Float:
		return zp.zm.PruneFloat(m, zp.iv.FLo, zp.iv.FHi)
	default:
		return zp.zm.PruneInt(m, zp.iv.ILo, zp.iv.IHi)
	}
}

// zonePruners builds one pruner per numeric column that the predicate
// constrains, lazily building (or fetching) the table's zone maps at the
// given morsel size. A zone-map build failure (the storage/zonemap-build
// failpoint, in practice) fails the scan.
func zonePruners(t *storage.Table, p *expr.Pred, morsel int) ([]zonePruner, error) {
	ivs, _ := expr.Intervals(t.Schema(), p)
	var out []zonePruner
	for _, iv := range ivs {
		zm, err := t.ZoneMap(iv.Col, morsel)
		if err != nil {
			return nil, err
		}
		if zm != nil {
			out = append(out, zonePruner{zm: zm, iv: iv})
		}
	}
	return out, nil
}
