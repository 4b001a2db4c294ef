// Scan skipping. Zone maps: the parallel filtered scan consults per-morsel
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
//
// Value index: on an unclustered column zone maps skip nothing, so one
// interval's bucket run over its column's value index (storage.ValueIndex)
// prunes rows inside each morsel. A morsel with no candidate is skipped, one
// with at most indexCrossover of its rows as candidates refines just those,
// and the rest are scanned. The candidates cover every row inside the
// interval, so the same conservatism holds.
//
// Bucket cells (bucketcells.go) go one step further for an aggregate whose
// WHERE is exactly one interval, or two under a scalar aggregate: the
// buckets strictly inside one interval's bucket run hold only rows inside
// it, so their pre-aggregated cells — those whose key bucket lies inside
// the other interval, if any — stand in for them, and only the two edge
// buckets' candidates are refined; no morsel is scanned. An aggregate with
// no WHERE folds every cell of a column with no NULL and refines nothing.
package exec

import (
	"dex/internal/expr"
	"dex/internal/storage"
	"dex/internal/trace"
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

// zonePruners builds one pruner per interval of the predicate, lazily
// building (or fetching) the table's zone maps at the given morsel size. A
// zone-map build failure (the storage/zonemap-build failpoint, in practice)
// fails the scan.
func zonePruners(t *storage.Table, ivs []expr.Interval, morsel int) ([]zonePruner, error) {
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

// disableIndex keeps every morsel on the scan path — the baseline the
// index-path parity tests compare against. Test-only; never set in
// production code.
var disableIndex bool

// indexCrossover is the candidate share of a morsel up to which refining
// the value index's candidates beats scanning the morsel, and the
// estimated share of the table up to which a query uses the index at all.
// BenchmarkKernelScan's cand/ and scan/ series (make bench-kernels) put
// the two paths level at about 0.2 for the cheapest scans, a one-sided
// FLOAT bound and an INT range; behind a sink, which reads the candidates'
// rows again out of order, the level point drops to 0.15–0.2, so the
// constant sits at half the kernels' level, where every shape still wins.
// See EXPERIMENTS.md, E33.
const indexCrossover = 0.1

// rowIndex is the value index a plan prunes rows with: one column's index
// and the bucket run its interval covers. With cells set, the cells of the
// buckets strictly between bl and bh whose keys lie in [kl, kh] are
// folded in (bucketcells.go), and a morsel's candidates are the rows of
// the edge buckets bl and bh alone — none when bl is -1: the run of a
// query with no WHERE, which covers every bucket.
type rowIndex struct {
	col    string
	vi     *storage.ValueIndex
	bl, bh int
	cells  *storage.BucketCells
	kl, kh int
}

// count returns how many candidates morsel m holds.
func (ix *rowIndex) count(m int) int {
	switch {
	case ix.cells == nil:
		return ix.vi.Count(m, ix.bl, ix.bh)
	case ix.bl < 0:
		return 0
	}
	return ix.vi.Count(m, ix.bl, ix.bl) + ix.vi.Count(m, ix.bh, ix.bh)
}

// buckets returns how many of the interior's buckets hold cells: those
// that can hold a value.
func (ix *rowIndex) buckets() int {
	return len(ix.cells.Interior(ix.bl, ix.bh)) / len(ix.cells.Keys())
}

// keys returns how many of the cells' keys the fold covers.
func (ix *rowIndex) keys() int {
	n := 0
	for _, k := range ix.cells.Keys() {
		if int(k) >= ix.kl && int(k) <= ix.kh {
			n++
		}
	}
	return n
}

// candidates appends morsel m's candidates to dst, ascending.
func (ix *rowIndex) candidates(m int, dst []int) []int {
	if ix.cells != nil {
		return ix.vi.Edges(m, ix.bl, ix.bh, dst)
	}
	return ix.vi.Candidates(m, ix.bl, ix.bh, dst)
}

// bucketRun maps an interval onto the bucket run of its column's buckets.
func bucketRun(b *storage.ValueBuckets, iv expr.Interval) (bl, bh int) {
	if iv.Float {
		return b.FloatRange(iv.FLo, iv.FHi)
	}
	return b.IntRange(iv.ILo, iv.IHi)
}

// chooseIndex picks, among the intervals on plain INT and FLOAT columns,
// the one whose bucket run the column's sample puts the fewest rows in,
// and returns its column's value index at the given morsel size — nil when
// none estimates at most indexCrossover of the table, or when an interval
// is empty (the zone pruners then skip every morsel). Only the chosen
// column's index is built. The choice, and the build on the column's first
// such query, run under an "index" span.
func chooseIndex(t *storage.Table, ivs []expr.Interval, morsel int, sp *trace.Span) (ix rowIndex, err error) {
	if disableIndex || len(ivs) == 0 {
		return ix, nil
	}
	isp := sp.Child("index")
	defer isp.End()
	best, frac := -1, indexCrossover
	for i, iv := range ivs {
		if iv.Empty() {
			return ix, nil
		}
		b, err := t.ValueBuckets(iv.Col)
		if err != nil {
			return ix, err
		}
		if b == nil {
			continue
		}
		if f := b.Fraction(bucketRun(b, iv)); f <= frac {
			best, frac = i, f
		}
	}
	if best < 0 {
		return ix, nil
	}
	iv := ivs[best]
	vi, built, err := t.ValueIndex(iv.Col, morsel)
	if vi == nil || err != nil {
		return ix, err
	}
	isp.SetStr("col", iv.Col)
	isp.SetBool("built", built)
	ix = rowIndex{col: iv.Col, vi: vi}
	ix.bl, ix.bh = bucketRun(vi.ValueBuckets, iv)
	return ix, nil
}
